"""kNN normality scoring against a full-sort brute-force oracle."""

import json

import numpy as np
import pytest

from logicad import knn, metrics, pipeline
from logicad.encoder import Vocabulary, init_params
from logicad.knn import (
    DEFAULT_K,
    LibraryError,
    ReferenceLibrary,
    build_library,
    score,
    score_split,
)
from logicad.scenes import Condition, Label


def _random_unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _library(rng, n, d):
    return ReferenceLibrary(
        vectors=_random_unit_rows(rng, n, d),
        ids=tuple(f"train-{i:04d}" for i in range(n)),
    )


def _brute_force(test_vector, library, k):
    """Full sort over (distance, index) pairs; no partial selection tricks."""
    pairs = sorted(
        (float(np.linalg.norm(row - test_vector)), i)
        for i, row in enumerate(library.vectors)
    )[: min(k, library.size)]
    mean_distance = sum(d for d, _ in pairs) / len(pairs)
    return 1.0 / (1.0 + mean_distance), mean_distance, [library.ids[i] for _, i in pairs]


def test_score_matches_brute_force_on_random_libraries():
    rng = np.random.default_rng(314)
    for trial in range(100):
        n = int(rng.integers(1, 201))
        d = int(rng.integers(2, 17))
        library = _library(rng, n, d)
        if trial % 3 == 0:
            # duplicated rows: exact distance ties, broken by library index
            dup = rng.integers(0, n, size=n)
            library = ReferenceLibrary(vectors=library.vectors[dup],
                                       ids=library.ids)
        # k > N in about a quarter of the trials
        k = int(rng.integers(1, 8)) if trial % 4 else n + int(rng.integers(1, 4))
        queries = _random_unit_rows(rng, int(rng.integers(1, 25)), d)
        if trial % 5 == 0:
            # a query on a library row, so its nearest distances tie at zero
            queries[0] = library.vectors[int(rng.integers(n))]
        single = []
        for query in queries:
            got = score(query[None], library, k=k)
            assert len(got) == 1
            want_score, want_mean, want_ids = _brute_force(query, library, k)
            assert abs(got[0].mean_distance - want_mean) < 1e-12
            assert abs(got[0].score - want_score) < 1e-12
            assert list(got[0].neighbor_ids) == want_ids
            single.extend(got)
        # one block scores every query exactly as it scores alone
        assert score(queries, library, k=k) == single


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_block_boundaries_leave_every_score_unchanged(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    library = _library(rng, 50, 64)
    library = ReferenceLibrary(vectors=np.vstack([library.vectors] * 2),
                               ids=tuple(f"t{i}" for i in range(100)))
    queries = _random_unit_rows(rng, 20, 64)
    single = [score(q[None], library, k=DEFAULT_K)[0] for q in queries]
    monkeypatch.setattr(knn, "_BLOCK_BYTES", rows * library.vectors.nbytes)
    assert score(queries, library, k=DEFAULT_K) == single


def test_the_default_block_holds_8_rows_of_a_50_by_64_library():
    assert knn._BLOCK_BYTES // (50 * 64 * 8) == 8


def test_a_block_names_its_first_non_unit_row():
    rng = np.random.default_rng(12)
    library = _library(rng, 10, 4)
    queries = _random_unit_rows(rng, 5, 4)
    for bad, value in ((2, 3.0), (4, np.nan), (0, 0.0)):
        block = queries.copy()
        block[bad] *= value
        block[-1] *= 2.0
        with pytest.raises(LibraryError, match=f"^query {bad} has norm"):
            score(block, library, k=5)
    assert score(queries[:0], library, k=5) == []


def test_score_bounds_for_unit_norm_inputs():
    rng = np.random.default_rng(2)
    library = _library(rng, 50, 8)
    for _ in range(200):
        result = score(_random_unit_rows(rng, 1, 8), library, k=5)[0]
        assert 1.0 / 3.0 - 1e-12 <= result.score <= 1.0 + 1e-12


def test_duplicate_of_library_vectors_scores_exactly_one():
    rng = np.random.default_rng(4)
    base = _random_unit_rows(rng, 1, 6)[0]
    vectors = np.stack([base] * 5 + list(_random_unit_rows(rng, 10, 6)))
    library = ReferenceLibrary(vectors=vectors,
                               ids=tuple(f"t{i}" for i in range(15)))
    result = score(base[None], library, k=5)[0]
    assert result.score == 1.0
    assert result.mean_distance == 0.0
    assert result.neighbor_ids == ("t0", "t1", "t2", "t3", "t4")


def test_orthonormal_library_gives_the_closed_form_score():
    library = ReferenceLibrary(vectors=np.eye(6), ids=tuple("abcdef"))
    result = score(np.eye(6)[:1], library, k=5)[0]
    # a library member: one zero distance and four sqrt(2) distances
    assert abs(result.mean_distance - 4 * np.sqrt(2.0) / 5.0) < 1e-12
    # a query orthogonal to every member sits at sqrt(2) from all of them
    library7 = ReferenceLibrary(vectors=np.hstack([np.eye(6), np.zeros((6, 1))]),
                                ids=tuple("abcdef"))
    q = np.zeros(7)
    q[6] = 1.0
    result = score(q[None], library7, k=5)[0]
    assert abs(result.score - 1.0 / (1.0 + np.sqrt(2.0))) < 1e-12
    assert abs(result.score - 0.41421) < 5e-6


def test_exact_distance_ties_break_by_ascending_library_index():
    base = np.array([1.0, 0.0])
    vectors = np.stack([[0.0, 1.0], [0.0, -1.0], [0.0, 1.0], [-1.0, 0.0],
                        [0.0, -1.0]])
    vectors = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    library = ReferenceLibrary(vectors=vectors, ids=("a", "b", "c", "d", "e"))
    result = score(base[None], library, k=2)[0]
    assert result.neighbor_ids == ("a", "b")


def test_k_larger_than_library_uses_every_member():
    rng = np.random.default_rng(6)
    library = _library(rng, 3, 5)
    query = _random_unit_rows(rng, 1, 5)[0]
    result = score(query[None], library, k=10)[0]
    assert len(result.neighbor_ids) == 3
    assert abs(result.mean_distance
               - np.linalg.norm(library.vectors - query, axis=1).mean()) < 1e-12


def test_adding_a_library_vector_never_increases_the_mean_distance():
    rng = np.random.default_rng(8)
    query = _random_unit_rows(rng, 1, 6)[0]
    vectors = _random_unit_rows(rng, 30, 6)
    for extra in _random_unit_rows(rng, 10, 6):
        small = ReferenceLibrary(vectors=vectors,
                                 ids=tuple(str(i) for i in range(len(vectors))))
        grown = ReferenceLibrary(
            vectors=np.vstack([vectors, extra[None, :]]),
            ids=tuple(str(i) for i in range(len(vectors) + 1)),
        )
        assert score(query[None], grown, k=5)[0].mean_distance \
            <= score(query[None], small, k=5)[0].mean_distance + 1e-12


def test_non_unit_queries_are_rejected():
    rng = np.random.default_rng(10)
    library = _library(rng, 20, 4)
    query = _random_unit_rows(rng, 1, 4)[0]
    unit = score(query[None], library, k=5)[0]
    assert score((query * (1.0 + 5e-7))[None], library, k=5)[0].neighbor_ids \
        == unit.neighbor_ids
    for scale in (7.5, 1.0 + 2e-6, 1.0 - 2e-6, 0.0):
        with pytest.raises(LibraryError):
            score((query * scale)[None], library, k=5)


def test_build_library_and_score_split_are_order_preserving():
    texts = ["three oranges two kiwis", "two oranges two kiwis",
             "four oranges one kiwi"]
    vocab = Vocabulary.build(texts)
    params = init_params(vocab.size, dim=8, seed=0)
    library = build_library(texts, params, vocab,
                            [f"train-{i:04d}" for i in range(len(texts))])
    assert library.ids == ("train-0000", "train-0001", "train-0002")
    assert np.allclose(np.linalg.norm(library.vectors, axis=1), 1.0)
    results = score_split(texts, params, vocab, library, k=1)
    # every training text is its own nearest neighbor
    for i, result in enumerate(results):
        assert result.neighbor_ids == (f"train-{i:04d}",)
        assert result.score == 1.0


def test_library_validation_errors():
    with pytest.raises(LibraryError):
        build_library([], None, None, [])
    with pytest.raises(LibraryError):
        ReferenceLibrary(vectors=np.eye(3), ids=("a", "b"))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        score(np.array([[1.0, 0.0]]), _library(rng, 4, 2), k=0)


def test_score_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    library = _library(rng, 8, 4)
    labels = [Label.NORMAL, Label.SINGLE_A, Label.NORMAL, Label.DUAL]
    results = [(f"test-{label.value}-{i:04d}", label,
                score(row[None], library, k=DEFAULT_K)[0])
               for i, (label, row) in enumerate(
                   zip(labels, _random_unit_rows(rng, len(labels), 4)))]
    report = metrics.make_task_report(
        "sticks-white_bg", "sticks", Condition.WHITE_BG,
        [r.score for _, _, r in results], labels)
    pipeline.write_score_file(tmp_path, pipeline.ScoredTask(report, results))

    scores, read_labels = pipeline.read_score_file(tmp_path, "sticks-white_bg")
    # bit for bit: a float's repr reads back as the same float
    assert [s.hex() for s in scores] == [r.score.hex() for _, _, r in results]
    assert read_labels == labels
    lines = (tmp_path / "sticks-white_bg.scores.jsonl").read_text().splitlines()
    sample_id, label, result = results[1]
    assert json.loads(lines[1]) == {
        "task_id": "sticks-white_bg", "sample_id": sample_id,
        "label": label.value, "score": result.score,
        "mean_distance": result.mean_distance,
        "neighbor_ids": list(result.neighbor_ids),
    }
