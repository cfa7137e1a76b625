"""kNN normality scoring against a full-sort brute-force oracle."""

import json

import numpy as np
import pytest

from logicad import knn, pipeline
from logicad.encoder import (
    activation_table,
    build_vocabulary,
    encode_texts,
    init_params,
)
from logicad.knn import DEFAULT_K, LibraryError, score
from logicad.scenarios import get_scenario
from logicad.scenes import Condition, Label


def _random_unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _score_one(query, library, k):
    """(score, mean distance, neighbor indices) of one row scored alone."""
    scores, means, nearest = score(query[None], library, k=k)
    assert scores.shape == means.shape == (1,)
    assert nearest.shape == (1, min(k, len(library)))
    return scores[0], means[0], nearest[0]


def _brute_force(test_vector, library, k):
    """Full sort over (distance, index) pairs; no partial selection tricks."""
    pairs = sorted(
        (float(np.linalg.norm(row - test_vector)), i)
        for i, row in enumerate(library)
    )[: min(k, len(library))]
    mean_distance = sum(d for d, _ in pairs) / len(pairs)
    return 1.0 / (1.0 + mean_distance), mean_distance, [i for _, i in pairs]


def _assert_rows_equal(got, rows):
    """A block's three arrays equal the stacked results of its rows, exactly."""
    for got_part, want_part in zip(got, zip(*rows)):
        assert np.array_equal(got_part, np.array(want_part))


def test_score_matches_brute_force_on_random_libraries():
    rng = np.random.default_rng(314)
    for trial in range(100):
        n = int(rng.integers(1, 201))
        d = int(rng.integers(2, 17))
        library = _random_unit_rows(rng, n, d)
        if trial % 3 == 0:
            # duplicated rows: exact distance ties, broken by library index
            library = library[rng.integers(0, n, size=n)]
        # k > N in about a quarter of the trials
        k = int(rng.integers(1, 8)) if trial % 4 else n + int(rng.integers(1, 4))
        queries = _random_unit_rows(rng, int(rng.integers(1, 25)), d)
        if trial % 5 == 0:
            # a query on a library row, so its nearest distances tie at zero
            queries[0] = library[int(rng.integers(n))]
        single = []
        for query in queries:
            got = _score_one(query, library, k)
            want_score, want_mean, want_nearest = _brute_force(query, library, k)
            assert abs(got[1] - want_mean) < 1e-12
            assert abs(got[0] - want_score) < 1e-12
            assert got[2].tolist() == want_nearest
            single.append(got)
        # one block scores every query exactly as it scores alone
        _assert_rows_equal(score(queries, library, k=k), single)


@pytest.mark.parametrize("rows", [1, 3, 8])
def test_block_boundaries_leave_every_score_unchanged(monkeypatch, rows):
    rng = np.random.default_rng(rows)
    library = np.vstack([_random_unit_rows(rng, 50, 64)] * 2)
    queries = _random_unit_rows(rng, 20, 64)
    single = [_score_one(q, library, DEFAULT_K) for q in queries]
    monkeypatch.setattr(knn, "_BLOCK_BYTES", rows * library.nbytes)
    _assert_rows_equal(score(queries, library, k=DEFAULT_K), single)


def test_the_default_block_holds_8_rows_of_a_50_by_64_library():
    assert knn._BLOCK_BYTES // (50 * 64 * 8) == 8


def test_a_block_names_its_first_non_unit_row():
    rng = np.random.default_rng(12)
    library = _random_unit_rows(rng, 10, 4)
    queries = _random_unit_rows(rng, 5, 4)
    for bad, value in ((2, 3.0), (4, np.nan), (0, 0.0)):
        block = queries.copy()
        block[bad] *= value
        block[-1] *= 2.0
        with pytest.raises(LibraryError, match=f"^query {bad} has norm"):
            score(block, library, k=5)
    scores, means, nearest = score(queries[:0], library, k=5)
    assert scores.shape == means.shape == (0,)
    assert nearest.shape == (0, 5)


def test_score_bounds_for_unit_norm_inputs():
    rng = np.random.default_rng(2)
    library = _random_unit_rows(rng, 50, 8)
    for _ in range(200):
        s, _, _ = _score_one(_random_unit_rows(rng, 1, 8)[0], library, 5)
        assert 1.0 / 3.0 - 1e-12 <= s <= 1.0 + 1e-12


def test_duplicate_of_library_vectors_scores_exactly_one():
    rng = np.random.default_rng(4)
    base = _random_unit_rows(rng, 1, 6)[0]
    vectors = np.stack([base] * 5 + list(_random_unit_rows(rng, 10, 6)))
    s, mean, nearest = _score_one(base, vectors, 5)
    assert s == 1.0
    assert mean == 0.0
    assert nearest.tolist() == [0, 1, 2, 3, 4]


def test_orthonormal_library_gives_the_closed_form_score():
    _, mean, _ = _score_one(np.eye(6)[0], np.eye(6), 5)
    # a library member: one zero distance and four sqrt(2) distances
    assert abs(mean - 4 * np.sqrt(2.0) / 5.0) < 1e-12
    # a query orthogonal to every member sits at sqrt(2) from all of them
    library7 = np.hstack([np.eye(6), np.zeros((6, 1))])
    q = np.zeros(7)
    q[6] = 1.0
    s, _, _ = _score_one(q, library7, 5)
    assert abs(s - 1.0 / (1.0 + np.sqrt(2.0))) < 1e-12
    assert abs(s - 0.41421) < 5e-6


def test_exact_distance_ties_break_by_ascending_library_index():
    base = np.array([1.0, 0.0])
    vectors = np.stack([[0.0, 1.0], [0.0, -1.0], [0.0, 1.0], [-1.0, 0.0],
                        [0.0, -1.0]])
    vectors = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    _, _, nearest = _score_one(base, vectors, 2)
    assert nearest.tolist() == [0, 1]


def test_k_larger_than_library_uses_every_member():
    rng = np.random.default_rng(6)
    library = _random_unit_rows(rng, 3, 5)
    query = _random_unit_rows(rng, 1, 5)[0]
    _, mean, nearest = _score_one(query, library, 10)
    assert len(nearest) == 3
    assert abs(mean - np.linalg.norm(library - query, axis=1).mean()) < 1e-12


def test_adding_a_library_vector_never_increases_the_mean_distance():
    rng = np.random.default_rng(8)
    query = _random_unit_rows(rng, 1, 6)[0]
    vectors = _random_unit_rows(rng, 30, 6)
    for extra in _random_unit_rows(rng, 10, 6):
        grown = np.vstack([vectors, extra[None, :]])
        assert _score_one(query, grown, 5)[1] \
            <= _score_one(query, vectors, 5)[1] + 1e-12


def test_non_unit_queries_are_rejected():
    rng = np.random.default_rng(10)
    library = _random_unit_rows(rng, 20, 4)
    query = _random_unit_rows(rng, 1, 4)[0]
    _, _, unit = _score_one(query, library, 5)
    assert _score_one(query * (1.0 + 5e-7), library, 5)[2].tolist() \
        == unit.tolist()
    for scale in (7.5, 1.0 + 2e-6, 1.0 - 2e-6, 0.0):
        with pytest.raises(LibraryError):
            score((query * scale)[None], library, k=5)


def test_encoded_texts_score_in_row_order():
    texts = ["three oranges two kiwis", "two oranges two kiwis",
             "four oranges one kiwi"]
    vocab = build_vocabulary(texts)
    table = activation_table(
        init_params(len(vocab), dim=8, rng=np.random.default_rng(0)))
    library = encode_texts(texts, table, vocab)
    assert library.shape == (3, 8)
    assert np.allclose(np.linalg.norm(library, axis=1), 1.0)
    scores, _, nearest = score(encode_texts(texts, table, vocab), library, k=1)
    # every training text is its own nearest neighbor
    assert nearest.tolist() == [[0], [1], [2]]
    assert scores.tolist() == [1.0, 1.0, 1.0]


def test_score_file_round_trip(tmp_path):
    counts = get_scenario("sticks").counts
    artifacts = pipeline.generate_task(pipeline.PipelineConfig(), "sticks",
                                       Condition.WHITE_BG, counts)
    test, _ = artifacts.split("test")
    rng = np.random.default_rng(1)
    library = _random_unit_rows(rng, counts.train_normal, 4)
    scores, means, nearest = score(_random_unit_rows(rng, len(test), 4),
                                   library, k=DEFAULT_K)
    pipeline.write_score_file(tmp_path, artifacts, scores, means, nearest)

    read_scores, read_labels = pipeline.read_score_file(tmp_path, "sticks",
                                                        Condition.WHITE_BG)
    # bit for bit: a float's repr reads back as the same float
    assert [s.hex() for s in read_scores] == [s.hex() for s in scores.tolist()]
    assert read_labels == [s.label for s in test]
    lines = (tmp_path / "sticks-white_bg.scores.jsonl").read_text().splitlines()
    i = next(i for i, s in enumerate(test) if s.label == Label.SINGLE_A)
    assert json.loads(lines[i]) == {
        "task_id": "sticks-white_bg", "sample_id": test[i].sample_id,
        "label": "singleA", "score": scores[i].item(),
        "mean_distance": means[i].item(),
        "neighbor_ids": [f"train-normal-{j:04d}" for j in nearest[i].tolist()],
    }
