"""Encoder forward pass and dropout statistics."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logicad import pipeline
from logicad.encoder import (
    UNKNOWN_ID,
    EncodeError,
    TokenRows,
    activation_table,
    build_vocabulary,
    encode_texts,
    init_params,
    tokenize,
)
from logicad.scenes import Condition, SplitCounts
from logicad.trainer import TrainConfig, fit

TEXTS = [
    "There are three oranges and two kiwis.",
    "The total number of items is five.",
    "Two long blue sticks sit beside one short red stick.",
]


def _setup(dim=16, seed=0):
    vocab = build_vocabulary(TEXTS)
    return vocab, init_params(len(vocab), dim=dim,
                              rng=np.random.default_rng(seed))


def test_vocabulary_is_sorted_and_reserves_unknown():
    vocab = build_vocabulary(["b a", "c a"])
    assert vocab == {"<unk>": 0, "a": 1, "b": 2, "c": 3}
    assert tokenize("zzz", vocab).tolist() == [UNKNOWN_ID]


def test_tokenize_lowercases_and_maps_oov_to_unknown():
    vocab = build_vocabulary(["alpha beta"])
    ids = tokenize("Alpha GAMMA beta!", vocab)
    assert ids.tolist() == [vocab["alpha"], UNKNOWN_ID, vocab["beta"]]
    assert tokenize("...", vocab).tolist() == []


def _oracle_tokens(text):
    """The token rule as a regex: maximal runs of a-z, 0-9, _ and '."""
    return re.findall(r"[a-z0-9_']+", text.lower())


def _check_tokenize_matches_the_regex(text):
    tokens = _oracle_tokens(text)
    own = build_vocabulary([text])
    assert set(own) == {"<unk>", *tokens}
    for vocab in (own, build_vocabulary(TEXTS)):
        want = [vocab.get(t, UNKNOWN_ID) for t in tokens]
        assert tokenize(text, vocab).tolist() == want


@pytest.mark.parametrize("text", [
    "İstanbul",           # lowercases to i + a combining dot above
    "ﬀ",                  # a ligature that lower() keeps
    "a\x1cb",             # a separator that str.split() also splits on
    "Alpha GAMMA beta!",
    "don't stop_it 42x",
    "...",
    "",
])
def test_tokenize_matches_the_regex_rule_on_fixed_cases(text):
    _check_tokenize_matches_the_regex(text)


@settings(max_examples=300)
@given(st.text())
def test_tokenize_matches_the_regex_rule_on_any_text(text):
    _check_tokenize_matches_the_regex(text)


@given(st.lists(st.text(alphabet="ab C'_9.\u0130", max_size=6), max_size=8))
def test_vocabulary_of_repeated_texts_equals_that_of_distinct_texts(texts):
    repeated = texts + texts[::-1] + texts[:1]
    assert build_vocabulary(repeated) == build_vocabulary(sorted(set(texts)))
    assert build_vocabulary(iter(repeated)) == build_vocabulary(texts)


def test_token_rows_of_repeated_texts_equal_per_text_tokenize():
    vocab = build_vocabulary(TEXTS[:2])
    # repeats, a text with unknown tokens, and one that differs only in case
    texts = [TEXTS[0], TEXTS[1], TEXTS[0], TEXTS[2], TEXTS[0].upper(),
             TEXTS[1], TEXTS[2]]
    rows = TokenRows.build(texts, vocab)
    want_tokens = [tokenize(t, vocab) for t in texts]
    keys = np.repeat(np.arange(len(texts)) * len(vocab),
                     [len(t) for t in want_tokens]) + np.concatenate(want_tokens)
    want_counts = np.zeros((len(texts), len(vocab)))
    np.add.at(want_counts.ravel(), keys, 1.0)
    assert len(rows.tokens) == len(texts)
    for got, want in zip(rows.tokens, want_tokens):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert rows.lengths.tolist() == [len(t) for t in want_tokens]
    assert rows.counts.dtype == np.float64
    assert np.array_equal(rows.counts, want_counts)
    assert rows.counts[:, UNKNOWN_ID].tolist() == [0, 0, 0, 9, 0, 0, 9]
    # the rows of a repeat are copies: changing one leaves the others alone
    rows.counts[0] = -1.0
    assert np.array_equal(rows.counts[2], want_counts[2])


def test_token_rows_of_no_texts_are_empty():
    vocab = build_vocabulary(TEXTS)
    rows = TokenRows.build([], vocab)
    assert rows.tokens == [] and rows.lengths.shape == (0,)
    assert rows.counts.shape == (0, len(vocab))


def test_deterministic_encoding_is_unit_norm_and_repeatable():
    vocab, params = _setup()
    for text in TEXTS:
        z1 = encode_texts([text], activation_table(params), vocab)[0]
        z2 = encode_texts([text], activation_table(params), vocab)[0]
        assert np.allclose(z1, z2)
        assert abs(np.linalg.norm(z1) - 1.0) < 1e-12


def test_a_text_with_no_token_is_refused_by_encoding_and_training():
    vocab, params = _setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EncodeError, match=r"text '\.\.\.' holds no token"):
            encode_texts(["a", "..."], activation_table(params), vocab)
        with pytest.raises(EncodeError, match=r"text '\.\.\.' holds no token"):
            fit([TEXTS[0], "..."], TEXTS[1:], vocab, TrainConfig(epochs=1),
                params, np.random.default_rng(0))


def test_single_token_text_encodes():
    vocab, params = _setup()
    z = encode_texts(["oranges"], activation_table(params), vocab)[0]
    assert abs(np.linalg.norm(z) - 1.0) < 1e-12


def test_init_params_shapes_and_dim_floor():
    params = init_params(7, dim=4, rng=np.random.default_rng(1))
    assert params.embedding.shape == (7, 4)
    assert params.proj_w.shape == (4, 4)
    assert np.all(params.proj_b == 0.0)
    # the floor is the run's: a config of dim 1 is refused before any params
    with pytest.raises(ValueError, match="embedding dimension must be >= 2"):
        pipeline.PipelineConfig(dim=1)


def test_a_checkpoint_table_loads_only_at_the_runs_shape(tmp_path):
    config = pipeline.PipelineConfig(
        scenario_ids=("tapes",), conditions=(Condition.WHITE_BG,),
        train=TrainConfig(epochs=1, batch_size=8), dim=4, skip_training=True)
    artifacts = pipeline.generate_task(config, "tapes", Condition.WHITE_BG,
                                       SplitCounts(8, 0, 0, 0, 0))
    trained, _ = pipeline.train_task(config, artifacts)
    path = tmp_path / "task.ckpt.npz"
    pipeline.save_checkpoint(path, trained, config, artifacts)
    table = pipeline.load_checkpoint(path, config, artifacts)
    assert table.shape == (len(artifacts.vocabulary), 4)
    assert table.tobytes() == trained.tobytes()
    data = dict(np.load(path, allow_pickle=False))
    for bad in (table[:, :3], table[:-1], table.ravel(), table[:1, :1],
                table[None]):
        np.savez(path, **dict(data, table=bad))
        with pytest.raises(ValueError, match=re.escape(
                f"table is not a {table.shape} array of finite floats")):
            pipeline.load_checkpoint(path, config, artifacts)


def test_init_params_fill_one_buffer_in_draw_order():
    params = init_params(7, dim=4, rng=np.random.default_rng(1))
    for array in params.arrays():
        assert np.shares_memory(array, params.flat)
    # one draw per array, the embedding first, takes the same stream
    rng = np.random.default_rng(1)
    embedding = rng.uniform(-0.5, 0.5, size=(7, 4))
    proj_w = rng.uniform(-0.5, 0.5, size=(4, 4))
    assert params.embedding.tobytes() == embedding.tobytes()
    assert params.proj_w.tobytes() == proj_w.tobytes()
