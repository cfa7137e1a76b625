"""Contrastive loss identities, analytic gradients vs. finite differences,
clipping, Adam behavior and the training loop."""

import time

import numpy as np
import pytest

from logicad.encoder import (
    EncoderGrads,
    Vocabulary,
    init_params,
    tokenize,
)
from logicad.trainer import (
    AdamState,
    BatchMasks,
    TrainConfig,
    TrainingError,
    adam_update,
    batch_step,
    clip_gradients,
    fit,
    nt_xent,
)

POS_TEXTS = [
    "There are three oranges and two kiwis.",
    "The total number of items is five.",
]
NEG_TEXTS = [
    "There are five oranges and two kiwis.",
    "The total number of items is three.",
]


def _zero_grads(params):
    return EncoderGrads(np.zeros_like(params.embedding),
                        np.zeros_like(params.proj_w),
                        np.zeros_like(params.proj_b))


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _random_unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def test_symmetric_single_pair_loss_is_ln2():
    a = _unit([1.0, 0.0])[None, :]
    loss, per_anchor = nt_xent(a, a.copy(), a.copy(), temperature=0.5)
    assert abs(loss - np.log(2.0)) < 1e-12
    assert abs(per_anchor[0] - np.log(2.0)) < 1e-12


def test_antipodal_negative_closed_form():
    a = np.array([[1.0, 0.0]])
    n = np.array([[-1.0, 0.0]])
    loss, _ = nt_xent(a, a.copy(), n, temperature=0.5)
    # logits 2 and -2, so the loss is log(1 + e^-4)
    assert abs(loss - np.log1p(np.exp(-4.0))) < 1e-12


def test_loss_matches_naive_unstabilized_formula():
    rng = np.random.default_rng(12)
    for _ in range(50):
        b, m, d = int(rng.integers(1, 6)), int(rng.integers(1, 8)), 6
        anchors = _random_unit_rows(rng, b, d)
        positives = _random_unit_rows(rng, b, d)
        negatives = _random_unit_rows(rng, m, d)
        tau = float(rng.uniform(0.2, 1.5))
        _, per_anchor = nt_xent(anchors, positives, negatives, tau)
        for i in range(b):
            pos = np.exp(float(anchors[i] @ positives[i]) / tau)
            negs = np.exp(anchors[i] @ negatives.T / tau).sum()
            naive = -np.log(pos / (pos + negs))
            assert abs(per_anchor[i] - naive) < 1e-10


def test_per_anchor_loss_is_nonnegative_over_many_random_batches():
    rng = np.random.default_rng(777)
    for _ in range(10_000):
        anchors = _random_unit_rows(rng, 4, 8)
        positives = _random_unit_rows(rng, 4, 8)
        negatives = _random_unit_rows(rng, 6, 8)
        _, per_anchor = nt_xent(anchors, positives, negatives, 0.5)
        assert np.all(per_anchor >= 0.0)


def test_nonfinite_similarities_raise():
    a = np.array([[1.0, np.nan]])
    with pytest.raises(TrainingError):
        nt_xent(a, a.copy(), a.copy(), 0.5)


def test_analytic_gradients_match_central_finite_differences():
    start = time.monotonic()
    vocab = Vocabulary.build(POS_TEXTS + NEG_TEXTS)
    params = init_params(vocab.size, dim=8, seed=4)
    pos_tokens = [tokenize(t, vocab) for t in POS_TEXTS]
    neg_tokens = [tokenize(t, vocab) for t in NEG_TEXTS]
    masks = BatchMasks.sample(pos_tokens, neg_tokens, 8, 0.1,
                              np.random.default_rng(0))

    def loss_at(p):
        return batch_step(pos_tokens, neg_tokens, p, masks, 0.5)[0]

    _, grads = batch_step(pos_tokens, neg_tokens, params, masks, 0.5)
    h = 1e-5
    worst = 0.0
    for target, grad in zip(
        (params.embedding, params.proj_w, params.proj_b), grads.arrays()
    ):
        it = np.nditer(target, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = target[idx]
            target[idx] = original + h
            up = loss_at(params)
            target[idx] = original - h
            down = loss_at(params)
            target[idx] = original
            fd = (up - down) / (2.0 * h)
            rel = abs(fd - grad[idx]) / max(1e-3, abs(fd))
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert worst <= 1e-4, f"max relative gradient error {worst:.3e}"
    assert elapsed < 5.0, f"gradient check took {elapsed:.1f}s"


def test_clipping_caps_the_global_norm_and_leaves_small_gradients_alone():
    params = init_params(5, dim=4, seed=0)
    grads = _zero_grads(params)
    grads.embedding += 3.0
    before = grads.global_norm()
    assert before > 1.0
    returned = clip_gradients(grads, 1.0)
    assert abs(returned - before) < 1e-12
    assert grads.global_norm() <= 1.0 + 1e-9

    small = _zero_grads(params)
    small.proj_b += 1e-3
    norm = small.global_norm()
    clip_gradients(small, 1.0)
    assert abs(small.global_norm() - norm) < 1e-15


def test_adam_with_zero_gradient_applies_pure_decoupled_decay():
    params = init_params(4, dim=4, seed=2)
    reference = params.copy()
    cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01)
    adam_update(params, _zero_grads(params), AdamState.zeros_like(params), cfg)
    assert np.allclose(params.embedding, reference.embedding * (1 - 0.1 * 0.01))
    assert np.allclose(params.proj_w, reference.proj_w * (1 - 0.1 * 0.01))


def test_fit_is_seed_deterministic_and_loss_decreases():
    vocab = Vocabulary.build(POS_TEXTS + NEG_TEXTS)
    pos = POS_TEXTS * 8
    neg = NEG_TEXTS * 8
    cfg = TrainConfig(epochs=8, batch_size=4)
    a = fit(pos, neg, vocab, cfg, init_params(vocab.size, dim=16, seed=5), 5)
    b = fit(pos, neg, vocab, cfg, init_params(vocab.size, dim=16, seed=5), 5)
    assert a.epoch_losses == b.epoch_losses
    assert np.allclose(a.params.embedding, b.params.embedding)
    assert a.epoch_losses[-1] < a.epoch_losses[0]


def test_zero_learning_rate_leaves_params_unchanged_with_flat_curve():
    vocab = Vocabulary.build(POS_TEXTS + NEG_TEXTS)
    pos = POS_TEXTS * 4
    neg = NEG_TEXTS * 4
    init = init_params(vocab.size, dim=8, seed=1, dropout_rate=0.0)
    cfg = TrainConfig(epochs=6, batch_size=len(pos), learning_rate=0.0,
                      weight_decay=0.0)
    result = fit(pos, neg, vocab, cfg, init, 1)
    assert np.array_equal(result.params.embedding, init.embedding)
    assert np.array_equal(result.params.proj_w, init.proj_w)
    # flat curve: only float summation order varies across epochs
    assert max(result.epoch_losses) - min(result.epoch_losses) < 1e-12


def test_fit_rejects_misaligned_or_empty_pairs():
    vocab = Vocabulary.build(POS_TEXTS)
    init = init_params(vocab.size, dim=8, seed=0)
    with pytest.raises(ValueError):
        fit(POS_TEXTS, NEG_TEXTS[:1], vocab, TrainConfig(), init, 0)
    with pytest.raises(ValueError):
        fit([], [], vocab, TrainConfig(), init, 0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(temperature=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
