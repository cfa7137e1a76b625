"""Contrastive loss identities, analytic gradients vs. finite differences,
clipping, Adam behavior and the training loop."""

import time
import tracemalloc

import numpy as np
import pytest

from logicad import trainer
from logicad.encoder import (
    EncoderParams,
    build_vocabulary,
    init_params,
)
from logicad.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MASK_BLOCK,
    AdamState,
    BatchMasks,
    TokenRows,
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


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _random_unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _global_norm(grads):
    return float(np.linalg.norm(grads.flat))


def test_symmetric_single_pair_loss_is_ln2():
    a = _unit([1.0, 0.0])[None, :]
    loss, per_anchor, _ = nt_xent(a, a.copy(), a.copy(), temperature=0.5)
    assert abs(loss - np.log(2.0)) < 1e-12
    assert abs(per_anchor[0] - np.log(2.0)) < 1e-12


def test_antipodal_negative_closed_form():
    a = np.array([[1.0, 0.0]])
    n = np.array([[-1.0, 0.0]])
    loss, _, _ = nt_xent(a, a.copy(), n, temperature=0.5)
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
        _, per_anchor, _ = nt_xent(anchors, positives, negatives, tau)
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
        _, per_anchor, _ = nt_xent(anchors, positives, negatives, 0.5)
        assert np.all(per_anchor >= 0.0)


def test_nonfinite_similarities_raise():
    a = np.array([[1.0, np.nan]])
    with pytest.raises(TrainingError):
        nt_xent(a, a.copy(), a.copy(), 0.5)


def test_analytic_gradients_match_central_finite_differences():
    start = time.monotonic()
    vocab = build_vocabulary(POS_TEXTS + NEG_TEXTS)
    params = init_params(len(vocab), dim=8, rng=np.random.default_rng(4))
    batch = TokenRows.build([*POS_TEXTS, *POS_TEXTS, *NEG_TEXTS], vocab)
    masks = BatchMasks.sample(int(batch.lengths.sum()) * 8, 0.1,
                              np.random.default_rng(0))
    scratch = params.zeros_like()

    def loss_at(p):
        return batch_step(batch, p, masks, 0.5, scratch)

    grads = params.zeros_like()
    batch_step(batch, params, masks, 0.5, grads)
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
    params = init_params(5, dim=4, rng=np.random.default_rng(0))
    grads = params.zeros_like()
    grads.embedding += 3.0
    grads.proj_w -= 1.0
    grads.proj_b += 0.5
    unclipped = grads.flat.copy()
    before = _global_norm(grads)
    assert before > 1.0
    returned = clip_gradients(grads, 1.0)
    assert abs(returned - before) < 1e-12
    assert _global_norm(grads) <= 1.0 + 1e-9
    # one factor scales all three arrays, so the direction is kept
    assert np.array_equal(grads.flat, unclipped * (1.0 / returned))

    small = params.zeros_like()
    small.proj_b += 1e-3
    unclipped = small.flat.copy()
    assert abs(clip_gradients(small, 1.0) - 1e-3 * np.sqrt(4)) < 1e-15
    assert np.array_equal(small.flat, unclipped)


def test_the_clip_norm_adds_the_three_per_array_sums_in_order():
    rng = np.random.default_rng(8)
    for _ in range(20):
        # V = 50, D = 16; one sum over ``flat`` differs in 6 of these draws
        grads = EncoderParams(rng.normal(size=50 * 16 + 16 * 16 + 16) * 1e-3, 16)
        want = np.sqrt(float((grads.embedding ** 2).sum())
                       + float((grads.proj_w ** 2).sum())
                       + float((grads.proj_b ** 2).sum()))
        assert clip_gradients(grads, 1e3) == want


def test_params_grads_and_moments_share_one_flat_layout():
    params = init_params(5, dim=4, rng=np.random.default_rng(0))
    grads = params.zeros_like()
    state = AdamState.zeros_like(params)
    size = 5 * 4 + 4 * 4 + 4
    assert params.flat.size == grads.flat.size == state.m.size == size
    assert not grads.flat.any()
    for holder in (params, params.copy(), grads):
        views = (holder.embedding, holder.proj_w, holder.proj_b)
        assert [v.shape for v in views] == [(5, 4), (4, 4), (4,)]
        assert all(np.shares_memory(v, holder.flat) for v in views)
        assert np.array_equal(np.concatenate([v.ravel() for v in views]),
                              holder.flat)
    assert not np.shares_memory(params.copy().flat, params.flat)
    assert not np.shares_memory(grads.flat, params.flat)


def test_adam_with_zero_gradient_applies_pure_decoupled_decay():
    params = init_params(4, dim=4, rng=np.random.default_rng(2))
    reference = params.copy()
    cfg = TrainConfig(learning_rate=0.1, weight_decay=0.01)
    adam_update(params, params.zeros_like(), AdamState.zeros_like(params), cfg)
    assert np.allclose(params.embedding, reference.embedding * (1 - 0.1 * 0.01))
    assert np.allclose(params.proj_w, reference.proj_w * (1 - 0.1 * 0.01))


def test_flat_adam_equals_a_per_array_adam_bit_for_bit():
    rng = np.random.default_rng(3)
    params = init_params(6, dim=4, rng=np.random.default_rng(3))
    arrays = [a.copy() for a in params.arrays()]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in arrays]
    state = AdamState.zeros_like(params)
    cfg = TrainConfig(learning_rate=0.05, weight_decay=0.01)
    for t in range(1, 4):
        grads = EncoderParams(rng.normal(size=params.flat.size), params.dim)
        adam_update(params, grads, state, cfg)
        for target, grad, (m, v) in zip(arrays, grads.arrays(), moments):
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * grad * grad
            target -= cfg.learning_rate * (
                m / (1 - ADAM_BETA1 ** t)
                / (np.sqrt(v / (1 - ADAM_BETA2 ** t)) + ADAM_EPS)
                + cfg.weight_decay * target)
    assert state.step == 3
    for got, want in zip(params.arrays(), arrays):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", sorted({1, 65_535, 65_536, 65_537, MASK_BLOCK - 1,
                                      MASK_BLOCK, MASK_BLOCK + 1, 200_000}))
def test_the_block_draw_equals_one_float_draw_and_takes_the_same_stream(n):
    for rate in (0.1, 0.3, 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53):
        blocks, floats = np.random.default_rng(n), np.random.default_rng(n)
        dropped = BatchMasks.sample(n, rate, blocks).dropped
        assert np.array_equal(dropped, np.flatnonzero(floats.random(n) < rate))
        assert blocks.bit_generator.state == floats.bit_generator.state


@pytest.mark.parametrize("rate", [0.1, 0.0, 0.5, 2.0 ** -53])
def test_masks_carry_the_rate_they_were_drawn_at(rate):
    assert BatchMasks.sample(1_000, rate, np.random.default_rng(0)).rate == rate


def test_a_mask_draw_over_524288_entries_peaks_under_2_mib():
    # a float grid of the same entries alone would take 4 MiB
    n = 524_288
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        masks = BatchMasks.sample(n, 0.1, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n > 4 * MASK_BLOCK and masks.dropped.size > 0
    assert peak < 2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_fit_is_seed_deterministic_and_loss_decreases():
    vocab = build_vocabulary(POS_TEXTS + NEG_TEXTS)
    pos = POS_TEXTS * 8
    neg = NEG_TEXTS * 8
    cfg = TrainConfig(epochs=8, batch_size=4)
    a_params, a_losses = fit(pos, neg, vocab, cfg,
                             init_params(len(vocab), dim=16,
                                         rng=np.random.default_rng(5)),
                             np.random.default_rng(5))
    b_params, b_losses = fit(pos, neg, vocab, cfg,
                             init_params(len(vocab), dim=16,
                                         rng=np.random.default_rng(5)),
                             np.random.default_rng(5))
    assert a_losses == b_losses
    assert np.allclose(a_params.embedding, b_params.embedding)
    assert a_losses[-1] < a_losses[0]


def test_zero_learning_rate_leaves_params_unchanged_with_flat_curve(
        monkeypatch):
    monkeypatch.setattr(trainer, "DROPOUT_RATE", 0.0)
    vocab = build_vocabulary(POS_TEXTS + NEG_TEXTS)
    pos = POS_TEXTS * 4
    neg = NEG_TEXTS * 4
    init = init_params(len(vocab), dim=8, rng=np.random.default_rng(1))
    cfg = TrainConfig(epochs=6, batch_size=len(pos), learning_rate=0.0,
                      weight_decay=0.0)
    params, losses = fit(pos, neg, vocab, cfg, init,
                         np.random.default_rng(1))
    assert np.array_equal(params.embedding, init.embedding)
    assert np.array_equal(params.proj_w, init.proj_w)
    # flat curve: only float summation order varies across epochs
    assert max(losses) - min(losses) < 1e-12


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(temperature=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
