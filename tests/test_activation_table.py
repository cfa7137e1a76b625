"""The activation-table encoder against a per-text reference.

The reference below encodes one text at a time from its token rows and
backpropagates each text separately with a scatter-add onto the embedding,
which is the textbook form of embed -> linear -> tanh -> dropout -> mean ->
L2.  The vectorised trainer and scorer must agree with it to 1e-12.
"""

import numpy as np
import pytest

from logicad import pipeline, scenarios, scenes
from logicad.encoder import (
    EncodeError,
    EncoderParams,
    activation_table,
    encode_texts,
    init_params,
    tokenize,
)
from logicad.trainer import (
    DROPOUT_RATE,
    AdamState,
    BatchMasks,
    TokenRows,
    TrainConfig,
    adam_update,
    batch_step,
    clip_gradients,
    fit,
    nt_xent,
)

TOL = 1e-12


def _reference_forward(token_ids, params, mask=None):
    x = params.embedding[token_ids]
    act = np.tanh(x @ params.proj_w.T + params.proj_b)
    pooled = (act if mask is None else act * mask).mean(axis=0)
    norm = float(np.linalg.norm(pooled))
    return dict(ids=token_ids, x=x, act=act, mask=mask, norm=norm,
                z=pooled / norm)


def _reference_backward(d_z, cache, params, grads):
    z = cache["z"]
    d_pooled = (d_z - z * float(z @ d_z)) / cache["norm"]
    d_act = np.broadcast_to(d_pooled / len(cache["ids"]), cache["act"].shape)
    if cache["mask"] is not None:
        d_act = d_act * cache["mask"]
    d_pre = d_act * (1.0 - cache["act"] ** 2)
    grads.proj_w += d_pre.T @ cache["x"]
    grads.proj_b += d_pre.sum(axis=0)
    np.add.at(grads.embedding, cache["ids"], d_pre @ params.proj_w)


def _reference_step(pos_tokens, neg_tokens, params, masks, temperature):
    """Per-text forward and backward with per-text inverted-dropout masks."""
    anc = [_reference_forward(t, params, m) for t, m in zip(pos_tokens, masks[0])]
    pos = [_reference_forward(t, params, m) for t, m in zip(pos_tokens, masks[1])]
    neg = [_reference_forward(t, params, m) for t, m in zip(neg_tokens, masks[2])]
    views = [np.stack([c["z"] for c in caches]) for caches in (anc, pos, neg)]
    loss, _, d_z = nt_xent(*views, temperature)
    # d_z stacks the anchors, positives and negatives, in that order
    d_views = np.split(d_z, [len(anc), len(anc) + len(pos)])
    assert [len(d) for d in d_views] == [len(anc), len(pos), len(neg)]
    grads = params.zeros_like()
    for caches, d_view in zip((anc, pos, neg), d_views):
        for cache, d_text in zip(caches, d_view):
            _reference_backward(d_text, cache, params, grads)
    return loss, grads


def make_dropout_mask(n_tokens, dim, rate, rng):
    """Inverted-dropout mask: zeros with probability ``rate``, else 1/(1-rate).

    A zero rate keeps everything and draws nothing from ``rng``.
    """
    if rate == 0.0:
        return np.ones((n_tokens, dim))
    return (rng.random((n_tokens, dim)) >= rate) / (1.0 - rate)


def test_inverted_dropout_mask_is_unbiased():
    rng = np.random.default_rng(5)
    mask = make_dropout_mask(2000, 8, 0.3, rng)
    assert set(np.round(np.unique(mask), 12)) <= {0.0, round(1 / 0.7, 12)}
    assert abs(mask.mean() - 1.0) < 0.02
    assert np.all(make_dropout_mask(10, 4, 0.0, rng) == 1.0)


def _batch(pos_texts, neg_texts, vocab):
    """Anchors, positives (the same texts again) and negatives, as fit stacks them."""
    return TokenRows.build([*pos_texts, *pos_texts, *neg_texts], vocab)


def _per_text_masks(pos_tokens, neg_tokens, dim, rate, rng):
    return [
        [make_dropout_mask(len(t), dim, rate, rng) for t in pos_tokens],
        [make_dropout_mask(len(t), dim, rate, rng) for t in pos_tokens],
        [make_dropout_mask(len(t), dim, rate, rng) for t in neg_tokens],
    ]


@pytest.fixture(scope="module")
def task_texts():
    config = pipeline.PipelineConfig(master_seed=0)
    artifacts = pipeline.generate_task(config, "sticks", scenes.Condition.MESH_BG,
                                       scenarios.SCENARIOS["sticks"].counts)
    return (artifacts.split("train")[1], [n.text for n in artifacts.negatives],
            artifacts.vocabulary)


@pytest.mark.parametrize("rate", [0.1, 0.0, 0.5])
def test_vectorised_step_matches_the_per_text_reference(task_texts, rate):
    pos, neg, vocab = task_texts
    pos_tokens = [tokenize(t, vocab) for t in pos]
    neg_tokens = [tokenize(t, vocab) for t in neg]
    rng = np.random.default_rng(9)
    for trial, batch in enumerate((16, 5, 1)):
        idx = rng.permutation(len(pos_tokens))[:batch]
        batch_pos = [pos_tokens[i] for i in idx]
        batch_neg = [neg_tokens[i] for i in idx]
        params = init_params(len(vocab), dim=32,
                             rng=np.random.default_rng(trial))
        batch = _batch([pos[i] for i in idx], [neg[i] for i in idx], vocab)
        masks = BatchMasks.sample(int(batch.lengths.sum()) * 32, rate,
                                  np.random.default_rng(trial))
        ref_masks = _per_text_masks(batch_pos, batch_neg, 32, rate,
                                    np.random.default_rng(trial))
        # stale values in the buffer must not survive the step
        grads = EncoderParams(np.full_like(params.flat, np.nan), params.dim)
        loss = batch_step(batch, params, masks, 0.5, grads)
        ref_loss, ref_grads = _reference_step(batch_pos, batch_neg, params,
                                              ref_masks, 0.5)
        assert abs(loss - ref_loss) < TOL
        for got, want in zip(grads.arrays(), ref_grads.arrays()):
            assert np.abs(got - want).max() < TOL


def test_one_mask_draw_equals_the_per_text_draws(task_texts):
    pos, neg, vocab = task_texts
    pos_tokens = [tokenize(t, vocab) for t in pos[:7]]
    neg_tokens = [tokenize(t, vocab) for t in neg[:7]]
    rng_batch, rng_texts = np.random.default_rng(4), np.random.default_rng(4)
    n = int(_batch(pos[:7], neg[:7], vocab).lengths.sum()) * 16
    masks = BatchMasks.sample(n, 0.1, rng_batch)
    per_text = _per_text_masks(pos_tokens, neg_tokens, 16, 0.1, rng_texts)
    grid = np.concatenate([m for view in per_text for m in view])
    assert masks.dropped.size > 0
    assert np.array_equal(masks.dropped, np.flatnonzero(grid == 0))
    # both generators stand at the same place in the stream afterwards
    assert rng_batch.random() == rng_texts.random()


def test_a_zero_rate_drops_nothing_and_draws_nothing():
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    masks = BatchMasks.sample(200_000, 0.0, rng)
    assert masks.dropped.size == 0
    assert rng.bit_generator.state == before


def test_a_text_with_every_entry_dropped_has_no_direction(task_texts):
    pos, neg, vocab = task_texts
    pos_tokens = [tokenize(t, vocab) for t in pos[:3]]
    neg_tokens = [tokenize(t, vocab) for t in neg[:3]]
    params = init_params(len(vocab), dim=16, rng=np.random.default_rng(2))
    # the first anchor's rows lead the grid
    masks = BatchMasks(np.arange(len(pos_tokens[0]) * 16), DROPOUT_RATE)
    with pytest.raises(EncodeError):
        batch_step(_batch(pos[:3], neg[:3], vocab), params, masks,
                   0.5, params.zeros_like())


def test_fit_matches_a_per_text_reference_loop(task_texts):
    pos, neg, vocab = task_texts
    cfg, seed = TrainConfig(epochs=2), 7
    got_params, got_losses = fit(
        pos, neg, vocab, cfg,
        init_params(len(vocab), dim=64, rng=np.random.default_rng(seed)),
        np.random.default_rng(seed))

    pos_tokens = [tokenize(t, vocab) for t in pos]
    neg_tokens = [tokenize(t, vocab) for t in neg]
    params = init_params(len(vocab), dim=64, rng=np.random.default_rng(seed))
    state = AdamState.zeros_like(params)
    rng = np.random.default_rng(seed)
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(pos_tokens))
        step_losses = []
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_pos = [pos_tokens[i] for i in idx]
            batch_neg = [neg_tokens[i] for i in idx]
            masks = _per_text_masks(batch_pos, batch_neg, params.dim,
                                    DROPOUT_RATE, rng)
            loss, grads = _reference_step(batch_pos, batch_neg, params, masks,
                                          cfg.temperature)
            clip_gradients(grads, cfg.clip_norm)
            adam_update(params, grads, state, cfg)
            step_losses.append(loss)
        epoch_losses.append(float(np.mean(step_losses)))

    assert len(got_losses) == cfg.epochs
    assert np.abs(np.subtract(got_losses, epoch_losses)).max() < TOL
    for got, want in zip((got_params.embedding, got_params.proj_w,
                          got_params.proj_b),
                         (params.embedding, params.proj_w, params.proj_b)):
        assert np.abs(got - want).max() < TOL


def test_batched_library_equals_per_text_encodings(task_texts):
    pos, neg, vocab = task_texts
    texts = pos + neg + ["an utterly unknown sentence"]
    params = init_params(len(vocab), dim=64, rng=np.random.default_rng(3))
    table = activation_table(params)
    library = encode_texts(texts, table, vocab)
    assert library.shape == (len(texts), 64)
    for text, row in zip(texts, library):
        assert np.abs(row - encode_texts([text], table, vocab)[0]).max() < TOL
        want = _reference_forward(tokenize(text, vocab), params)["z"]
        assert np.abs(row - want).max() < TOL
