"""Contrastive fine-tuning of the text encoder.

The objective is an InfoNCE/NT-Xent style loss: for anchor i, one positive
(a second stochastic encoding of the same text) against the batch's
synthesized negatives.  The normalizer for anchor i contains the positive
pair plus ALL negatives of the batch; other anchors' positives are not
used as negatives.  Updates are Adam with decoupled weight decay and
global gradient-norm clipping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import (
    EncoderGrads,
    EncoderParams,
    Vocabulary,
    activation_table,
    normalize_rows,
    table_grads,
    token_counts,
    tokenize,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Non-finite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    temperature: float = 0.5
    learning_rate: float = 5e-3
    weight_decay: float = 1e-5
    clip_norm: float = 1.0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip norm must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be >= 0")


def nt_xent(anchors: np.ndarray, positives: np.ndarray, negatives: np.ndarray,
            temperature: float) -> tuple[float, np.ndarray]:
    """Loss over a batch of unit vectors; returns (mean, per-anchor losses).

    per_anchor[i] = -log( exp(s(a_i,p_i)/t) /
                          (exp(s(a_i,p_i)/t) + sum_j exp(s(a_i,n_j)/t)) )
    computed with max-subtraction for stability.
    """
    logits = _logits(anchors, positives, negatives, temperature)
    if not np.all(np.isfinite(logits)):
        raise TrainingError("non-finite similarity in contrastive batch")
    m = logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]
    per_anchor = logsumexp - logits[:, 0]
    return float(per_anchor.mean()), per_anchor


def _logits(anchors, positives, negatives, temperature):
    pos_sim = (anchors * positives).sum(axis=1, keepdims=True)
    neg_sim = anchors @ negatives.T
    return np.concatenate([pos_sim, neg_sim], axis=1) / temperature


def nt_xent_embedding_grads(anchors, positives, negatives, temperature):
    """Gradients of the mean loss w.r.t. the three embedding matrices."""
    batch = anchors.shape[0]
    logits = _logits(anchors, positives, negatives, temperature)
    m = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - m)
    q = expd / expd.sum(axis=1, keepdims=True)
    coef = 1.0 / (batch * temperature)
    d_anchors = coef * ((q[:, :1] - 1.0) * positives + q[:, 1:] @ negatives)
    d_positives = coef * (q[:, :1] - 1.0) * anchors
    d_negatives = coef * (q[:, 1:].T @ anchors)
    return d_anchors, d_positives, d_negatives


@dataclass
class BatchMasks:
    """Frozen dropout for one step, as the positions it zeroes.

    ``dropped`` holds flat indices into the (sum of token counts, D) grid over
    the anchor, positive and negative views, in that order.  They come from
    one draw over the whole grid, which takes the same random stream as one
    draw per text; a zero rate draws nothing.
    """

    dropped: np.ndarray

    @classmethod
    def sample(cls, pos_tokens, neg_tokens, dim, rate, rng):
        if rate == 0.0:
            return cls(dropped=np.empty(0, dtype=np.intp))
        n_rows = (2 * sum(len(t) for t in pos_tokens)
                  + sum(len(t) for t in neg_tokens))
        return cls(dropped=np.flatnonzero(rng.random((n_rows, dim)) < rate))


def clip_gradients(grads: EncoderGrads, clip_norm: float) -> float:
    """Scale gradients in place so the global norm is at most ``clip_norm``."""
    norm = grads.global_norm()
    if norm > clip_norm:
        grads.scale(clip_norm / norm)
    return norm


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "AdamState":
        arrays = (params.embedding, params.proj_w, params.proj_b)
        return cls([np.zeros_like(a) for a in arrays],
                   [np.zeros_like(a) for a in arrays])


def adam_update(params: EncoderParams, grads: EncoderGrads, state: AdamState,
                cfg: TrainConfig) -> None:
    """Decoupled-weight-decay Adam step, applied in place."""
    state.step += 1
    t = state.step
    targets = (params.embedding, params.proj_w, params.proj_b)
    for target, grad, m, v in zip(targets, grads.arrays(), state.m, state.v):
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1 - ADAM_BETA2) * grad * grad
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        target -= cfg.learning_rate * (
            m_hat / (np.sqrt(v_hat) + ADAM_EPS) + cfg.weight_decay * target
        )


@dataclass
class FitResult:
    params: EncoderParams
    epoch_losses: list[float]


def fit(
    pos_texts: list[str],
    neg_texts: list[str],
    vocab: Vocabulary,
    cfg: TrainConfig,
    init: EncoderParams,
    seed: int,
) -> FitResult:
    """Contrastive training over (positive, negative) text pairs from ``init``.

    ``seed`` drives the batch order and the dropout masks.
    """
    if len(pos_texts) != len(neg_texts):
        raise ValueError("positive/negative lists must be index-aligned")
    if not pos_texts:
        raise ValueError("no training pairs")
    params = init.copy()
    pos_tokens = [tokenize(t, vocab) for t in pos_texts]
    neg_tokens = [tokenize(t, vocab) for t in neg_texts]

    rng = np.random.default_rng(seed)
    state = AdamState.zeros_like(params)
    n = len(pos_tokens)
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        step_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_pos = [pos_tokens[i] for i in idx]
            batch_neg = [neg_tokens[i] for i in idx]
            masks = BatchMasks.sample(batch_pos, batch_neg, params.dim,
                                      params.dropout_rate, rng)
            loss, grads = batch_step(batch_pos, batch_neg, params, masks,
                                     cfg.temperature)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {len(epoch_losses)}, "
                    f"step {start // cfg.batch_size}"
                )
            clip_gradients(grads, cfg.clip_norm)
            adam_update(params, grads, state, cfg)
            step_losses.append(loss)
        epoch_losses.append(float(np.mean(step_losses)))
    return FitResult(params=params, epoch_losses=epoch_losses)


def batch_step(
    pos_tokens: list[np.ndarray],
    neg_tokens: list[np.ndarray],
    params: EncoderParams,
    masks: BatchMasks,
    temperature: float,
) -> tuple[float, EncoderGrads]:
    """Forward + exact analytic backward for one contrastive step.

    Each text pools ``counts @ table`` over the step's activation table, less
    the entries dropout zeroed; the backward pass is the transpose of both
    terms, so only the dropped positions are visited one by one.
    """
    texts = [*pos_tokens, *pos_tokens, *neg_tokens]
    lengths = np.array([len(t) for t in texts])
    table = activation_table(params)
    n_ids, dim = table.shape
    counts = token_counts(texts, n_ids)
    # flat (text, d) and (id, d) keys of every dropped (token row, d)
    row, d = np.divmod(masks.dropped, dim)
    at_text = np.repeat(np.arange(len(texts)) * dim, lengths)[row] + d
    at_table = np.concatenate(texts)[row] * dim + d
    lost = np.bincount(at_text, weights=table.ravel()[at_table],
                       minlength=len(texts) * dim)
    # inverted dropout and the mean over each text's tokens, in one factor
    scale = (1.0 / ((1.0 - params.dropout_rate) * lengths))[:, None]
    # a text with every entry dropped keeps only rounding residue, far below
    # the zero-norm threshold, so it raises as the dense pooling did
    z, norms = normalize_rows(
        (counts @ table - lost.reshape(-1, dim)) * scale)
    b = len(pos_tokens)
    anchors, positives, negatives = z[:b], z[b:2 * b], z[2 * b:]

    loss, _ = nt_xent(anchors, positives, negatives, temperature)
    d_z = np.concatenate(nt_xent_embedding_grads(
        anchors, positives, negatives, temperature))

    d_pooled = (d_z - z * (z * d_z).sum(axis=1, keepdims=True)) / norms[:, None]
    d_scaled = d_pooled * scale
    d_lost = np.bincount(at_table, weights=d_scaled.ravel()[at_text],
                         minlength=n_ids * dim)
    grads = table_grads(counts.T @ d_scaled - d_lost.reshape(n_ids, dim),
                        table, params)
    if not all(np.all(np.isfinite(a)) for a in grads.arrays()):
        raise TrainingError("non-finite gradient")
    return loss, grads
