"""Contrastive fine-tuning of the text encoder.

The objective is an InfoNCE/NT-Xent style loss: for anchor i, one positive
(a second stochastic encoding of the same text) against the batch's
synthesized negatives.  The normalizer for anchor i contains the positive
pair plus ALL negatives of the batch; other anchors' positives are not
used as negatives.  Updates are Adam with decoupled weight decay and
global gradient-norm clipping.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .encoder import (
    EncoderParams,
    TokenRows,
    activation_table,
    normalize_rows,
    table_grads,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# training only: encoding is dropout-free
DROPOUT_RATE = 0.1
# (token, dim) entries per raw draw of a dropout mask.  Smaller blocks make
# the heap shrink and regrow every step: 65,536 took about 4x the page faults
MASK_BLOCK = 81_920


class TrainingError(RuntimeError):
    """A non-finite training step, or an encoder error while training a task."""


def require_integers(config, *names: str) -> None:
    """Refuse a config whose named field is not an integer (a bool is not)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 16
    temperature: float = 0.5
    learning_rate: float = 5e-3
    weight_decay: float = 1e-5
    clip_norm: float = 1.0

    def __post_init__(self):
        require_integers(self, "epochs", "batch_size")
        for name in ("temperature", "learning_rate", "weight_decay", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name.replace('_', ' ')} must be finite")
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
            temperature: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss over a batch of unit vectors and its gradient, from one softmax.

    Returns (mean, per-anchor losses, d(mean)/d(rows)), the last stacked as
    anchors, positives, negatives.

    per_anchor[i] = -log( exp(s(a_i,p_i)/t) /
                          (exp(s(a_i,p_i)/t) + sum_j exp(s(a_i,n_j)/t)) )
    computed with max-subtraction for stability.
    """
    pos_sim = (anchors * positives).sum(axis=1, keepdims=True)
    logits = np.concatenate([pos_sim, anchors @ negatives.T], axis=1) / temperature
    # finite logits give a finite loss, so no caller checks the loss again
    if not np.all(np.isfinite(logits)):
        raise TrainingError("non-finite similarity in contrastive batch")
    m = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - m)
    total = expd.sum(axis=1, keepdims=True)
    per_anchor = np.log(total[:, 0]) + m[:, 0] - logits[:, 0]
    q = expd / total
    coef = 1.0 / (anchors.shape[0] * temperature)
    d_z = np.concatenate([
        coef * ((q[:, :1] - 1.0) * positives + q[:, 1:] @ negatives),
        coef * (q[:, :1] - 1.0) * anchors,
        coef * (q[:, 1:].T @ anchors),
    ])
    return float(per_anchor.mean()), per_anchor, d_z


@dataclass
class BatchMasks:
    """Frozen dropout for one step, as the positions it zeroes and its rate.

    ``dropped`` holds flat indices into the (sum of token counts, D) grid over
    the anchor, positive and negative views, in that order.  They come from
    one draw over the whole grid, which takes the same random stream as one
    draw per text; a zero rate draws nothing.  ``rate`` is the rate they were
    drawn at, which the step's inverted-dropout scale reads.
    """

    dropped: np.ndarray
    rate: float

    @classmethod
    def sample(cls, n, rate, rng):
        """The entries of ``n`` that ``rng.random(n) < rate`` drops, in order.

        ``random()`` is ``(raw >> 11) * 2**-53`` of one raw 64-bit output, so
        it is below ``rate`` exactly when the raw output is below
        ``ceil(rate * 2**53) << 11``.  The raw outputs are drawn in blocks of
        ``MASK_BLOCK``, which takes the same stream with no float grid.
        """
        if rate == 0.0:
            return cls(np.empty(0, dtype=np.intp), rate)
        threshold = np.uint64(math.ceil(rate * 2.0 ** 53) << 11)
        parts = [np.empty(0, dtype=np.intp)]
        for start in range(0, n, MASK_BLOCK):
            raw = rng.bit_generator.random_raw(min(MASK_BLOCK, n - start))
            parts.append(np.flatnonzero(raw < threshold) + start)
            del raw  # the next block is allocated before ``raw`` is rebound
        return cls(np.concatenate(parts), rate)


def clip_gradients(grads: EncoderParams, clip_norm: float) -> float:
    """Scale gradients in place so the global norm is at most ``clip_norm``;
    returns the norm before scaling."""
    # three sums added in order: one sum over ``flat`` rounds differently
    norm = float(np.sqrt(sum(float((a * a).sum()) for a in grads.arrays())))
    if norm > clip_norm:
        grads.flat *= clip_norm / norm
    return norm


@dataclass
class AdamState:
    """First and second moments, laid out as ``EncoderParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, params: EncoderParams) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_update(params: EncoderParams, grads: EncoderParams, state: AdamState,
                cfg: TrainConfig) -> None:
    """Decoupled-weight-decay Adam step, in place over the flat buffers."""
    state.step += 1
    t = state.step
    target, grad, m, v = params.flat, grads.flat, state.m, state.v
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * grad * grad
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    target -= cfg.learning_rate * (
        m_hat / (np.sqrt(v_hat) + ADAM_EPS) + cfg.weight_decay * target
    )


# a step refuses a table, similarity or gradient that overflows, and the table
# of the last update is refused when built, so numpy's warnings only repeat it
@np.errstate(over="ignore", invalid="ignore")
def fit(
    pos_texts: list[str],
    neg_texts: list[str],
    vocab: dict[str, int],
    cfg: TrainConfig,
    init: EncoderParams,
    rng: np.random.Generator,
) -> tuple[EncoderParams, list[float]]:
    """Contrastive training over (positive, negative) text pairs from ``init``.

    Returns the trained parameters and the mean loss of each epoch.  ``rng``
    draws the batch order and the dropout masks, at ``DROPOUT_RATE``.
    """
    params = init.copy()
    n = len(pos_texts)
    # positives in rows 0..n-1, their negatives in rows n..2n-1
    texts = TokenRows.build(pos_texts + neg_texts, vocab)

    grads = params.zeros_like()
    state = AdamState.zeros_like(params)
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        step_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            # anchors, positives (the same texts again) and negatives
            batch = texts.take(np.concatenate([idx, idx, idx + n]))
            masks = BatchMasks.sample(int(batch.lengths.sum()) * params.dim,
                                      DROPOUT_RATE, rng)
            step_losses.append(batch_step(batch, params, masks,
                                          cfg.temperature, grads))
            clip_gradients(grads, cfg.clip_norm)
            adam_update(params, grads, state, cfg)
        epoch_losses.append(float(np.mean(step_losses)))
    return params, epoch_losses


def batch_step(batch: TokenRows, params: EncoderParams, masks: BatchMasks,
               temperature: float, grads: EncoderParams) -> float:
    """Forward + exact analytic backward for one contrastive step.

    ``batch`` holds the anchors, the positives and the negatives, one third
    each; the parameter gradients are written into ``grads``.  Each text
    pools ``counts @ table`` over the step's activation table, less the
    entries dropout zeroed; the backward pass is the transpose of both terms,
    so only the dropped positions are visited one by one.
    """
    lengths, counts = batch.lengths, batch.counts
    table = activation_table(params)
    n_ids, dim = table.shape
    # flat (text, d) and (id, d) keys of every dropped (token row, d)
    row, d = np.divmod(masks.dropped, dim)
    at_text = np.repeat(np.arange(len(lengths)) * dim, lengths)[row] + d
    at_table = np.concatenate(batch.tokens)[row] * dim + d
    lost = np.bincount(at_text, weights=table.ravel()[at_table],
                       minlength=len(lengths) * dim)
    # inverted dropout and the mean over each text's tokens, in one factor
    scale = (1.0 / ((1.0 - masks.rate) * lengths))[:, None]
    # a text with every entry dropped keeps only rounding residue, far below
    # the zero-norm threshold, so it raises as the dense pooling did
    z, norms = normalize_rows(
        (counts @ table - lost.reshape(-1, dim)) * scale)
    b = len(lengths) // 3
    loss, _, d_z = nt_xent(z[:b], z[b:2 * b], z[2 * b:], temperature)

    d_pooled = (d_z - z * (z * d_z).sum(axis=1, keepdims=True)) / norms[:, None]
    d_scaled = d_pooled * scale
    d_lost = np.bincount(at_table, weights=d_scaled.ravel()[at_text],
                         minlength=n_ids * dim)
    table_grads(counts.T @ d_scaled - d_lost.reshape(n_ids, dim), table,
                params, grads)
    if not np.all(np.isfinite(grads.flat)):
        raise TrainingError("non-finite gradient")
    return loss
