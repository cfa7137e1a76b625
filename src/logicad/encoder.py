"""Tiny trainable text encoder: embed, project, tanh, dropout, mean-pool, L2.

Dropout comes after tanh, so a text pools rows of one per-id activation
table.  Encoding is deterministic, a pure function of (text, table): no
dropout, ``normalize(counts @ table / T)``.  Training draws its dropout in
``trainer.BatchMasks`` and backpropagates onto the same table.  Both hold
their texts as one ``TokenRows``: token ids, id counts and lengths.

A token is a maximal run of a-z, 0-9, ``_`` and ``'`` in the lowercased
text; every other character separates tokens.  ``build_vocabulary`` (a
token -> id dict) and ``TokenRows.build`` tokenize each distinct text once.

``EncoderParams`` checks no shape: ``init_params`` makes its buffer and only
the trainer reads it.  Scoring, and a checkpoint, hold the table alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

UNKNOWN_ID = 0
UNKNOWN_TOKEN = "<unk>"
_NORM_EPS = 1e-12


class _Separators(dict):
    """str.translate table: token characters map to themselves, any other
    code point to a space."""

    def __missing__(self, code: int) -> str:
        return " "


_SPLIT = _Separators((ord(c), c)
                     for c in "abcdefghijklmnopqrstuvwxyz0123456789_'")


def _tokens(text: str) -> list[str]:
    return text.lower().translate(_SPLIT).split()


class EncodeError(ValueError):
    pass


def build_vocabulary(texts: Iterable[str]) -> dict[str, int]:
    """Token -> id: ``<unk>`` is 0, the tokens of ``texts`` follow sorted."""
    tokens = set()
    for text in set(texts):
        tokens.update(_tokens(text))
    vocab = {UNKNOWN_TOKEN: UNKNOWN_ID}
    for i, token in enumerate(sorted(tokens), start=1):
        vocab[token] = i
    return vocab


def tokenize(text: str, vocab: dict[str, int]) -> np.ndarray:
    """The ids of the tokens of ``text``; OOV tokens map to UNKNOWN."""
    get = vocab.get
    return np.array([get(t, UNKNOWN_ID) for t in _tokens(text)],
                    dtype=np.int64)


@dataclass(eq=False)
class EncoderParams:
    """The embedding (V, D), projection (D, D) and bias (D,) arrays, as views
    into one flat buffer in that order, so one pass can update all three.
    Gradients share the layout."""

    flat: np.ndarray
    dim: int

    def __post_init__(self):
        cut = self.flat.size - self.dim * (self.dim + 1)
        self.embedding = self.flat[:cut].reshape(-1, self.dim)
        self.proj_w = self.flat[cut:-self.dim].reshape(self.dim, self.dim)
        self.proj_b = self.flat[-self.dim:]

    def arrays(self):
        return (self.embedding, self.proj_w, self.proj_b)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.flat.copy(), self.dim)

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(np.zeros_like(self.flat), self.dim)


def init_params(vocab_size: int, dim: int,
                rng: np.random.Generator) -> EncoderParams:
    """Embedding and projection uniform in +-1/sqrt(dim), drawn from ``rng``
    in that order (one draw takes the stream two would), and a zero bias."""
    flat = np.zeros((vocab_size + dim + 1) * dim)
    scale = 1.0 / np.sqrt(dim)
    flat[:-dim] = rng.uniform(-scale, scale, size=flat.size - dim)
    return EncoderParams(flat, dim)


@np.errstate(over="ignore", invalid="ignore")  # refused below, not warned
def activation_table(params: EncoderParams) -> np.ndarray:
    """(V, D) per-id activations tanh(E @ W.T + b).

    Dropout comes after tanh, so a token's activation depends only on its id
    and every text is a pooling of rows of this table.  A non-finite
    pre-activation raises EncodeError: tanh would hide it as +-1.
    """
    pre = params.embedding @ params.proj_w.T + params.proj_b
    if not np.all(np.isfinite(pre)):
        raise EncodeError("non-finite pre-activation")
    return np.tanh(pre)


def normalize_rows(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit rows and the norms they were divided by."""
    norms = np.linalg.norm(pooled, axis=1)
    if np.any(norms < _NORM_EPS):
        raise EncodeError("pooled representation has zero norm")
    return pooled / norms[:, None], norms


@dataclass
class TokenRows:
    """Texts as token ids, per-id count rows and lengths, row by row."""

    tokens: list[np.ndarray]
    counts: np.ndarray   # (texts, V) how often each id occurs in each text
    lengths: np.ndarray  # (texts,) tokens per text

    @classmethod
    def build(cls, texts: list[str], vocab: dict[str, int]) -> "TokenRows":
        """The rows of ``texts`` over ``vocab``; a repeated text is tokenized
        and counted once and its rows are copied.  A text with no token
        raises EncodeError: it has no mean to pool."""
        first: dict[str, int] = {}
        row_of = np.array([first.setdefault(t, len(first)) for t in texts],
                          dtype=np.intp)
        tokens = [tokenize(t, vocab) for t in first]
        for text, ids in zip(first, tokens):
            if not len(ids):
                raise EncodeError(f"text {text!r} holds no token")
        lengths = np.array([len(t) for t in tokens], dtype=np.int64)
        keys = np.repeat(np.arange(len(tokens)) * len(vocab), lengths)
        if tokens:
            keys += np.concatenate(tokens)
        counts = np.bincount(keys, minlength=len(tokens) * len(vocab))
        counts = counts.reshape(len(tokens), len(vocab)).astype(np.float64)
        return cls([tokens[i] for i in row_of], counts[row_of],
                   lengths[row_of])

    def take(self, rows: np.ndarray) -> "TokenRows":
        return TokenRows([self.tokens[i] for i in rows], self.counts[rows],
                         self.lengths[rows])


def encode_texts(texts: list[str], table: np.ndarray,
                 vocab: dict[str, int]) -> np.ndarray:
    """Deterministic encodings of many texts: normalize(counts @ table / T),
    ``table`` being the (V, D) ``activation_table`` of the encoder."""
    rows = TokenRows.build(texts, vocab)
    pooled = rows.counts @ table
    pooled /= rows.lengths[:, None]
    return normalize_rows(pooled)[0]


def table_grads(d_table: np.ndarray, table: np.ndarray, params: EncoderParams,
                grads: EncoderParams) -> None:
    """Write d(loss)/d(parameters) into ``grads``, given d(loss)/d(table)."""
    d_pre = d_table * (1.0 - table ** 2)
    np.matmul(d_pre, params.proj_w, out=grads.embedding)
    np.matmul(d_pre.T, params.embedding, out=grads.proj_w)
    d_pre.sum(axis=0, out=grads.proj_b)
