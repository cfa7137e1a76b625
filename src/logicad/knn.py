"""Reference library of training embeddings and the kNN normality score.

The score of a test embedding is S = 1 / (1 + mean distance to its k
nearest reference embeddings).  Queries must be unit-norm, as
``encode_texts`` rows are (any other raises ``LibraryError``), so
distances are bounded by 2 and S lies in [1/3, 1].  ``score`` ranks a
(B, D) block of queries, a few rows at a time so that the (rows, N, D)
squared differences stay within a fixed budget; each row's distances,
order and mean are those of scoring it alone, bit for bit.  Ties at the
k-th distance are broken by ascending library index so exactly min(k, N)
neighbors are selected.  ``pipeline`` writes the scores to the score file
and reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, Vocabulary, encode_texts

DEFAULT_K = 5
# bytes of the (rows, N, D) squared differences ``score`` holds at a time:
# 8 rows at N = 50, D = 64
_BLOCK_BYTES = 200 * 1024


class LibraryError(ValueError):
    pass


@dataclass(frozen=True)
class ReferenceLibrary:
    vectors: np.ndarray  # (N, D), unit rows
    ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.ids) != self.vectors.shape[0]:
            raise LibraryError("ids and vectors are misaligned")
        if self.vectors.shape[0] < 1:
            raise LibraryError("reference library is empty")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class NormalityScore:
    score: float
    mean_distance: float
    neighbor_ids: tuple[str, ...]


def build_library(train_texts: list[str], params: EncoderParams,
                  vocab: Vocabulary, ids: list[str]) -> ReferenceLibrary:
    """Deterministic (dropout-free) encodings of every training text, in order."""
    if not train_texts:
        raise LibraryError("cannot build a library from an empty train set")
    return ReferenceLibrary(vectors=encode_texts(train_texts, params, vocab),
                            ids=tuple(ids))


def score(queries: np.ndarray, library: ReferenceLibrary,
          k: int) -> list[NormalityScore]:
    """kNN normality scores of a (B, D) block of embeddings, in row order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = np.asarray(queries, dtype=np.float64)
    norms = np.linalg.norm(queries, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-6))
    if bad.size:
        raise LibraryError(f"query {bad[0]} has norm {float(norms[bad[0]])!r}, "
                           "not 1")
    n_neighbors = min(k, library.size)
    rows = max(1, _BLOCK_BYTES // library.vectors.nbytes)
    # one buffer serves every block, so each step allocates no large array
    buf = np.empty((min(rows, len(queries)),) + library.vectors.shape)
    results = []
    for start in range(0, len(queries), rows):
        block = queries[start:start + rows, None]
        sq = np.subtract(library.vectors, block, out=buf[:len(block)])
        sq *= sq
        distances = np.sqrt(np.add.reduce(sq, axis=-1))
        # Stable sort keeps ascending-index order among exact distance ties.
        order = np.argsort(distances, axis=1, kind="stable")[:, :n_neighbors]
        means = np.take_along_axis(distances, order, axis=1).mean(axis=1)
        results.extend(
            NormalityScore(score=1.0 / (1.0 + mean), mean_distance=mean,
                           neighbor_ids=tuple(library.ids[i] for i in nearest))
            for mean, nearest in zip(means.tolist(), order.tolist()))
    return results


def score_split(test_texts: list[str], params: EncoderParams,
                vocab: Vocabulary, library: ReferenceLibrary,
                k: int) -> list[NormalityScore]:
    """Deterministic encode then score, order-preserving."""
    return score(encode_texts(test_texts, params, vocab), library, k)

