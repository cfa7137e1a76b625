"""Reference library of training embeddings and the kNN normality score.

The score of a test embedding is S = 1 / (1 + mean distance to its k
nearest reference embeddings).  Queries must be unit-norm, as
``encode_texts`` rows are (any other raises ``LibraryError``), so
distances are bounded by 2 and S lies in [1/3, 1].  Ties at the k-th
distance are broken by ascending library index so exactly min(k, N)
neighbors are selected.  ``pipeline`` writes the scores to the score file
and reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, Vocabulary, encode_texts

DEFAULT_K = 5


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


def score(test_vector: np.ndarray, library: ReferenceLibrary,
          k: int) -> NormalityScore:
    """kNN normality score of one embedding against the reference library."""
    if k < 1:
        raise ValueError("k must be >= 1")
    z = np.asarray(test_vector, dtype=np.float64)
    norm = float(np.linalg.norm(z))
    if abs(norm - 1.0) > 1e-6:
        raise LibraryError(f"query embedding has norm {norm!r}, not 1")
    distances = np.linalg.norm(library.vectors - z, axis=1)
    n_neighbors = min(k, library.size)
    # Stable sort keeps ascending-index order among exact distance ties.
    order = np.argsort(distances, kind="stable")[:n_neighbors]
    mean_distance = float(distances[order].mean())
    return NormalityScore(
        score=1.0 / (1.0 + mean_distance),
        mean_distance=mean_distance,
        neighbor_ids=tuple(library.ids[i] for i in order),
    )


def score_split(test_texts: list[str], params: EncoderParams,
                vocab: Vocabulary, library: ReferenceLibrary,
                k: int) -> list[NormalityScore]:
    """Deterministic encode then score, order-preserving."""
    return [score(z, library, k)
            for z in encode_texts(test_texts, params, vocab)]

