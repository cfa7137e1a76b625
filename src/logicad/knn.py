"""The kNN normality score of a block of embeddings against a reference set.

``score`` takes arrays and returns arrays: a (B, D) block of query rows and
an (N, D) library, and back the scores, the mean distances and the
(B, min(k, N)) indices of each row's nearest library rows, nearest first.
The score of a row is S = 1 / (1 + mean distance to its k nearest library
rows).  Both arrays are ``encode_texts`` rows, which are unit-norm, so
distances are bounded by 2 and S lies in [1/3, 1].  ``PipelineConfig``
refuses ``k < 1``, and every library is a task's train split.  The
block's (B, N) distances are filled a few rows at a time, so that the
(rows, N, D) squared differences stay within a fixed budget, and then
ranked in one sort; each row's distances, order and mean are those of
scoring it alone, bit for bit.
Ties at the k-th distance are broken by ascending library index so exactly
min(k, N) neighbors are selected.  ``pipeline`` encodes the splits, names
the neighbors by sample id and writes the score file.
"""

from __future__ import annotations

import numpy as np

DEFAULT_K = 5
# bytes of the (rows, N, D) squared differences ``score`` holds at a time:
# 8 rows at N = 50, D = 64
_BLOCK_BYTES = 200 * 1024


def score(queries: np.ndarray, library: np.ndarray, k: int
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(scores, mean distances, neighbor indices) of a (B, D) block, in row order."""
    distances = np.empty((len(queries), len(library)))
    rows = max(1, _BLOCK_BYTES // library.nbytes)
    # one buffer serves every block, so each step allocates no large array
    buf = np.empty((min(rows, len(queries)),) + library.shape)
    for start in range(0, len(queries), rows):
        block = queries[start:start + rows, None]
        sq = np.subtract(library, block, out=buf[:len(block)])
        sq *= sq
        distances[start:start + rows] = np.sqrt(np.add.reduce(sq, axis=-1))
    # Stable sort keeps ascending-index order among exact distance ties;
    # sorting, gathering and the mean all work row by row.
    nearest = np.argsort(distances, axis=1, kind="stable")[:, :k]
    means = np.take_along_axis(distances, nearest, axis=1).mean(axis=1)
    return 1.0 / (1.0 + means), means, nearest
