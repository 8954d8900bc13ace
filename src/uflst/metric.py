"""Pairwise distances, (reciprocal) neighbor sets and the Jaccard matrix.

The neighbor-set distance is defined on squared Euclidean distances in
embedding space; two points are close in the Jaccard sense when their
mutual-nearest-neighbor sets overlap heavily.

The chain never holds an N x N array: distances and kNN lists are built
in cache-sized row blocks that share one buffer, and the Jaccard matrix
is kept as the edge list of its pairs below 1, of which there are at
most N k^2 / 2.  A block is a few memory-bound passes over its
distances, so its size, not the GEMM, sets the speed: on a 2-core
x86_64 box with one BLAS thread, the `rays-4k` benchmark trains in a
median 0.83 s at 61 MB peak RSS, against 1.28 s and 172 MB with
32 MB blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryWarning, InputError

# Distance entries per row block in `build_jaccard` (4 MB of float64).  In
# a sweep from 1 << 17 to 1 << 22 (random 16-d, k=20, one BLAS thread),
# 1 << 18 to 1 << 20 were within noise of each other at N = 1k, 4k and
# 16k; at 4k they beat 1 << 22 by 10-25%.  Blocks below 16 rows were
# slow when every block recomputed the N norms (at 32k, 1 << 18 took
# 17.6 s and 1 << 19 14.2 s); with the norms taken once per build, small
# blocks have not been measured again.
BLOCK_ENTRIES = 1 << 19


@dataclass(frozen=True)
class JaccardMatrix:
    """Jaccard distances of n points as an upper-triangle edge list.

    Only the pairs rows[e] < cols[e] whose distance dist[e] is below 1 are
    stored, sorted by (row, col).  Every other off-diagonal pair is at
    exactly 1, and the diagonal is 0.
    """
    n: int
    rows: np.ndarray
    cols: np.ndarray
    dist: np.ndarray

    @property
    def values(self):
        """The dense n x n matrix, for small-N checks and tracing."""
        out = np.ones((self.n, self.n))
        out[self.rows, self.cols] = self.dist
        out[self.cols, self.rows] = self.dist
        np.fill_diagonal(out, 0.0)
        return out


def sq_distances(a, b, out=None, b_norms=None):
    """Squared Euclidean distance between every row of `a` and every row of
    `b`, clamped at 0 against cancellation.  Stacked (..., rows, D) inputs
    give each stack entry the bits of its own 2-D call.  The one distance
    helper: re-ranking, few-shot eval, hard mining and the prototype
    training loss all call it.

    The bits are those of `max((|a|^2 + |b|^2) - 2 (a b^T), 0)`, with
    |b|^2 read from `b_norms` when given, which must then be
    `np.sum(b * b, axis=-1)`: a caller looping over row blocks of `a`
    against one `b` takes them once.  `out`, when given, receives the
    distances, so such a caller can reuse one buffer too."""
    dist = np.matmul(a, np.swapaxes(b, -1, -2), out=out)
    dist *= 2.0
    if b_norms is None:
        b_norms = np.sum(b * b, axis=-1)
    np.subtract(np.sum(a * a, axis=-1)[..., :, None]
                + b_norms[..., None, :], dist, out=dist)
    np.maximum(dist, 0.0, out=dist)
    return dist


def prototypes(blocks, n_s):
    """The (..., n_c, D) prototypes of stacked (..., n_c, n_e, D) episode
    blocks whose first n_s columns are the support.  The support is added
    to 0 column by column, not pairwise as a width-n_s `np.mean` would,
    and then divided by n_s, so each prototype has the bits of its class's
    row-order mean."""
    protos = 0.0
    for j in range(n_s):
        protos = protos + blocks[..., j, :]
    return protos / n_s


def label_groups(labels):
    """The row indices of each distinct label, labels in ascending order and
    rows ascending within each: `[np.flatnonzero(labels == c) for c in
    np.unique(labels)]` from one stable sort."""
    order = np.argsort(labels, kind="stable")
    _, starts = np.unique(labels[order], return_index=True)
    return np.split(order, starts)[1:]


def _check_finite(values):
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise InputError("embeddings contain non-finite values")
    return values


def pairwise_sq_euclidean(values):
    """Full N x N squared-distance matrix; symmetric, zero diagonal."""
    values = _check_finite(values)
    dist = sq_distances(values, values)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def knn_sets(dist, k, start=0):
    """Ordered k-nearest-neighbor lists, self excluded, index tie-break.

    `dist` holds rows start, start+1, ... of the N x N distance matrix
    (all of it by default); the result is a (rows, k) index array.  k is
    clamped to N-1 with a warning when too large.
    """
    dist = np.asarray(dist, dtype=np.float64)
    b, n = dist.shape
    if k >= n:
        warnings.warn(f"k={k} clamped to {n - 1} for N={n} points")
        k = n - 1
    if k <= 0:
        return np.empty((b, 0), dtype=np.intp)
    # The k nearest others are among the entries at or below the (k+1)-th
    # smallest value of the row, self included; ties at that value all
    # stay, so the index tie-break sees every candidate.
    kth = np.partition(dist, k, axis=1)[:, k]
    flat = np.flatnonzero(dist <= kth[:, None])
    if flat.size == b * (k + 1):
        # No ties at the k-th value: every row holds exactly k+1
        # candidates, in ascending column order.  When self is one of
        # them, the other k are the list, and a stable sort by distance
        # keeps the index tie-break.
        cols = flat.reshape(b, k + 1) % n
        other = cols != (start + np.arange(b))[:, None]
        if np.count_nonzero(other) == b * k:
            cols = cols[other].reshape(b, k)
            order = np.argsort(np.take_along_axis(dist, cols, axis=1),
                               axis=1, kind="stable")
            return np.take_along_axis(cols, order, axis=1)
    rows, cols = np.divmod(flat, n)
    other = cols != rows + start
    rows, cols = rows[other], cols[other]
    order = np.lexsort((cols, dist[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    first = rank < k
    knn = np.empty((b, k), dtype=np.intp)
    knn[rows[first], rank[first]] = cols[first]
    return knn


def k_reciprocal_sets(knn):
    """Mutual-membership filter: keep j in knn[i] only if i is in knn[j].

    Returns the ascending set R_i of every point.
    """
    knn = np.asarray(knn, dtype=np.intp)
    n, k = knn.shape
    # pair (i, j) as the key i*n + j; sorting the keys sorts by (i, j)
    keys = np.sort(np.repeat(np.arange(n), k) * n + knn.ravel())
    rows, cols = np.divmod(keys, n)
    mutual = np.isin(cols * n + rows, keys, assume_unique=True)
    cols = cols[mutual]
    sizes = np.bincount(rows[mutual], minlength=n)
    return [cols[end - size:end]
            for end, size in zip(np.cumsum(sizes), sizes)]


def jaccard_matrix(reciprocal):
    """1 - |R_a cap R_b| / |R_a cup R_b| for every pair, as the edges below 1.

    Reciprocity is symmetric, so m lies in R_a and in R_b exactly when a
    and b both lie in R_m: counting how often each pair occurs inside the
    sets R_m gives every non-empty intersection.  The pairs that occur
    nowhere are disjoint or both empty, and sit at 1.
    """
    n = len(reciprocal)
    sizes = np.array([len(r) for r in reciprocal], dtype=np.int64)
    members = np.concatenate([np.empty(0, dtype=np.int64), *reciprocal])
    starts = np.cumsum(sizes) - sizes
    keys = [np.empty(0, dtype=np.int64)]
    for s in np.unique(sizes[sizes >= 2]):
        sets = np.sort(members[starts[sizes == s][:, None] + np.arange(s)],
                       axis=1)
        a, b = np.triu_indices(s, k=1)
        keys.append((sets[:, a] * n + sets[:, b]).ravel())
    keys, inter = np.unique(np.concatenate(keys), return_counts=True)
    rows, cols = np.divmod(keys, n)
    union = sizes[rows] + sizes[cols] - inter
    return JaccardMatrix(n=n, rows=rows, cols=cols, dist=1.0 - inter / union)


def build_jaccard(embeddings, k):
    """Distances -> knn -> reciprocal -> Jaccard, in row blocks.

    Each block holds about BLOCK_ENTRIES squared distances in one buffer
    reused by every block, so memory stays O(N k^2 + block) however
    large N grows, and the N squared norms are taken once for all blocks:
    at N = 16k (random 16-d, k=20) this takes 2.0-2.2 s, and with epsilon
    and DBSCAN the process peaks at 117 MB.  The block size changes no
    output bit.
    """
    emb = _check_finite(embeddings)
    n = emb.shape[0]
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    buf = np.empty((min(step, n), n))
    norms = np.sum(emb * emb, axis=-1)
    blocks = []
    coincide = n > 1
    for start in range(0, n, step):
        rows = emb[start:start + step]
        dist = sq_distances(rows, emb, buf[:len(rows)], norms)
        local = np.arange(dist.shape[0])
        dist[local, start + local] = 0.0
        coincide = coincide and not dist.any()
        blocks.append(knn_sets(dist, k, start))
    if coincide:
        warnings.warn(
            "all embeddings coincide; neighbor sets are pure index "
            "tie-breaks",
            DegenerateGeometryWarning,
        )
    knn = np.concatenate(blocks) if blocks else np.empty((0, 0), np.intp)
    return jaccard_matrix(k_reciprocal_sets(knn))
