"""Pairwise distances, (reciprocal) neighbor sets and the Jaccard matrix.

The neighbor-set distance is defined on squared Euclidean distances in
embedding space; two points are close in the Jaccard sense when their
mutual-nearest-neighbor sets overlap heavily.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryWarning, InputError

@dataclass
class JaccardMatrix:
    values: np.ndarray


def sq_distances(a, b):
    """Squared Euclidean distance between every row of `a` and every row of
    `b`, clamped at 0 against cancellation."""
    dist = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
            - 2.0 * (a @ b.T))
    np.maximum(dist, 0.0, out=dist)
    return dist


def pairwise_sq_euclidean(values):
    """Full N x N squared-distance matrix; symmetric, zero diagonal."""
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise InputError("embeddings contain non-finite values")
    dist = sq_distances(values, values)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def knn_sets(dist, k):
    """Ordered k-nearest-neighbor lists, self excluded, index tie-break.

    k is clamped to N-1 with a warning when too large.
    """
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if k >= n:
        warnings.warn(f"k={k} clamped to {n - 1} for N={n} points")
        k = n - 1
    knn = []
    if k <= 0:
        return [np.empty(0, dtype=np.intp) for _ in range(n)]
    idx = np.arange(n)
    for i in range(n):
        order = np.lexsort((idx, dist[i]))
        order = order[order != i]
        knn.append(order[:k].copy())
    return knn


def k_reciprocal_sets(knn):
    """Mutual-membership filter: keep j in knn[i] only if i is in knn[j]."""
    n = len(knn)
    member = np.zeros((n, n), dtype=bool)
    for i, nb in enumerate(knn):
        member[i, nb] = True
    mutual = member & member.T
    return [np.flatnonzero(mutual[i]) for i in range(n)]


def jaccard_matrix(reciprocal):
    """1 - |R_i cap R_j| / |R_i cup R_j| for every pair.

    Empty-union pairs are maximally dissimilar (1) off the diagonal and 0
    on it.
    """
    n = len(reciprocal)
    member = np.zeros((n, n))
    for i, r in enumerate(reciprocal):
        member[i, r] = 1.0
    sizes = member.sum(axis=1)
    inter = member @ member.T
    union = sizes[:, None] + sizes[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        values = 1.0 - inter / union
    values[union == 0] = 1.0
    np.fill_diagonal(values, 0.0)
    return JaccardMatrix(values=values)


def build_jaccard(embeddings, k):
    """Convenience chain: distances -> knn -> reciprocal -> Jaccard."""
    dist = pairwise_sq_euclidean(embeddings)
    if dist.shape[0] > 1 and np.all(dist == 0.0):
        warnings.warn(
            "all embeddings coincide; neighbor sets are pure index "
            "tie-breaks",
            DegenerateGeometryWarning,
        )
    knn = knn_sets(dist, k)
    reciprocal = k_reciprocal_sets(knn)
    return jaccard_matrix(reciprocal)
