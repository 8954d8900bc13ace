"""Epsilon selection and deterministic DBSCAN over a precomputed matrix:
a dense one, or the edge list of a `metric.JaccardMatrix`."""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import metric
from .errors import (
    ConfigError,
    DegenerateGeometryWarning,
    EmptyClusteringError,
)

NOISE = -1


@dataclass
class DbscanConfig:
    ms: int = 4
    p_fraction: float = 0.02       # fraction of upper-triangle entries averaged for eps
    p_count: int = 0               # explicit P; overrides p_fraction when > 0
    epsilon_override: float = 0.0  # > 0 skips epsilon selection entirely

    def validate(self):
        if self.ms < 1:
            raise ConfigError("ms must be >= 1")
        if self.p_count < 0:
            raise ConfigError("p_count must be >= 0")
        if self.p_count == 0 and not (0 < self.p_fraction <= 1):
            raise ConfigError("p_fraction must lie in (0, 1]")
        if not self.epsilon_override >= 0:
            raise ConfigError("epsilon_override must be >= 0")

    def resolve_p(self, n):
        n_pairs = n * (n - 1) // 2
        if self.p_count > 0:
            return min(self.p_count, n_pairs)
        return max(1, int(round(self.p_fraction * n_pairs)))


@dataclass
class PseudoLabeledSet:
    kept_indices: np.ndarray
    labels: np.ndarray
    num_clusters: int
    outlier_indices: np.ndarray
    class_members: list = field(init=False)  # per label: kept original indices

    def __post_init__(self):
        self.class_members = [self.kept_indices[rows] for rows
                              in metric.label_groups(self.labels)]


def _pairs(values):
    """(n, rows, cols, dist): the upper-triangle pairs that `values` stores.

    A dense matrix (symmetric, zero diagonal) stores every pair.  A
    JaccardMatrix stores its pairs below 1; every pair it leaves out is at
    distance exactly 1.
    """
    if isinstance(values, metric.JaccardMatrix):
        return values.n, values.rows, values.cols, values.dist
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    rows, cols = np.triu_indices(n, k=1)
    return n, rows, cols, values[rows, cols]


def select_epsilon(values, p):
    """Mean of the P smallest upper-triangle distances.

    `values` is a dense matrix or a JaccardMatrix.
    """
    n, _, _, dist = _pairs(values)
    if n < 2:
        raise EmptyClusteringError("need at least two points to select epsilon")
    n_pairs = n * (n - 1) // 2
    implicit = n_pairs - dist.size   # pairs left out at exactly 1
    if implicit == 0 and not np.any(dist):
        warnings.warn(
            "all pairwise distances are zero; epsilon degenerates to 0",
            DegenerateGeometryWarning,
        )
        return 0.0
    pool = np.sort(dist)[: min(p, n_pairs)]
    # the implicit pairs at 1 sort after every stored edge
    pool = np.concatenate([pool, np.ones(min(p, n_pairs) - pool.size)])
    return float(np.mean(pool))


def _neighbourhoods(values, epsilon):
    """Sizes and ascending members of the `distance <= epsilon` sets.

    Returns (counts, neighbours): counts[i] is the size of point i's set,
    self included, and neighbours(i) lists its members.
    """
    n, rows, cols, dist = _pairs(values)
    if epsilon >= 1.0 and dist.size < n * (n - 1) // 2:
        # every left-out pair is at exactly 1: all points are neighbours
        everyone = np.arange(n)
        return np.full(n, n), lambda i: everyone
    near = dist <= epsilon
    src = np.concatenate([rows[near], cols[near]])
    dst = np.concatenate([cols[near], rows[near]])
    if epsilon >= 0:
        src = np.concatenate([src, np.arange(n)])
        dst = np.concatenate([dst, np.arange(n)])
    order = np.lexsort((dst, src))
    dst = dst[order]
    counts = np.bincount(src, minlength=n)
    ends = np.cumsum(counts)
    return counts, lambda i: dst[ends[i] - counts[i]:ends[i]]


def dbscan_fit(values, epsilon, ms):
    """Classic DBSCAN on a precomputed distance matrix.

    `values` is a dense matrix (symmetric, zero diagonal) or a
    JaccardMatrix.  Core point: >= ms points (self included) within
    distance <= epsilon.  Clusters grow from unvisited core points in
    ascending-index order, and a border point joins the first cluster that
    reaches it, so labels are fully deterministic.  Noise is labeled -1.
    """
    counts, neighbours = _neighbourhoods(values, epsilon)
    n = counts.size
    is_core = counts >= ms

    UNVISITED = -2
    labels = np.full(n, UNVISITED, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if labels[i] != UNVISITED:
            continue
        if not is_core[i]:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        seeds = deque([i])
        while seeds:
            nb = neighbours(seeds.popleft())
            # unvisited points, and noise adopted as border points; a
            # point is labeled once, so each core point expands once
            new = nb[labels[nb] < 0]
            labels[new] = cluster
            seeds.extend(new[is_core[new]])
        cluster += 1
    return labels


def build_pseudo_labeled_set(raw_labels):
    """Strip noise and compact surviving labels to 0..C-1.

    Label order follows first appearance by ascending index.
    """
    raw_labels = np.asarray(raw_labels, dtype=np.int64)
    all_idx = np.arange(raw_labels.size)
    kept = all_idx[raw_labels != NOISE]
    outliers = all_idx[raw_labels == NOISE]
    if kept.size == 0:
        raise EmptyClusteringError("every point was marked noise")
    _, first, inverse = np.unique(raw_labels[kept], return_index=True,
                                  return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return PseudoLabeledSet(
        kept_indices=kept,
        labels=rank[inverse],
        num_clusters=int(first.size),
        outlier_indices=outliers,
    )
