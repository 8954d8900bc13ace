"""Epsilon selection and deterministic DBSCAN over a precomputed matrix:
a dense one, or the edge list of a `metric.JaccardMatrix`.

DBSCAN's clusters are the connected components of the core-point edges,
found with array operations on that pair list."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import metric
from .errors import (
    ConfigError,
    ContractViolationError,
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
    if p < 1:
        raise ContractViolationError(f"epsilon needs p >= 1 pairs, got p={p}")
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


def dbscan_fit(values, epsilon, ms):
    """Classic DBSCAN on a precomputed distance matrix.

    `values` is a dense matrix (symmetric, zero diagonal) or a
    JaccardMatrix.  Core point: >= ms points (self included) within
    distance <= epsilon.  A cluster is a connected component of the edges
    between core points, numbered in the order of its smallest index.  A
    border point joins the lowest-numbered cluster among its core
    neighbours, as an ascending-index BFS would, so labels are fully
    deterministic.  Noise is labeled -1.
    """
    n, rows, cols, dist = _pairs(values)
    if epsilon >= 1.0 and dist.size < n * (n - 1) // 2:
        # every left-out pair is at exactly 1: all points are neighbours
        return np.full(n, 0 if n >= ms else NOISE, dtype=np.int64)
    near = dist <= epsilon
    rows, cols = rows[near], cols[near]
    counts = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)
    is_core = counts + (epsilon >= 0) >= ms

    # hook every root onto the smallest root it touches, then flatten
    # fully; a component's root ends as its smallest index
    both = is_core[rows] & is_core[cols]
    a, b = rows[both], cols[both]
    root = np.arange(n)
    while not np.array_equal(root[a], root[b]):
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(root[root], root):
            root = root[root]

    number = np.cumsum(is_core & (root == np.arange(n))) - 1
    core_label = np.where(is_core, number[root], n)
    # a border point takes the lowest label among its core neighbours
    label = core_label.copy()
    np.minimum.at(label, rows, core_label[cols])
    np.minimum.at(label, cols, core_label[rows])
    return np.where(label < n, label, NOISE)


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
