"""Epsilon selection and deterministic DBSCAN over a precomputed matrix."""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

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
    per_point_minimum: bool = False

    def validate(self):
        if self.ms < 1:
            raise ConfigError("ms must be >= 1")
        if self.p_count < 0:
            raise ConfigError("p_count must be >= 0")
        if self.p_count == 0 and not (0 < self.p_fraction <= 1):
            raise ConfigError("p_fraction must lie in (0, 1]")

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
    class_members: list = field(default=None)  # per label: kept original indices

    def __post_init__(self):
        if self.class_members is None:
            self.class_members = [
                self.kept_indices[self.labels == c] for c in range(self.num_clusters)
            ]


def select_epsilon(values, p, per_point_minimum=False):
    """Mean of the P smallest off-diagonal distances.

    The default reading averages the P globally smallest upper-triangle
    entries; the alternative averages each point's single minimum over the
    P points with the smallest such minima.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if n < 2:
        raise EmptyClusteringError("need at least two points to select epsilon")
    iu = np.triu_indices(n, k=1)
    tri = values[iu]
    if np.all(tri == 0):
        warnings.warn(
            "all pairwise distances are zero; epsilon degenerates to 0",
            DegenerateGeometryWarning,
        )
        return 0.0
    if per_point_minimum:
        mins = np.sort(np.min(values + np.diag(np.full(n, np.inf)), axis=1))
        pool = mins[: min(p, n)]
    else:
        pool = np.sort(tri)[: min(p, tri.size)]
    return float(np.mean(pool))


def dbscan_fit(values, epsilon, ms):
    """Classic DBSCAN on a precomputed distance matrix.

    Core point: >= ms points (self included) within distance <= epsilon.
    Expansion seeds are processed in ascending-index order so labels are
    fully deterministic.  Noise is labeled -1.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    within = values <= epsilon
    neighbor_count = within.sum(axis=1)
    is_core = neighbor_count >= ms

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
        seeds = deque(np.flatnonzero(within[i]))
        while seeds:
            j = seeds.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point adopted by first cluster
            if labels[j] != UNVISITED:
                continue
            labels[j] = cluster
            if is_core[j]:
                seeds.extend(np.flatnonzero(within[j]))
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
    remap = {}
    labels = np.empty(kept.size, dtype=np.int64)
    for pos, idx in enumerate(kept):
        raw = raw_labels[idx]
        if raw not in remap:
            remap[raw] = len(remap)
        labels[pos] = remap[raw]
    return PseudoLabeledSet(
        kept_indices=kept,
        labels=labels,
        num_clusters=len(remap),
        outlier_indices=outliers,
    )
