import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uflst import cluster, metric
from uflst.errors import (
    ContractViolationError,
    DegenerateGeometryWarning,
    EmptyClusteringError,
)

from test_metric import point_sets, sparse_jaccard


def oracle_dbscan_partition(values, epsilon, ms):
    """Exhaustive region-query DBSCAN returning frozensets of clusters
    plus the noise set.  Independent of seed processing order."""
    n = values.shape[0]
    within = [set(np.flatnonzero(values[i] <= epsilon).tolist()) for i in range(n)]
    core = {i for i in range(n) if len(within[i]) >= ms}
    # density-connected components over core points
    assigned = {}
    clusters = []
    for i in sorted(core):
        if i in assigned:
            continue
        comp = set()
        stack = [i]
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            for v in within[u]:
                if v in core and v not in comp:
                    stack.append(v)
        cid = len(clusters)
        clusters.append(comp)
        for u in comp:
            assigned[u] = cid
    # border points attach to some cluster; noise reaches no core point
    noise = set()
    for i in range(n):
        if i in assigned:
            continue
        reach = {assigned[c] for c in within[i] if c in core}
        if reach:
            assigned[i] = min(reach)  # placement ambiguous; membership is not
        else:
            noise.add(i)
    return assigned, noise, core


def reference_dbscan(values, epsilon, ms):
    """Dense-mask DBSCAN with label-on-pop expansion in ascending-index
    order: the BFS whose labels `dbscan_fit` rebuilds from the connected
    components of the core graph."""
    within = values <= epsilon
    is_core = within.sum(axis=1) >= ms
    n = values.shape[0]
    labels = np.full(n, -2, dtype=np.int64)
    label = 0
    for i in range(n):
        if labels[i] != -2:
            continue
        if not is_core[i]:
            labels[i] = cluster.NOISE
            continue
        labels[i] = label
        seeds = deque(np.flatnonzero(within[i]))
        while seeds:
            j = seeds.popleft()
            if labels[j] == cluster.NOISE:
                labels[j] = label
            if labels[j] != -2:
                continue
            labels[j] = label
            if is_core[j]:
                seeds.extend(np.flatnonzero(within[j]))
        label += 1
    return labels


def reference_compaction(raw_labels):
    """Dict remap of non-noise labels to 0..C-1 in first-seen order."""
    remap = {}
    labels = []
    for raw in raw_labels:
        if raw != cluster.NOISE:
            labels.append(remap.setdefault(raw, len(remap)))
    return np.array(labels, dtype=np.int64), len(remap)


def edge_jaccard(n, pairs, dist):
    """A JaccardMatrix storing `pairs` (any order, either orientation) at
    `dist`."""
    pairs = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return metric.JaccardMatrix(n, pairs[order, 0], pairs[order, 1],
                                np.asarray(dist, dtype=np.float64)[order])


def co_membership(labels):
    labels = np.asarray(labels)
    valid = labels != cluster.NOISE
    return (labels[:, None] == labels[None, :]) & valid[:, None] & valid[None, :]


class TestEpsilon:
    def test_mean_of_p_smallest(self):
        values = np.array([
            [0.0, 1.0, 4.0],
            [1.0, 0.0, 2.0],
            [4.0, 2.0, 0.0],
        ])
        # upper triangle sorted: 1, 2, 4
        assert cluster.select_epsilon(values, 1) == 1.0
        assert cluster.select_epsilon(values, 2) == pytest.approx(1.5)
        assert cluster.select_epsilon(values, 3) == pytest.approx(7.0 / 3.0)
        # p beyond available pairs uses all of them
        assert cluster.select_epsilon(values, 99) == pytest.approx(7.0 / 3.0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(3, 30))
            d = metric.pairwise_sq_euclidean(rng.normal(size=(n, 3)))
            p = int(rng.integers(1, n * (n - 1) // 2 + 1))
            tri = sorted(d[i, j] for i in range(n) for j in range(i + 1, n))
            assert cluster.select_epsilon(d, p) == pytest.approx(
                np.mean(tri[:p]), abs=1e-12
            )

    def test_all_zero_warns(self):
        values = np.zeros((4, 4))
        with pytest.warns(DegenerateGeometryWarning):
            assert cluster.select_epsilon(values, 2) == 0.0

    @pytest.mark.parametrize("p", [0, -3])
    def test_empty_pool_rejected(self, p):
        # a pool of no pairs has no mean: numpy would give NaN and two
        # RuntimeWarnings
        jm = metric.build_jaccard(
            np.random.default_rng(0).normal(size=(30, 3)), 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match=f"p={p}"):
                cluster.select_epsilon(jm, p)

    def test_resolve_p(self):
        cfg = cluster.DbscanConfig(p_fraction=0.1)
        assert cfg.resolve_p(10) == round(0.1 * 45)
        assert cluster.DbscanConfig(p_count=7).resolve_p(10) == 7
        assert cluster.DbscanConfig(p_count=999).resolve_p(10) == 45
        # tiny N never yields zero
        assert cluster.DbscanConfig(p_fraction=0.001).resolve_p(3) == 1


class TestDbscan:
    def test_two_blobs(self):
        pts = np.concatenate([
            np.zeros((5, 1)), np.full((5, 1), 100.0)
        ])
        d = metric.pairwise_sq_euclidean(pts)
        labels = cluster.dbscan_fit(d, epsilon=1.0, ms=3)
        assert np.all(labels[:5] == 0)
        assert np.all(labels[5:] == 1)

    def test_isolated_point_is_noise(self):
        pts = np.array([[0.0], [0.1], [0.2], [50.0]])
        d = metric.pairwise_sq_euclidean(pts)
        labels = cluster.dbscan_fit(d, epsilon=0.05, ms=3)
        assert labels[3] == cluster.NOISE

    def test_core_counts_self(self):
        # two points within eps of each other: each has 2 in range
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        labels = cluster.dbscan_fit(d, epsilon=1.0, ms=2)
        assert np.all(labels == 0)
        labels = cluster.dbscan_fit(d, epsilon=1.0, ms=3)
        assert np.all(labels == cluster.NOISE)

    def test_matches_oracle_co_membership(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = int(rng.integers(10, 60))
            pts = rng.normal(size=(n, 2)) * rng.choice([0.5, 1.0, 3.0])
            d = metric.pairwise_sq_euclidean(pts)
            eps = float(rng.uniform(0.05, 2.0))
            ms = int(rng.integers(2, 6))
            labels = cluster.dbscan_fit(d, eps, ms)
            assigned, noise, core = oracle_dbscan_partition(d, eps, ms)
            # core and noise sets must agree exactly
            got_noise = set(np.flatnonzero(labels == cluster.NOISE).tolist())
            assert got_noise == noise
            # core-point co-membership must agree (border placement can
            # legitimately differ between formulations, ours is pinned to
            # first-cluster adoption)
            for i in sorted(core):
                for j in sorted(core):
                    assert (assigned[i] == assigned[j]) == (labels[i] == labels[j])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 2))
        d = metric.pairwise_sq_euclidean(pts)
        a = cluster.dbscan_fit(d, 0.5, 3)
        b = cluster.dbscan_fit(d, 0.5, 3)
        assert np.array_equal(a, b)

    def test_labels_follow_ascending_first_appearance(self):
        pts = np.concatenate([np.full((4, 1), 10.0), np.zeros((4, 1))])
        d = metric.pairwise_sq_euclidean(pts)
        labels = cluster.dbscan_fit(d, 1.0, 3)
        # the cluster containing point 0 must be labeled 0
        assert labels[0] == 0 and labels[4] == 1

    def test_matches_reference_labels(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(10, 80))
            pts = rng.normal(size=(n, 2)) * rng.choice([0.5, 1.0, 3.0])
            d = metric.pairwise_sq_euclidean(pts)
            eps = float(rng.uniform(0.05, 2.0))
            ms = int(rng.integers(1, 6))
            assert np.array_equal(cluster.dbscan_fit(d, eps, ms),
                                  reference_dbscan(d, eps, ms))

    def test_deep_scrambled_chain(self):
        # a 2000-point path under permuted indices, cut in four by three
        # edges above epsilon: components far deeper than point_sets builds
        n = 2000
        rng = np.random.default_rng(5)
        order = rng.permutation(n)
        dist = np.full(n - 1, 0.3)
        dist[[400, 1100, 1500]] = 0.8
        jm = edge_jaccard(n, np.stack([order[:-1], order[1:]], axis=1), dist)
        for ms in (1, 2, 3):
            labels = cluster.dbscan_fit(jm, 0.5, ms)
            assert np.array_equal(labels, reference_dbscan(jm.values, 0.5, ms))
            assert labels.max() == 3 and np.all(labels >= 0)

    def test_border_between_clusters_takes_lower_id(self):
        # two triangles of core points; each core has a private leaf, and
        # two shared leaves each touch one core of either triangle
        rng = np.random.default_rng(6)
        perm = rng.permutation(14)
        x, y = perm[0:3], perm[3:6]
        private, shared = perm[6:12], perm[12:14]
        pairs = [(x[0], x[1]), (x[1], x[2]), (x[0], x[2]),
                 (y[0], y[1]), (y[1], y[2]), (y[0], y[2]),
                 *zip(np.concatenate([x, y]), private),
                 (shared[0], x[2]), (shared[0], y[0]),
                 (shared[1], x[0]), (shared[1], y[2])]
        jm = edge_jaccard(14, pairs, np.full(len(pairs), 0.3))
        labels = cluster.dbscan_fit(jm, 0.5, 4)
        assert np.array_equal(labels, reference_dbscan(jm.values, 0.5, 4))
        # the cluster holding the smaller core index is 0
        assert labels[min(min(x), min(y))] == 0
        assert labels[x[0]] != labels[y[0]]
        assert np.all(labels[shared] == 0)

    def test_negative_epsilon_counts_no_self(self):
        # below 0 not even the zero diagonal is within epsilon
        d = np.zeros((3, 3))
        jm = edge_jaccard(3, [(0, 1)], [0.0])
        for values in (d, jm, jm.values):
            labels = cluster.dbscan_fit(values, -0.5, 1)
            assert np.all(labels == cluster.NOISE)

    def test_epsilon_zero_coincident_points(self):
        # coincident points have distance 0 <= 0 and still cluster
        d = np.zeros((5, 5))
        labels = cluster.dbscan_fit(d, 0.0, 4)
        assert np.all(labels == 0)


class TestPseudoLabeledSet:
    def test_compaction(self):
        raw = np.array([cluster.NOISE, 5, 5, 2, cluster.NOISE, 2, 7])
        pl = cluster.build_pseudo_labeled_set(raw)
        assert np.array_equal(pl.kept_indices, [1, 2, 3, 5, 6])
        assert np.array_equal(pl.labels, [0, 0, 1, 1, 2])
        assert pl.num_clusters == 3
        assert np.array_equal(pl.outlier_indices, [0, 4])
        assert np.array_equal(pl.class_members[1], [3, 5])

    def test_all_noise_raises(self):
        with pytest.raises(EmptyClusteringError):
            cluster.build_pseudo_labeled_set(np.full(5, cluster.NOISE))

    def test_no_noise(self):
        pl = cluster.build_pseudo_labeled_set(np.array([0, 0, 1]))
        assert pl.outlier_indices.size == 0
        assert pl.kept_indices.size == 3

    def test_matches_reference_compaction(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            raw = rng.integers(-1, int(rng.integers(1, 30)),
                               size=int(rng.integers(1, 200)))
            raw[rng.integers(0, raw.size)] = 5  # never all noise
            labels, num = reference_compaction(raw)
            pl = cluster.build_pseudo_labeled_set(raw)
            assert np.array_equal(pl.labels, labels)
            assert pl.num_clusters == num


class TestSparseMatchesDense:
    """select_epsilon and dbscan_fit read a JaccardMatrix and its dense
    `.values` alike."""

    @settings(max_examples=60, deadline=None)
    @given(point_sets(), st.integers(1, 3000))
    def test_select_epsilon(self, case, p):
        jm = sparse_jaccard(*case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGeometryWarning)
            sparse = cluster.select_epsilon(jm, p)
            dense = cluster.select_epsilon(jm.values, p)
        assert sparse == dense

    @settings(max_examples=60, deadline=None)
    @given(point_sets(), st.integers(1, 8), st.data())
    def test_dbscan_labels(self, case, ms, data):
        jm = sparse_jaccard(*case)
        # stored edge values test the <= boundary; values >= 1 make every
        # pair a neighbour, as the dense mask does; below 0 no point
        # counts itself
        epsilon = data.draw(st.one_of(
            st.sampled_from([-0.5, 0.0, 1.0, 1.5, *jm.dist.tolist()]),
            st.floats(0.0, 2.0)))
        dense = jm.values
        labels = cluster.dbscan_fit(jm, epsilon, ms)
        assert np.array_equal(labels, cluster.dbscan_fit(dense, epsilon, ms))
        assert np.array_equal(labels, reference_dbscan(dense, epsilon, ms))
