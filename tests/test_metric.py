import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uflst import metric
from uflst.errors import ContractViolationError, InputError


def oracle_distances(points):
    """Naive double-loop squared Euclidean distances."""
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d = points[i] - points[j]
            out[i, j] = float(np.dot(d, d))
    return out


def oracle_knn(dist, k):
    """Full-sort nearest neighbors, self excluded, ties by ascending index."""
    n = dist.shape[0]
    result = []
    for i in range(n):
        order = sorted((j for j in range(n) if j != i),
                       key=lambda j: (dist[i, j], j))
        result.append(np.array(order[:k], dtype=np.intp))
    return result


def oracle_reciprocal(knn):
    n = len(knn)
    sets = [set(nb.tolist()) for nb in knn]
    return [np.array(sorted(j for j in sets[i] if i in sets[j]), dtype=np.intp)
            for i in range(n)]


def split_sets(reciprocal):
    """The per-point sets of the (members, sizes) pair that
    `metric.k_reciprocal_sets` returns."""
    members, sizes = reciprocal
    return np.split(members, np.cumsum(sizes)[:-1])


def oracle_jaccard(reciprocal):
    """Set-enumeration Jaccard distances of per-point sets, given as a list
    or as the (members, sizes) pair of `metric.k_reciprocal_sets`."""
    if isinstance(reciprocal, tuple):
        reciprocal = split_sets(reciprocal)
    n = len(reciprocal)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = set(reciprocal[i].tolist()), set(reciprocal[j].tolist())
            union = a | b
            if not union:
                out[i, j] = 1.0
            else:
                out[i, j] = 1.0 - len(a & b) / len(union)
    return out


class TestDistances:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(17, 5))
        got = metric.pairwise_sq_euclidean(points)
        assert np.allclose(got, oracle_distances(points), atol=1e-10)

    def test_symmetric_zero_diagonal_nonnegative(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(30, 8)) * 100
        d = metric.pairwise_sq_euclidean(points)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            metric.pairwise_sq_euclidean(np.array([[0.0, np.inf]]))


class TestSqDistances:
    @pytest.mark.parametrize("dim", [1, 16])
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_bits_of_written_out_formula(self, dim, lead):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(*lead, 40, dim)) * 10.0
        b = rng.normal(size=(*lead, 30, dim)) * 10.0
        # near-duplicates of rows of a, so the unclamped value can go
        # below 0
        b[..., :20, :] = a[..., :20, :] * (1.0 + 1e-12)
        na, nb = np.sum(a * a, axis=-1), np.sum(b * b, axis=-1)
        raw = ((na[..., :, None] + nb[..., None, :])
               - 2.0 * (a @ np.swapaxes(b, -1, -2)))
        assert np.any(raw < 0.0)
        got = metric.sq_distances(a, b)
        assert got.shape == raw.shape
        assert got.tobytes() == np.maximum(raw, 0.0).tobytes()
        out = np.full(raw.shape, np.nan)
        assert metric.sq_distances(a, b, out) is out
        assert out.tobytes() == got.tobytes()


class TestLabelGroups:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-5, 40), max_size=60))
    def test_equals_per_label_flatnonzero(self, values):
        labels = np.array(values, dtype=np.int64)
        groups = metric.label_groups(labels)
        expected = [np.flatnonzero(labels == c) for c in np.unique(labels)]
        assert len(groups) == len(expected)
        for got, want in zip(groups, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)


class TestKnn:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            points = rng.normal(size=(rng.integers(5, 40), 3))
            dist = metric.pairwise_sq_euclidean(points)
            k = int(rng.integers(1, len(points) - 1))
            got = metric.knn_sets(dist, k)
            expected = oracle_knn(dist, k)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)

    def test_self_excluded(self):
        dist = oracle_distances(np.arange(6, dtype=float).reshape(-1, 1))
        for i, nb in enumerate(metric.knn_sets(dist, 3)):
            assert i not in nb

    def test_tie_break_ascending_index(self):
        # four points at the corners of a square: both non-adjacent corners
        # tie, the lower index must win
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        dist = metric.pairwise_sq_euclidean(pts)
        knn = metric.knn_sets(dist, 1)
        assert knn[0][0] == 1  # d(0,1) == d(0,2), index 1 wins
        assert knn[3][0] == 1  # d(3,1) == d(3,2), index 1 wins

    @staticmethod
    def assert_blocks_match_oracle(dist, k, step):
        expected = oracle_knn(dist, k)
        for start in range(0, len(dist), step):
            block = metric.knn_sets(dist[start:start + step], k, start)
            for row, got in enumerate(block):
                assert np.array_equal(got, expected[start + row])

    @pytest.mark.parametrize("points, ks", [
        (np.random.default_rng(9).normal(size=(60, 4)), (1, 5, 12)),
        # on a line the two neighbors at each distance tie inside the
        # list, and k > 16 is past numpy's insertion-sort cutoff
        (np.arange(60.0)[:, None], (20,)),
    ])
    def test_blocks_without_ties_at_kth_value(self, points, ks):
        dist = metric.pairwise_sq_euclidean(points)
        for k in ks:
            kth = np.sort(dist, axis=1)[:, k]
            assert np.all(np.sum(dist <= kth[:, None], axis=1) == k + 1)
            self.assert_blocks_match_oracle(dist, k, 7)

    def test_blocks_with_ties_at_kth_value(self):
        points = np.random.default_rng(10).integers(
            -2, 3, size=(60, 2)).astype(np.float64)
        dist = metric.pairwise_sq_euclidean(points)
        for k in (1, 4, 9):
            kth = np.sort(dist, axis=1)[:, k]
            assert np.any(np.sum(dist == kth[:, None], axis=1) > 1)
            self.assert_blocks_match_oracle(dist, k, 7)

    def test_self_entry_not_the_row_minimum(self):
        # exactly k+1 entries per row at or below the k-th value, none of
        # them self: the list keeps the k nearest of those k+1 others
        points = np.random.default_rng(11).normal(size=(40, 3))
        dist = metric.pairwise_sq_euclidean(points)
        np.fill_diagonal(dist, 1e9)
        for k in (1, 6):
            kth = np.sort(dist, axis=1)[:, k]
            assert np.all(np.sum(dist <= kth[:, None], axis=1) == k + 1)
            self.assert_blocks_match_oracle(dist, k, 9)

    def test_k_clamped_with_warning(self):
        dist = oracle_distances(np.arange(4, dtype=float).reshape(-1, 1))
        with pytest.warns(UserWarning):
            knn = metric.knn_sets(dist, 10)
        assert all(len(nb) == 3 for nb in knn)

    def test_nan_distances_rejected(self):
        dist = metric.pairwise_sq_euclidean(
            np.random.default_rng(14).normal(size=(20, 2)))
        dist[3] = np.nan
        dist[3, 3] = 0.0
        with pytest.raises(ContractViolationError, match="NaN"):
            metric.knn_sets(dist, 4)


@st.composite
def knn_cases(draw):
    """(group, points, k, start, stop): GROUP 1, 2, 3 or 32, n from k+1 to
    past (k+1) * GROUP, random, integer-grid or duplicated points, and the
    block of rows start:stop."""
    group = draw(st.sampled_from([1, 2, 3, 32]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, (k + 1) * group + group + 3))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["random", "grid", "duplicates"]))
    if layout == "random":
        points = rng.normal(size=(n, dim))
    elif layout == "grid":
        points = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    else:
        distinct = rng.normal(size=(draw(st.integers(1, 4)), dim))
        points = distinct[rng.integers(0, len(distinct), size=n)]
    start = draw(st.integers(0, n - 1))
    stop = draw(st.integers(start + 1, n))
    return group, points, k, start, stop


class TestGroupBound:
    """`knn_sets` keeps every entry at or below the (k+1)-th smallest
    minimum of its strided column groups; whatever the group width, the
    lists equal the full-sort oracle's."""

    @staticmethod
    def assert_matches_oracle(dist, k, start=0, stop=None, group=None):
        stop = len(dist) if stop is None else stop
        with mock.patch.object(metric, "GROUP", group or metric.GROUP):
            got = metric.knn_sets(dist[start:stop], k, start)
        expected = oracle_knn(dist, k)[start:stop]
        assert got.shape == (stop - start, k)
        for row, want in zip(got, expected):
            assert np.array_equal(row, want)

    @settings(max_examples=150, deadline=None)
    @given(knn_cases())
    def test_equals_oracle(self, case):
        group, points, k, start, stop = case
        dist = metric.pairwise_sq_euclidean(points)
        self.assert_matches_oracle(dist, k, start, stop, group)

    def test_self_and_neighbors_in_the_tail(self):
        # n = 133, k = 3: width 32, 4 groups over columns 0-127; rows
        # 128-132 have self and their nearest neighbors in the 5 tail
        # columns, which lie in no group
        n, k = 133, 3
        width = min(metric.GROUP, n // (k + 1))
        assert (width, n // width) == (32, 4)
        dist = metric.pairwise_sq_euclidean(np.arange(float(n))[:, None])
        self.assert_matches_oracle(dist, k, 120, n)
        got = metric.knn_sets(dist[130:131], k, 130)
        assert got.tolist() == [[129, 131, 128]]

    def test_all_k_nearest_in_one_group(self):
        # n = 200, k = 4: width 32, 6 groups, column j in group j % 6;
        # the 4 nearest of row 0 are columns 6, 12, 18 and 24, all in
        # self's group, so its minimum (0, self) stands for all five
        n, k = 200, 4
        width = min(metric.GROUP, n // (k + 1))
        assert (width, n // width) == (32, 6)
        values = 100.0 + np.arange(float(n))
        values[[0, 6, 12, 18, 24]] = [0.0, 4.0, 3.0, 2.0, 1.0]
        dist = metric.pairwise_sq_euclidean(values[:, None])
        assert metric.knn_sets(dist[:1], k).tolist() == [[24, 18, 12, 6]]
        self.assert_matches_oracle(dist, k)

    @pytest.mark.parametrize("group", [1, 3, 32])
    def test_every_row_tied_at_the_bound(self, group):
        # every off-diagonal entry is 1, so every column is a candidate
        # and the index tie-break alone picks the list
        n, k = 100, 5
        dist = np.ones((n, n))
        np.fill_diagonal(dist, 0.0)
        self.assert_matches_oracle(dist, k, 40, 70, group)
        with mock.patch.object(metric, "GROUP", group):
            got = metric.knn_sets(dist[:3], k)
        assert got.tolist() == [[1, 2, 3, 4, 5], [0, 2, 3, 4, 5],
                                [0, 1, 3, 4, 5]]


class TestReciprocal:
    def test_matches_set_enumeration(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            points = rng.normal(size=(rng.integers(5, 40), 3))
            dist = metric.pairwise_sq_euclidean(points)
            knn = metric.knn_sets(dist, int(rng.integers(1, len(points) - 1)))
            got = split_sets(metric.k_reciprocal_sets(knn))
            expected = oracle_reciprocal(knn)
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)

    def test_mutuality(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(25, 4))
        knn = metric.knn_sets(metric.pairwise_sq_euclidean(points), 5)
        rec = split_sets(metric.k_reciprocal_sets(knn))
        for i, r in enumerate(rec):
            for j in r:
                assert i in rec[j]


class TestJaccard:
    def test_matches_set_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            points = rng.normal(size=(rng.integers(5, 40), 3))
            dist = metric.pairwise_sq_euclidean(points)
            knn = metric.knn_sets(dist, int(rng.integers(1, len(points) - 1)))
            rec = metric.k_reciprocal_sets(knn)
            got = metric.jaccard_matrix(rec).values
            assert np.allclose(got, oracle_jaccard(rec), atol=1e-12)

    def test_range_symmetry_diagonal(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(30, 4))
        jm = metric.build_jaccard(points, 6)
        v = jm.values
        assert np.all((v >= 0.0) & (v <= 1.0))
        assert np.array_equal(v, v.T)
        assert np.all(np.diag(v) == 0.0)

    def test_empty_reciprocal_sets(self):
        # no mutual neighbors anywhere: off-diagonal all 1
        rec = (np.empty(0, dtype=np.intp), np.zeros(4, dtype=np.intp))
        v = metric.jaccard_matrix(rec).values
        assert np.all(np.diag(v) == 0.0)
        off = v[~np.eye(4, dtype=bool)]
        assert np.all(off == 1.0)

    def test_tight_clique_and_outlier(self):
        # clique {0,1,2} with k=2 reciprocates internally; the far point 3
        # nominates neighbors that never reciprocate, so R_3 is empty
        pts = np.array([[0.0], [0.1], [0.25], [100.0]])
        jm = metric.build_jaccard(pts, 2)
        v = jm.values
        # R_0={1,2}, R_1={0,2}: overlap 1 of 3
        assert v[0, 1] == pytest.approx(2.0 / 3.0)
        # disjoint or empty sets are maximally distant
        assert v[0, 3] == 1.0 and v[1, 3] == 1.0 and v[2, 3] == 1.0
        assert np.all(np.diag(v) == 0.0)

    def test_coincident_points_warn(self):
        from uflst.errors import DegenerateGeometryWarning

        with pytest.warns(DegenerateGeometryWarning):
            metric.build_jaccard(np.ones((6, 3)), 2)

    def test_tiled_rows_warn_whatever_their_distances(self):
        # |a|^2 + |b|^2 - 2ab leaves residues between equal rows (about
        # 1e-10 at scale 100), so a check on the distances can stay silent
        from uflst.errors import DegenerateGeometryWarning

        rng = np.random.default_rng(14)
        for scale in np.geomspace(0.1, 100.0, 20):
            emb = np.tile(rng.normal(size=16) * scale, (50, 1))
            with pytest.warns(DegenerateGeometryWarning, match="coincide"):
                metric.build_jaccard(emb, 5)
            moved = emb.copy()
            moved[17, 3] += scale
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegenerateGeometryWarning)
                metric.build_jaccard(moved, 5)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 3), st.integers(1, 13),
           st.sampled_from(["random", "tiled", "grid"]),
           st.integers(0, 2**32 - 1))
    def test_never_stores_every_pair_at_zero(self, n, dim, k, layout, seed):
        # a stored pair at 0 has R_a = R_b; were every pair stored at 0,
        # every R would be one set S, and any m in S would lie in R_m = S,
        # which the self-exclusion of knn_sets rules out
        rng = np.random.default_rng(seed)
        if layout == "random":
            points = rng.normal(size=(n, dim))
        elif layout == "tiled":
            points = np.tile(rng.normal(size=dim), (n, 1))
        else:
            points = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            jm = metric.build_jaccard(points, k)
        assert jm.dist.size < n * (n - 1) // 2 or np.any(jm.dist)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(20, 3))
        # break all ties by using generic positions, then permute
        perm = rng.permutation(20)
        a = metric.build_jaccard(points, 5).values
        b = metric.build_jaccard(points[perm], 5).values
        assert np.allclose(a[np.ix_(perm, perm)], b, atol=1e-12)


@st.composite
def point_sets(draw):
    """(points, k, block): 5-80 points, random or on an integer grid (many
    exact distance ties), any k, and a BLOCK_ENTRIES small enough that
    build_jaccard runs anywhere from one row per block to one block."""
    n = draw(st.integers(5, 80))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
    else:
        points = rng.normal(size=(n, dim))
    k = draw(st.integers(1, n + 2))
    block = draw(st.integers(1, 8 * n))
    return points, k, block


def sparse_jaccard(points, k, block):
    with mock.patch.object(metric, "BLOCK_ENTRIES", block), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return metric.build_jaccard(points, k)


class TestSparseMatchesDense:
    @settings(max_examples=60, deadline=None)
    @given(point_sets())
    def test_build_jaccard_equals_dense_oracle_chain(self, case):
        points, k, block = case
        dist = metric.pairwise_sq_euclidean(points)
        knn = oracle_knn(dist, min(k, len(points) - 1))
        expected = oracle_jaccard(oracle_reciprocal(knn))
        jm = sparse_jaccard(points, k, block)
        assert np.array_equal(jm.values, expected)
        # exactly the pairs below 1 are stored, once each, as i < j
        assert jm.dist.size == np.count_nonzero(np.triu(expected < 1.0, 1))
        assert np.all(jm.rows < jm.cols)

    def test_block_size_keeps_edge_bits(self):
        points = np.random.default_rng(13).normal(size=(2000, 16))
        assert metric.BLOCK_ENTRIES // len(points) < len(points) // 4
        small = metric.build_jaccard(points, 20)
        with mock.patch.object(metric, "BLOCK_ENTRIES", 1 << 22):
            one = metric.build_jaccard(points, 20)
        for field in ("rows", "cols", "dist"):
            assert (getattr(small, field).tobytes()
                    == getattr(one, field).tobytes())

    def test_group_width_keeps_edge_bits(self):
        # GROUP = 1 makes the bound each row's own (k+1)-th smallest entry
        points = np.random.default_rng(13).normal(size=(2000, 16))
        assert min(metric.GROUP, 2000 // 21) > 1
        grouped = metric.build_jaccard(points, 20)
        with mock.patch.object(metric, "GROUP", 1):
            rowwise = metric.build_jaccard(points, 20)
        for field in ("rows", "cols", "dist"):
            assert (getattr(grouped, field).tobytes()
                    == getattr(rowwise, field).tobytes())

    def test_overflowing_norms_rejected(self):
        # finite features whose squared norms overflow float64: no
        # distance is taken, and no RuntimeWarning is raised
        points = np.random.default_rng(15).normal(size=(50, 4)) * 1e160
        with pytest.raises(InputError, match="too large"):
            metric.build_jaccard(points, 5)

    def test_row_block_matches_full_matrix(self):
        rng = np.random.default_rng(8)
        points = rng.integers(-2, 3, size=(30, 2)).astype(np.float64)
        dist = metric.pairwise_sq_euclidean(points)
        full = metric.knn_sets(dist, 6)
        for start in (0, 7, 29):
            block = metric.knn_sets(dist[start:start + 9], 6, start)
            assert np.array_equal(block, full[start:start + 9])


SCALE_SCRIPT = """
import resource
import numpy as np
from uflst import cluster, metric
emb = np.random.default_rng(0).normal(size=(16000, 16))
jm = metric.build_jaccard(emb, 20)
eps = cluster.select_epsilon(jm, cluster.DbscanConfig().resolve_p(jm.n))
labels = cluster.dbscan_fit(jm, eps, 4)
print(jm.dist.size, labels.size,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestScale:
    def test_16k_points_cluster_under_1gb(self):
        # the dense N x N chain needs about 12 GB at this size
        src = os.path.dirname(os.path.dirname(metric.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", SCALE_SCRIPT], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        edges, n_labels, maxrss_kb = map(int, proc.stdout.split())
        assert n_labels == 16000
        assert 0 < edges <= 16000 * 20 * 19 // 2
        assert maxrss_kb < 1024 * 1024
