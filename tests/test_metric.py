import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uflst import metric
from uflst.errors import InputError


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


def oracle_jaccard(reciprocal):
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


class TestReciprocal:
    def test_matches_set_enumeration(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            points = rng.normal(size=(rng.integers(5, 40), 3))
            dist = metric.pairwise_sq_euclidean(points)
            knn = metric.knn_sets(dist, int(rng.integers(1, len(points) - 1)))
            got = metric.k_reciprocal_sets(knn)
            expected = oracle_reciprocal(knn)
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)

    def test_mutuality(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(25, 4))
        knn = metric.knn_sets(metric.pairwise_sq_euclidean(points), 5)
        rec = metric.k_reciprocal_sets(knn)
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
        rec = [np.empty(0, dtype=np.intp) for _ in range(4)]
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
