import warnings

import numpy as np
import pytest

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
