import math

import numpy as np
import pytest

from uflst import cluster, episodes, evaluate, network
from uflst.errors import InputError, ProtocolInfeasibleError


def oracle_nmi(a, b):
    """p log p contingency-table oracle over python dicts."""
    n = len(a)
    from collections import Counter
    ca, cb, cab = Counter(a), Counter(b), Counter(zip(a, b))
    ha = -sum(c / n * math.log(c / n) for c in ca.values())
    hb = -sum(c / n * math.log(c / n) for c in cb.values())
    if ha == 0.0 or hb == 0.0:
        groups_a = {x: {i for i, v in enumerate(a) if v == x} for x in ca}
        groups_b = {x: {i for i, v in enumerate(b) if v == x} for x in cb}
        return 1.0 if set(map(frozenset, groups_a.values())) == set(
            map(frozenset, groups_b.values())) else 0.0
    mi = sum(
        c / n * math.log((c / n) / (ca[x] / n * cb[y] / n))
        for (x, y), c in cab.items()
    )
    return mi / math.sqrt(ha * hb)


class TestNmi:
    def test_identical_partitions(self):
        a = [0, 0, 1, 1, 2, 2]
        assert evaluate.nmi(a, a) == pytest.approx(1.0, abs=1e-12)
        # relabeling does not matter
        b = [5, 5, 9, 9, 0, 0]
        assert evaluate.nmi(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_independent_partitions(self):
        a = [0, 0, 1, 1]
        b = [0, 1, 0, 1]
        assert evaluate.nmi(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, rng.integers(1, 8), size=n).tolist()
            b = rng.integers(0, rng.integers(1, 8), size=n).tolist()
            got = evaluate.nmi(a, b)
            assert got == pytest.approx(oracle_nmi(a, b), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 5, size=30)
        assert evaluate.nmi(a, b) == pytest.approx(evaluate.nmi(b, a), abs=1e-14)

    def test_range(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            a = rng.integers(0, 5, size=40)
            b = rng.integers(0, 5, size=40)
            v = evaluate.nmi(a, b)
            assert -1e-12 <= v <= 1.0 + 1e-12

    def test_zero_entropy_cases(self):
        assert evaluate.nmi([0, 0, 0], [4, 4, 4]) == 1.0
        assert evaluate.nmi([0, 0, 0], [0, 1, 1]) == 0.0
        assert evaluate.nmi([0, 1, 1], [7, 7, 7]) == 0.0

    def test_bad_input(self):
        with pytest.raises(InputError):
            evaluate.nmi([], [])
        with pytest.raises(InputError):
            evaluate.nmi([0, 1], [0, 1, 2])


class TestNearestPrototype:
    def test_separable(self):
        sup = np.array([[0.0, 0.0], [10.0, 0.0]])
        sup_lab = np.array([3, 7])
        qry = np.array([[1.0, 0.0], [9.0, 0.0], [-5.0, 0.0]])
        pred = evaluate.nearest_prototype_predict(sup, sup_lab, qry)
        assert np.array_equal(pred, [3, 7, 3])

    def test_multi_shot_mean(self):
        # class 0 supports at -1 and 3 (mean 1), class 1 support at 4
        sup = np.array([[-1.0], [3.0], [4.0]])
        sup_lab = np.array([0, 0, 1])
        pred = evaluate.nearest_prototype_predict(sup, sup_lab,
                                                  np.array([[2.0]]))
        assert pred[0] == 0  # |2-1| < |2-4|


class TestFewShotAccuracy:
    def identity_params(self, d):
        p = network.init_params([d, d], seed=0)
        p.weights[0] = np.eye(d)
        p.biases[0] = np.zeros(d)
        return p

    def test_perfectly_separable(self):
        rng = np.random.default_rng(3)
        centers = np.eye(6) * 100.0
        feats = np.concatenate([
            centers[c] + 0.01 * rng.normal(size=(10, 6)) for c in range(6)
        ])
        labels = np.repeat(np.arange(6), 10)
        proto = episodes.EpisodeConfig(n_c_test=5, n_s=1, n_q=3)
        mean, std = evaluate.few_shot_accuracy(
            self.identity_params(6), feats, labels, proto, 20,
            np.random.default_rng(4),
        )
        assert mean == 1.0 and std == 0.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(200, 8))
        labels = np.repeat(np.arange(10), 20)
        proto = episodes.EpisodeConfig(n_c_test=5, n_s=1, n_q=3)
        mean, _ = evaluate.few_shot_accuracy(
            self.identity_params(8), feats, labels, proto, 200,
            np.random.default_rng(6),
        )
        assert abs(mean - 0.2) < 0.08  # 5-way chance with sampling noise

    def test_deterministic_for_rng(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(60, 4))
        labels = np.repeat(np.arange(6), 10)
        proto = episodes.EpisodeConfig(n_c_test=5, n_s=1, n_q=3)
        p = self.identity_params(4)
        a = evaluate.few_shot_accuracy(p, feats, labels, proto, 30,
                                       np.random.default_rng(11))
        b = evaluate.few_shot_accuracy(p, feats, labels, proto, 30,
                                       np.random.default_rng(11))
        assert a == b

    def test_infeasible_protocol(self):
        feats = np.zeros((8, 2))
        labels = np.repeat(np.arange(4), 2)  # only 2 per class, need 4
        proto = episodes.EpisodeConfig(n_c_test=4, n_s=1, n_q=3)
        with pytest.raises(ProtocolInfeasibleError):
            evaluate.few_shot_accuracy(self.identity_params(2), feats, labels,
                                       proto, 5, np.random.default_rng(0))


class TestClusterStats:
    def test_values(self):
        pl = cluster.build_pseudo_labeled_set(
            np.array([0, 0, 1, 1, 1, cluster.NOISE])
        )
        truth = np.array([10, 10, 20, 20, 20, 30])
        stats = evaluate.cluster_stats(pl, truth)
        assert stats["num_clusters"] == 2
        assert stats["num_outliers"] == 1
        assert stats["mean_cluster_size"] == pytest.approx(2.5)
        assert stats["nmi"] == pytest.approx(1.0)

    def test_no_ground_truth(self):
        pl = cluster.build_pseudo_labeled_set(np.array([0, 0, 1]))
        stats = evaluate.cluster_stats(pl)
        assert math.isnan(stats["nmi"])
