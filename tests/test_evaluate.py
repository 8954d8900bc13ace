import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uflst import cluster, episodes, evaluate, metric, network
from uflst.errors import InputError, ProtocolInfeasibleError
from test_losses import flat_layout


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


def reference_nearest_prototype_predict(support_emb, support_labels,
                                        query_emb):
    """The per-class loop over a label array that the block prototypes
    replaced."""
    classes = np.unique(support_labels)
    protos = np.stack([
        support_emb[support_labels == c].mean(axis=0) for c in classes
    ])
    return classes[np.argmin(metric.sq_distances(query_emb, protos), axis=1)]


def reference_few_shot_accuracy(params, features, labels, protocol,
                                n_episodes, rng):
    """The per-episode loop that one embedding per round replaced: the
    same `sample_episodes` blocks, each embedded and scored on its own."""
    features = np.asarray(features, dtype=np.float64)
    members = evaluate.eval_members(params, features, labels, protocol)
    way, per_class = protocol.n_c_test, protocol.n_s + protocol.n_q
    classes, support = flat_layout(way, per_class, protocol.n_s)
    blocks = episodes.sample_episodes(members, way, per_class, n_episodes,
                                      rng)
    accs = []
    for block in blocks:
        emb, _ = network.forward(params, features[block.ravel()])
        pred = reference_nearest_prototype_predict(
            emb[support], classes[support], emb[~support])
        accs.append(np.mean(pred == classes[~support]))
    return float(np.mean(accs)), float(np.std(accs))


def reference_class_means(points, labels):
    """Per-class means with each class's rows added to 0 in row order:
    the formula of the `class_means` helper that the block prototypes
    replaced, stacked over the leading axes."""
    classes, of_row, counts = np.unique(labels, return_inverse=True,
                                        return_counts=True)
    sums = np.zeros((*points.shape[:-2], classes.size, points.shape[-1]))
    np.add.at(sums, (Ellipsis, of_row, slice(None)), points)
    return sums / counts[:, None]


def split_blocks(blocks, n_s):
    """(support rows, their class positions, query rows) of one (n_c, n_e, D)
    block, as the label-array oracles read them."""
    n_c, _, dim = blocks.shape
    return (blocks[:, :n_s].reshape(-1, dim), np.repeat(np.arange(n_c), n_s),
            blocks[:, n_s:].reshape(-1, dim))


class TestNearestPrototype:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 7))
    def test_matches_reference(self, seed, dim, shot):
        rng = np.random.default_rng(seed)
        way, n_q = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        sup = np.round(rng.normal(size=(way, shot, dim)) * 3.0)
        qry = rng.normal(size=(way, n_q, dim)) * 3.0
        blocks = np.concatenate([sup, qry], axis=1)
        pred = evaluate.nearest_prototype_predict(blocks, shot)
        assert pred.shape == (way, n_q)
        assert np.array_equal(
            pred.ravel(),
            reference_nearest_prototype_predict(*split_blocks(blocks, shot)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 4),
           st.integers(1, 9))
    def test_stacked_matches_each_episode(self, seed, way, shot, count):
        rng = np.random.default_rng(seed)
        blocks = rng.normal(size=(count, way, shot + 3, 5))
        pred = evaluate.nearest_prototype_predict(blocks, shot)
        assert pred.shape == (count, way, 3)
        for e in range(count):
            assert np.array_equal(
                pred[e], evaluate.nearest_prototype_predict(blocks[e], shot))

    def test_separable(self):
        # row 0: support at 0, queries at 1 and -5; row 1: support at 10,
        # queries at 9 and 11
        blocks = np.array([[[0.0, 0.0], [1.0, 0.0], [-5.0, 0.0]],
                           [[10.0, 0.0], [9.0, 0.0], [11.0, 0.0]]])
        pred = evaluate.nearest_prototype_predict(blocks, 1)
        assert pred.tolist() == [[0, 0], [1, 1]]

    def test_multi_shot_mean(self):
        # class 0 supports at -1 and 3 (mean 1), class 1 supports at 4
        blocks = np.array([[[-1.0], [3.0], [2.0]],
                           [[4.0], [4.0], [5.0]]])
        pred = evaluate.nearest_prototype_predict(blocks, 2)
        assert pred.tolist() == [[0], [1]]  # |2-1| < |2-4|

    @pytest.mark.parametrize("dim", [1, 2, 16])
    @pytest.mark.parametrize("shot", [1, 2, 8, 9, 12])
    def test_prototypes_carry_class_mean_bits(self, dim, shot):
        # the support columns are added to 0 in column order: a reduction
        # over the column axis sums pairwise at width 1 and keeps a lone
        # -0.0, so its bits differ
        rng = np.random.default_rng([dim, shot])
        count, way = 40, 5
        blocks = (rng.normal(size=(count, way, shot + 2, dim))
                  * 10.0 ** rng.uniform(-3, 3, size=(count, way, 1, 1)))
        blocks[:, 0, :shot] = -0.0
        blocks[:, 1, 0] = -0.0
        with mock.patch.object(metric, "sq_distances",
                               wraps=metric.sq_distances) as spy:
            evaluate.nearest_prototype_predict(blocks, shot)
        protos = spy.call_args.args[1]
        sup = blocks[:, :, :shot].reshape(count, way * shot, dim)
        expected = reference_class_means(sup, np.repeat(np.arange(way), shot))
        assert protos.shape == expected.shape
        assert protos.tobytes() == expected.tobytes()


class TestFewShotAccuracy:
    def identity_params(self, d):
        p = network.init_params([d, d], seed=0)
        p.weights[0][...] = np.eye(d)
        p.biases[0][...] = 0.0
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

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 4),
           st.integers(1, 5), st.integers(0, 3),
           st.sampled_from([1, 255, 256, 257, 600]))
    def test_matches_per_episode_loop(self, seed, way, n_s, n_q, small,
                                      n_episodes):
        # `small` classes too small for the protocol sit among the eligible
        # ones; the episode counts cross episodes.CHUNK
        rng = np.random.default_rng(seed)
        per_class = n_s + n_q
        sizes = np.concatenate([
            rng.integers(per_class, per_class + 6, size=way + rng.integers(3)),
            rng.integers(1, per_class, size=small)])
        labels = rng.permutation(np.repeat(np.arange(sizes.size), sizes))
        feats = rng.normal(size=(labels.size, 6))
        params = network.init_params([6, 16, 4], seed=seed % 1000)
        proto = episodes.EpisodeConfig(n_c_test=way, n_s=n_s, n_q=n_q)
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        got = evaluate.few_shot_accuracy(params, feats, labels, proto,
                                         n_episodes, got_rng)
        want = reference_few_shot_accuracy(params, feats, labels, proto,
                                           n_episodes, want_rng)
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_nan_in_undrawn_row_is_ignored(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(40, 4))
        labels = np.repeat(np.arange(8), 5)
        labels[-3:] = 99  # a class of 3 cannot fill a 1 + 3 episode
        proto = episodes.EpisodeConfig(n_c_test=3, n_s=1, n_q=3)
        p = self.identity_params(4)
        members = evaluate.eval_members(p, feats, labels, proto)
        blocks = episodes.sample_episodes(members, 3, 4, 2,
                                          np.random.default_rng(9))
        undrawn = np.setdiff1d(np.concatenate(members), blocks)
        feats[-1, 0] = np.nan          # in the ineligible class
        feats[undrawn[0], 1] = np.inf  # eligible but in no episode
        got = evaluate.few_shot_accuracy(p, feats, labels, proto, 2,
                                         np.random.default_rng(9))
        assert got == reference_few_shot_accuracy(
            p, feats, labels, proto, 2, np.random.default_rng(9))

    def test_nan_in_drawn_row_raises(self):
        # 4 classes of exactly 4 rows, 4-way 1 + 3: every row is drawn
        feats = np.random.default_rng(10).normal(size=(16, 4))
        feats[13, 2] = np.nan
        labels = np.repeat(np.arange(4), 4)
        proto = episodes.EpisodeConfig(n_c_test=4, n_s=1, n_q=3)
        for score in (evaluate.few_shot_accuracy,
                      reference_few_shot_accuracy):
            with pytest.raises(InputError):
                score(self.identity_params(4), feats, labels, proto, 1,
                      np.random.default_rng(0))

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
