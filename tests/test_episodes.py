import numpy as np
import pytest

from uflst import cluster, episodes
from uflst.errors import ContractViolationError, EpisodeInfeasibleError


def make_pl(class_sizes):
    """PseudoLabeledSet with the given member count per class, kept indices
    assigned contiguously."""
    labels = np.concatenate([np.full(s, c) for c, s in enumerate(class_sizes)])
    n = labels.size
    return cluster.PseudoLabeledSet(
        kept_indices=np.arange(n),
        labels=labels.astype(np.int64),
        num_clusters=len(class_sizes),
        outlier_indices=np.empty(0, dtype=np.int64),
    )


class TestConfig:
    def test_presets(self):
        cfg = episodes.hard_triplet_preset()
        cfg.validate()
        assert cfg.batch_size == 128
        assert (cfg.n_c_train, cfg.n_e, cfg.n_c_test) == (32, 4, 5)

    def test_prototype_split_must_add_up(self):
        cfg = episodes.EpisodeConfig(n_e=4, n_s=2, n_q=3, mode=episodes.PROTOTYPE)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_triplet_needs_pairs(self):
        cfg = episodes.EpisodeConfig(n_e=1, mode=episodes.TRIPLET)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_unknown_mode(self):
        cfg = episodes.EpisodeConfig(mode="bogus")
        with pytest.raises(ValueError):
            cfg.validate()


class TestFeasibility:
    def test_eligible_classes(self):
        pl = make_pl([4, 3, 4, 2, 5])
        cfg = episodes.EpisodeConfig(n_c_train=3, n_e=4)
        report = episodes.check_feasibility(pl, cfg)
        assert np.array_equal(report.eligible_classes, [0, 2, 4])
        assert report.feasible
        report = episodes.check_feasibility(pl, cfg, n_c=4)
        assert not report.feasible


class TestSampling:
    def test_shapes_and_membership(self):
        pl = make_pl([6, 6, 6, 6, 6])
        cfg = episodes.EpisodeConfig(n_c_train=3, n_e=4)
        rng = np.random.default_rng(0)
        task = episodes.sample_episode(pl, cfg, rng)
        assert task.class_ids.size == 3
        assert np.unique(task.class_ids).size == 3
        for c, ex in zip(task.class_ids, task.example_indices):
            assert len(ex) == 4
            assert np.unique(ex).size == 4
            assert np.all(np.isin(ex, pl.class_members[c]))
        assert task.flat_indices().size == 12

    def test_infeasible_raises(self):
        pl = make_pl([4, 3])
        cfg = episodes.EpisodeConfig(n_c_train=2, n_e=4)
        with pytest.raises(EpisodeInfeasibleError):
            episodes.sample_episode(pl, cfg, np.random.default_rng(0))

    def test_deterministic_for_rng_state(self):
        pl = make_pl([8] * 10)
        cfg = episodes.EpisodeConfig(n_c_train=4, n_e=4)
        a = episodes.sample_episode(pl, cfg, np.random.default_rng(7))
        b = episodes.sample_episode(pl, cfg, np.random.default_rng(7))
        assert np.array_equal(a.class_ids, b.class_ids)
        for ea, eb in zip(a.example_indices, b.example_indices):
            assert np.array_equal(ea, eb)

    def test_way_override(self):
        pl = make_pl([8] * 10)
        cfg = episodes.EpisodeConfig(n_c_train=32, n_e=4)
        task = episodes.sample_episode(pl, cfg, np.random.default_rng(1), n_c=5)
        assert task.class_ids.size == 5

    def test_prototype_mode_splits(self):
        pl = make_pl([8] * 6)
        cfg = episodes.EpisodeConfig(n_c_train=3, n_e=4, n_s=1, n_q=3,
                                     mode=episodes.PROTOTYPE)
        task = episodes.sample_episode(pl, cfg, np.random.default_rng(2))
        for ex, sup, qry in zip(task.example_indices, task.support, task.query):
            assert np.array_equal(sup, ex[:1])
            assert np.array_equal(qry, ex[1:])

    def test_split_requires_prototype_mode(self):
        pl = make_pl([8] * 6)
        cfg = episodes.EpisodeConfig(n_c_train=3, n_e=4, mode=episodes.TRIPLET)
        task = episodes.sample_episode(pl, cfg, np.random.default_rng(3))
        assert task.support is None
        with pytest.raises(ContractViolationError):
            episodes.split_support_query(task, cfg)

    def test_class_coverage_over_many_samples(self):
        # every eligible class should eventually appear
        pl = make_pl([8] * 10)
        cfg = episodes.EpisodeConfig(n_c_train=3, n_e=4)
        rng = np.random.default_rng(4)
        seen = set()
        for _ in range(200):
            seen.update(episodes.sample_episode(pl, cfg, rng).class_ids.tolist())
        assert seen == set(range(10))
