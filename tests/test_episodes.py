import numpy as np
import pytest

from uflst import cluster, episodes
from uflst.errors import EpisodeInfeasibleError


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
        members = episodes.eligible_members(pl.class_members, 4)
        assert [m.tolist() for m in members] == [
            pl.class_members[c].tolist() for c in (0, 2, 4)]
        episodes.sample_episode(members, 3, 4, np.random.default_rng(0))
        with pytest.raises(EpisodeInfeasibleError):
            episodes.sample_episode(members, 4, 4, np.random.default_rng(0))


class TestSampling:
    def test_shapes_and_membership(self):
        pl = make_pl([6, 6, 6, 6, 6])
        rng = np.random.default_rng(0)
        block = episodes.sample_episode(pl.class_members, 3, 4, rng)
        assert block.shape == (3, 4)
        classes = pl.labels[block]
        # each row is one class, and no class or example repeats
        assert np.all(classes == classes[:, :1])
        assert np.unique(classes[:, 0]).size == 3
        assert np.unique(block).size == 12

    def test_infeasible_raises(self):
        pl = make_pl([4, 3])
        members = episodes.eligible_members(pl.class_members, 4)
        with pytest.raises(EpisodeInfeasibleError):
            episodes.sample_episode(members, 2, 4, np.random.default_rng(0))

    def test_deterministic_for_rng_state(self):
        pl = make_pl([8] * 10)
        a = episodes.sample_episode(pl.class_members, 4, 4,
                                    np.random.default_rng(7))
        b = episodes.sample_episode(pl.class_members, 4, 4,
                                    np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_way_override(self):
        # the training way may be narrower than n_c_train
        pl = make_pl([8] * 10)
        block = episodes.sample_episode(pl.class_members, 5, 4,
                                        np.random.default_rng(1))
        assert block.shape == (5, 4)

    def test_matches_class_then_member_draws(self):
        # classes first, then each class's members, from one rng: the
        # draw order that training and evaluation rely on
        pl = make_pl([8] * 6)
        block = episodes.sample_episode(pl.class_members, 3, 4,
                                        np.random.default_rng(2))
        rng = np.random.default_rng(2)
        chosen = rng.choice(6, size=3, replace=False)
        for c, row in zip(chosen, block):
            assert np.array_equal(
                row, rng.choice(pl.class_members[c], size=4, replace=False))

    def test_prototype_mode_splits(self):
        # support is the first n_s columns of each row
        block = episodes.sample_episode(make_pl([8] * 6).class_members, 3, 4,
                                        np.random.default_rng(3))
        labels, support = episodes.episode_layout(3, 4, 1)
        assert np.array_equal(block.ravel()[support], block[:, 0])
        assert np.array_equal(labels, np.repeat(np.arange(3), 4))

    def test_class_coverage_over_many_samples(self):
        # every eligible class should eventually appear
        pl = make_pl([8] * 10)
        rng = np.random.default_rng(4)
        seen = set()
        for _ in range(200):
            block = episodes.sample_episode(pl.class_members, 3, 4, rng)
            seen.update(pl.labels[block[:, 0]].tolist())
        assert seen == set(range(10))
