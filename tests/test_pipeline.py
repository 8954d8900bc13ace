import math
import os

import numpy as np
import pytest

from uflst import cluster, data, episodes, losses, metric, network, pipeline
from uflst.errors import RoundFailedError
from test_episodes import reference_sample_episode
from test_network import params_equal


def small_dataset(seed=0, num_classes=6, points=12, dim=8):
    spec = data.SyntheticSpec(num_classes=num_classes, points_per_class=points,
                              dim=dim, separation=10.0, heldout_classes=5,
                              seed=seed)
    return data.generate_synthetic(spec)


def two_triples():
    """Two tight triples far apart.  With knn_k=2 every Jaccard edge is
    2/3, so DBSCAN with ms=4 finds a cluster only at epsilon >= 1."""
    return data.Dataset(features=np.array([
        [0.0, 0.0], [0.01, 0.0], [0.0, 0.01],
        [100.0, 100.0], [100.01, 100.0], [100.0, 100.01]]))


def small_config(rounds=2, **kw):
    cfg = pipeline.TrainConfig(
        rounds=rounds,
        epochs_per_round=2,
        seed=0,
        hidden_dims=(16,),
        embedding_dim=8,
        knn_k=8,
        eval_episodes=10,
        dbscan=cluster.DbscanConfig(ms=4, p_fraction=0.15),
        episode=episodes.EpisodeConfig(n_c_train=4, n_c_test=3, n_e=4,
                                       mode=episodes.TRIPLET),
        loss=losses.LossConfig(kind=losses.HARD_TRIPLET_KIND),
        **kw,
    )
    cfg.validate()
    return cfg


class TestClusteringPhase:
    def test_recovers_blobs(self):
        train, _ = small_dataset()
        cfg = small_config()
        params = network.init_params(cfg.layer_dims(train.dim), seed=0)
        pl, epsilon, rungs = pipeline.run_clustering_phase(
            params, train.features, cfg.knn_k, cfg.dbscan
        )
        assert pl.num_clusters == 6  # matches the ground-truth class count
        assert epsilon > 0
        assert pl.kept_indices.size + pl.outlier_indices.size == train.n
        from uflst import evaluate
        assert evaluate.nmi(train.labels[pl.kept_indices], pl.labels) > 0.95

    def test_epsilon_override_skips_selection(self):
        train, _ = small_dataset()
        cfg = small_config()
        cfg.dbscan.epsilon_override = 0.9
        params = network.init_params(cfg.layer_dims(train.dim), seed=0)
        _, epsilon, _ = pipeline.run_clustering_phase(
            params, train.features, cfg.knn_k, cfg.dbscan
        )
        assert epsilon == 0.9

    def test_tiny_epsilon_override_no_crash(self, tmp_path):
        # a tiny epsilon override marks everything noise on the first try;
        # the ladder engages and the run finishes cleanly either way
        train, _ = small_dataset()
        cfg = small_config(rounds=1)
        cfg.dbscan.epsilon_override = 1e-12
        result = pipeline.run_training(cfg, train, run_dir=str(tmp_path))
        assert result.status in ("completed", "aborted")
        assert result.round_infos[0].fallback_rungs  # ladder engaged

    def test_ladder_exhaustion_raises(self):
        # far-apart singletons: no epsilon rescue can build a 4-member core
        feats = np.arange(6, dtype=np.float64)[:, None] * 1000.0
        feats = np.repeat(feats, 2, axis=1)
        cfg = small_config()
        cfg.dbscan.epsilon_override = 1e-12
        cfg.dbscan.ms = 5
        params = network.init_params(cfg.layer_dims(2), seed=0)
        # with N=6 and k=8 clamped, reciprocal sets make everything
        # mutually close; use k=1 to keep the geometry degenerate
        with pytest.warns(UserWarning):
            with pytest.raises(RoundFailedError):
                pipeline.run_clustering_phase(params, feats, 20, cfg.dbscan)

    def test_ladder_order_pinned(self, monkeypatch):
        # every attempt comes back all noise, so the whole ladder runs
        train, _ = small_dataset()
        cfg = small_config()
        cfg.dbscan.epsilon_override = 0.5
        cfg.dbscan.ms = 16
        attempts = []

        def all_noise(jm, eps, ms):
            attempts.append((eps, ms))
            return np.full(jm.n, cluster.NOISE)

        monkeypatch.setattr(cluster, "dbscan_fit", all_noise)
        params = network.init_params(cfg.layer_dims(train.dim), seed=0)
        with pytest.raises(RoundFailedError) as exc:
            pipeline.run_clustering_phase(params, train.features, cfg.knn_k,
                                          cfg.dbscan)
        # the third x1.5 rung would repeat (1.0, 16) and is skipped
        assert attempts == [(0.5, 16), (0.75, 16), (1.0, 16),
                            (1.0, 8), (1.0, 4), (1.0, 2)]
        assert str(exc.value) == (
            "clustering fallback ladder exhausted (tried ['epsilon_x1.5_#1', "
            "'epsilon_x1.5_#2', 'ms_halved_to_8', 'ms_halved_to_4', "
            "'ms_halved_to_2'])")

    def test_ladder_never_lowers_epsilon(self):
        # an override above 1 has no x1.5 rung: 1.0 gives the same
        # neighbourhoods and would repeat the failed attempt
        assert list(pipeline._fallback_ladder(5.0, 4)) == [
            (5.0, 4, None), (5.0, 2, "ms_halved_to_2")]

    def test_ladder_caps_epsilon_at_one(self):
        # eps 0.5 and 0.75 find no core point; the second x1.5 rung (1.125)
        # succeeds, capped to 1.0, with the labels 1.125 gives
        ds = two_triples()
        cfg = small_config(rounds=1)
        cfg.knn_k = 2
        cfg.dbscan.epsilon_override = 0.5
        result = pipeline.run_training(cfg, ds)
        info = result.round_infos[0]
        assert info.epsilon == 1.0
        assert info.fallback_rungs == ["epsilon_x1.5_#1", "epsilon_x1.5_#2"]
        params = network.init_params(cfg.layer_dims(ds.dim), seed=0)
        pl, _, _ = pipeline.run_clustering_phase(params, ds.features,
                                                 cfg.knn_k, cfg.dbscan)
        jm = metric.build_jaccard(network.forward(params, ds.features)[0], 2)
        uncapped = cluster.dbscan_fit(jm, 0.5 * 1.5 * 1.5, cfg.dbscan.ms)
        assert np.array_equal(uncapped, [0] * 6)
        assert np.array_equal(pl.labels, uncapped)


class TestEpisodicPhase:
    def make_pl(self, sizes):
        labels = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
        return cluster.PseudoLabeledSet(
            kept_indices=np.arange(labels.size),
            labels=labels.astype(np.int64),
            num_clusters=len(sizes),
            outlier_indices=np.empty(0, dtype=np.int64),
        )

    def test_derived_episode_count(self):
        train, _ = small_dataset()
        cfg = small_config()
        pl = self.make_pl([12] * 6)
        params = network.init_params(cfg.layer_dims(train.dim), seed=0)
        rng = np.random.default_rng(0)
        _, mean_loss, way, count = pipeline.run_episodic_phase(
            params, train.features, pl, cfg, rng
        )
        assert way == 4
        # 72 kept points, batch 16 -> 5 batches per epoch, 2 epochs
        assert count == 2 * math.ceil(72 / 16)
        assert math.isfinite(mean_loss)

    def test_way_reduction(self):
        train, _ = small_dataset()
        cfg = small_config()
        cfg.episode.n_c_train = 32
        pl = self.make_pl([12] * 6)  # only 6 eligible classes
        params = network.init_params(cfg.layer_dims(train.dim), seed=0)
        _, _, way, count = pipeline.run_episodic_phase(
            params, train.features, pl, cfg, np.random.default_rng(0)
        )
        assert way == 6 and count > 0

    def test_below_floor_skips_training(self):
        train, _ = small_dataset()
        cfg = small_config()
        pl = self.make_pl([12, 12])  # 2 classes < floor of n_c_test=3
        params = network.init_params(cfg.layer_dims(train.dim), seed=0)
        before = params.copy()
        _, mean_loss, way, count = pipeline.run_episodic_phase(
            params, train.features, pl, cfg, np.random.default_rng(0)
        )
        assert count == 0 and math.isnan(mean_loss)
        assert params_equal(params, before)

    def test_parameters_change_when_training(self):
        train, _ = small_dataset()
        cfg = small_config()
        pl = self.make_pl([12] * 6)
        params = network.init_params(cfg.layer_dims(train.dim), seed=0)
        before = params.copy()
        pipeline.run_episodic_phase(params, train.features, pl, cfg,
                                    np.random.default_rng(0))
        assert not np.array_equal(params.weights[0], before.weights[0])


class TestRunTraining:
    def test_full_loop_history(self, tmp_path):
        train, test = small_dataset()
        cfg = small_config(rounds=2)
        result = pipeline.run_training(cfg, train, eval_dataset=test,
                                       run_dir=str(tmp_path))
        assert result.status == "completed"
        assert len(result.history) == 2
        assert [m.round for m in result.history] == [1, 2]
        for m in result.history:
            assert math.isfinite(m.accuracy_mean)
        assert os.path.exists(tmp_path / "metrics.csv")
        assert os.path.exists(tmp_path / "final_model.ckpt")
        assert os.path.exists(tmp_path / "checkpoints" / "round_0001.ckpt")
        assert os.path.exists(tmp_path / "pseudo_labels" / "round_0002.csv")

    def test_no_eval_dataset_gives_nan_accuracy(self):
        train, _ = small_dataset()
        cfg = small_config(rounds=1)
        result = pipeline.run_training(cfg, train)
        assert math.isnan(result.history[0].accuracy_mean)

    def test_determinism_bitwise(self, tmp_path):
        train, test = small_dataset()
        cfg = small_config(rounds=2)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        ra = pipeline.run_training(cfg, train, eval_dataset=test,
                                   run_dir=str(dir_a))
        rb = pipeline.run_training(cfg, train, eval_dataset=test,
                                   run_dir=str(dir_b))
        assert params_equal(ra.params, rb.params)
        assert (dir_a / "metrics.csv").read_bytes() == \
               (dir_b / "metrics.csv").read_bytes()
        assert (dir_a / "final_model.ckpt").read_bytes() == \
               (dir_b / "final_model.ckpt").read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        train, test = small_dataset()
        cfg3 = small_config(rounds=3)
        full_dir = tmp_path / "full"
        full = pipeline.run_training(cfg3, train, eval_dataset=test,
                                     run_dir=str(full_dir))

        cfg1 = small_config(rounds=1)
        part_dir = tmp_path / "part"
        pipeline.run_training(cfg1, train, eval_dataset=test,
                              run_dir=str(part_dir))
        resumed_dir = tmp_path / "resumed"
        resumed = pipeline.run_training(
            cfg3, train, eval_dataset=test, run_dir=str(resumed_dir),
            resume_from=str(part_dir / "checkpoints" / "round_0001.ckpt"),
        )
        assert params_equal(full.params, resumed.params)
        assert (full_dir / "final_model.ckpt").read_bytes() == \
               (resumed_dir / "final_model.ckpt").read_bytes()
        assert [m.round for m in resumed.history] == [1, 2, 3]

    def test_aborted_run_saves_state(self, tmp_path):
        # a tiny epsilon override with no zero-distance pairs defeats every
        # ladder rung, so the run must abort gracefully with state on disk
        train, _ = small_dataset()
        cfg = small_config(rounds=3)
        cfg.dbscan.epsilon_override = 1e-12
        result = pipeline.run_training(cfg, train, run_dir=str(tmp_path))
        assert result.status == "aborted"
        assert result.round_infos[-1].trained is False
        failed = [p for p in os.listdir(tmp_path / "checkpoints")
                  if p.endswith("_failed.ckpt")]
        assert failed
        state = pipeline.load_checkpoint(
            str(tmp_path / "checkpoints" / failed[0])
        )
        assert state.round == 0

    def test_aborted_after_resume_saves_history(self, tmp_path):
        train, _ = small_dataset()
        first = tmp_path / "first"
        pipeline.run_training(small_config(rounds=2), train,
                              run_dir=str(first))
        round_2 = first / "checkpoints" / "round_0002.ckpt"
        cfg = small_config(rounds=4)
        cfg.dbscan.epsilon_override = 1e-12
        resumed = tmp_path / "resumed"
        result = pipeline.run_training(cfg, train, run_dir=str(resumed),
                                       resume_from=str(round_2))
        assert result.status == "aborted"
        assert [info.round for info in result.round_infos] == [3]
        assert os.listdir(resumed / "checkpoints") == ["round_0003_failed.ckpt"]
        failed = resumed / "checkpoints" / "round_0003_failed.ckpt"
        # nothing trained in round 3: the same state as round 2, byte for byte
        assert failed.read_bytes() == round_2.read_bytes()
        state = pipeline.load_checkpoint(str(failed))
        assert state.round == 2
        again = tmp_path / "again.ckpt"
        pipeline.save_checkpoint(str(again), state)
        assert again.read_bytes() == failed.read_bytes()
        assert (resumed / "metrics.csv").read_bytes() == \
            data.format_history(state.history, "\r\n").encode()

    def test_metrics_csv_is_the_trailer_text(self, tmp_path):
        train, _ = small_dataset()
        pipeline.run_training(small_config(rounds=2), train,
                              run_dir=str(tmp_path))
        ckpt = tmp_path / "final_model.ckpt"
        text = data.format_history(pipeline.load_checkpoint(str(ckpt)).history)
        assert text.count("\n") == 3
        assert ckpt.read_bytes().endswith(text.encode())
        assert (tmp_path / "metrics.csv").read_bytes() == \
            text.replace("\n", "\r\n").encode()

    def test_all_coincident_points_warn_but_complete(self):
        import warnings
        from uflst.errors import DegenerateGeometryWarning

        feats = np.ones((40, 4))
        ds = data.Dataset(features=feats, labels=np.zeros(40, dtype=np.int64))
        cfg = small_config(rounds=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = pipeline.run_training(cfg, ds)
        assert result.status in ("completed", "aborted")
        assert any(issubclass(w.category, DegenerateGeometryWarning)
                   for w in caught)


class TestBatchedSamplingBytes:
    """Training with `episodes.sample_episodes` writes the same bytes as
    drawing every episode with `Generator.choice` calls, each followed by
    the random-triplet `Generator.integers(0, bounds)` call."""

    @staticmethod
    def looped(members, n_c, n_e, count, rng, bounds=()):
        blocks, ranks = [], []
        for _ in range(count):
            blocks.append(reference_sample_episode(members, n_c, n_e, rng))
            ranks.append(rng.integers(0, bounds))
        return np.stack(blocks), np.stack(ranks)

    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_run_matches_choice_loop(self, kind, tmp_path, monkeypatch):
        train, test = small_dataset()
        cfg = small_config(rounds=2)
        cfg.loss.kind = kind
        if kind == losses.PROTOTYPE_KIND:
            cfg.episode = episodes.EpisodeConfig(
                n_c_train=4, n_c_test=3, n_e=4, n_s=1, n_q=3,
                mode=episodes.PROTOTYPE)
        cfg.validate()
        batched, looped = tmp_path / "batched", tmp_path / "looped"
        pipeline.run_training(cfg, train, eval_dataset=test,
                              run_dir=str(batched))
        monkeypatch.setattr(episodes, "sample_episodes", self.looped)
        pipeline.run_training(cfg, train, eval_dataset=test,
                              run_dir=str(looped))
        for name in ("metrics.csv", "final_model.ckpt"):
            assert (batched / name).read_bytes() == (looped / name).read_bytes()


class TestCheckpointState:
    def test_round_trip_with_history(self, tmp_path):
        p = network.init_params([4, 8, 3], seed=1)
        import uflst.evaluate as evaluate
        history = [
            evaluate.RoundMetrics(1, 0.25, 4, 2, 6.5, float("nan"),
                                  float("nan"), 1.5),
            evaluate.RoundMetrics(2, 0.5, 5, 1, 7.0, 0.75, 0.1, 0.9),
        ]
        path = tmp_path / "state.ckpt"
        pipeline.save_checkpoint(
            str(path), pipeline.RoundState(round=2, params=p, history=history)
        )
        state = pipeline.load_checkpoint(str(path))
        assert state.round == 2
        assert params_equal(state.params, p)
        assert len(state.history) == 2
        assert state.history[0].nmi == 0.25
        assert math.isnan(state.history[0].accuracy_mean)
        assert state.history[1].mean_loss == 0.9

    def test_multi_layer_reload_embeds_identically(self, tmp_path):
        p = network.init_params([5, 8, 8, 3], seed=4)
        x = np.random.default_rng(4).normal(size=(7, 5))
        emb, cache = network.forward(p, x)
        grads = network.backward(p, cache, emb)
        network.adam_step(p, grads, network.OptimizerConfig(), epoch=1)
        path = tmp_path / "state.ckpt"
        pipeline.save_checkpoint(
            str(path), pipeline.RoundState(round=1, params=p, history=[])
        )
        loaded = pipeline.load_checkpoint(str(path)).params
        assert np.array_equal(network.forward(loaded, x)[0],
                              network.forward(p, x)[0])

    def test_plain_model_checkpoint_loads(self, tmp_path):
        # a bare model file (no trailer) is accepted with round 0
        p = network.init_params([4, 3], seed=2)
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as f:
            network.write_params(f, p)
        state = pipeline.load_checkpoint(str(path))
        assert state.round == 0 and state.history == []

    def test_atomic_write_replaces(self, tmp_path):
        p = network.init_params([4, 3], seed=3)
        path = tmp_path / "state.ckpt"
        pipeline.save_checkpoint(
            str(path), pipeline.RoundState(round=1, params=p, history=[])
        )
        pipeline.save_checkpoint(
            str(path), pipeline.RoundState(round=2, params=p, history=[])
        )
        assert pipeline.load_checkpoint(str(path)).round == 2
        assert not os.path.exists(str(path) + ".tmp")
