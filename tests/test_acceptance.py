"""End-to-end acceptance checks for the alternating clustering/training
pipeline.

Each test prints one summary line so a full run reads as a checklist:
oracle equivalence for the metric, clustering and scoring primitives;
gradient fidelity; analytic loss landmarks; a scaled-down behavioral
reproduction on a synthetic fixture; data-size and loss-variant trends;
bitwise determinism; and degenerate-input robustness.

Expected values come from independent re-implementations (set-enumeration
Jaccard, exhaustive region-query DBSCAN, contingency-table NMI, central
finite differences) or closed-form landmarks — never from the code under
test.
"""

import math
import time

import numpy as np
import pytest

from uflst import (
    cli,
    cluster,
    data,
    episodes,
    evaluate,
    losses,
    metric,
    network,
    pipeline,
)

import test_cluster as cluster_oracles
import test_evaluate as evaluate_oracles
import test_metric as metric_oracles


def report(num, name, ok, detail):
    print(f"\n[{num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# Behavioral fixture: classes are rays from the origin, so raw distances are
# dominated by the shared radial spread while identity is angular.  Five
# heldout classes sit just off five tightly bundled train rays, making
# transfer possible once training has contracted the radial direction.
# ---------------------------------------------------------------------------

def ray_fixture():
    spec = data.SyntheticSpec(kind="rays", seed=2)
    return data.generate_synthetic(spec)


def behavioral_config(loss_kind=losses.HARD_TRIPLET_KIND):
    return pipeline.TrainConfig(
        rounds=10,
        epochs_per_round=8,
        seed=2,
        hidden_dims=(64, 64),
        embedding_dim=16,
        knn_k=12,
        eval_episodes=1000,
        optimizer=network.OptimizerConfig(learning_rate=0.0015),
        dbscan=cluster.DbscanConfig(ms=4, p_fraction=0.035),
        episode=episodes.EpisodeConfig(),
        loss=losses.LossConfig(kind=loss_kind),
    )


def subsample(train, fraction, protocol_seed=0):
    """Global random row subsample, seeded by the protocol not the data."""
    rng = np.random.default_rng([2, protocol_seed, int(fraction * 100)])
    size = int(round(fraction * train.n))
    rows = np.sort(rng.choice(train.n, size=size, replace=False))
    return train.subset(rows)


@pytest.fixture(scope="module")
def behavioral_run():
    """Train the full fixture once; several criteria share this run."""
    train, test = ray_fixture()
    cfg = behavioral_config()
    untrained = network.init_params(cfg.layer_dims(train.dim), cfg.seed)
    acc_untrained, _ = evaluate.few_shot_accuracy(
        untrained, test.features, test.labels, cfg.episode, 1000,
        np.random.default_rng(123),
    )
    start = time.perf_counter()
    result = pipeline.run_training(cfg, train, eval_dataset=test)
    elapsed = time.perf_counter() - start
    return {
        "train": train,
        "test": test,
        "result": result,
        "elapsed": elapsed,
        "acc_untrained": acc_untrained,
    }


class TestOracleEquivalence:
    def test_jaccard_matches_set_enumeration(self):
        rng = np.random.default_rng(42)
        start = time.perf_counter()
        for trial in range(100):
            n = int(rng.integers(5, 65))
            pts = rng.normal(size=(n, int(rng.integers(2, 8))))
            k = min(int(rng.choice([3, 5, 10])), n - 1)
            dist = metric.pairwise_sq_euclidean(pts)
            knn = metric.knn_sets(dist, k)
            rec = metric.k_reciprocal_sets(knn)
            got = metric.jaccard_matrix(rec).values
            expected = metric_oracles.oracle_jaccard(rec)
            assert np.array_equal(got, expected), f"trial {trial} differs"
        elapsed = time.perf_counter() - start
        report(1, "k-reciprocal Jaccard equals set-enumeration oracle",
               elapsed < 10.0, f"100 instances exact, {elapsed:.1f}s < 10s")

    def test_dbscan_matches_region_query_oracle(self):
        rng = np.random.default_rng(7)
        start = time.perf_counter()
        for trial in range(100):
            n = int(rng.integers(10, 201))
            pts = rng.normal(size=(n, 2)) * rng.choice([0.5, 1.0, 3.0])
            d = metric.pairwise_sq_euclidean(pts)
            epsilon = float(rng.uniform(0.05, 2.0))
            ms = int(rng.integers(2, 6))
            labels = cluster.dbscan_fit(cluster_oracles.all_pairs(d),
                                        epsilon, ms)
            assigned, noise, _ = cluster_oracles.oracle_dbscan_partition(
                d, epsilon, ms
            )
            oracle_labels = np.array(
                [assigned.get(i, cluster.NOISE) for i in range(n)]
            )
            same = np.array_equal(
                cluster_oracles.co_membership(labels),
                cluster_oracles.co_membership(oracle_labels),
            )
            assert same, f"trial {trial}: co-membership differs"
        elapsed = time.perf_counter() - start
        report(2, "density clustering equals region-query oracle",
               elapsed < 30.0,
               f"100 instances co-membership-equal, {elapsed:.1f}s < 30s")

    def test_nmi_matches_contingency_oracle(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for trial in range(100):
            n = int(rng.integers(2, 200))
            a = rng.integers(0, int(rng.integers(1, 12)) + 1, size=n).tolist()
            b = rng.integers(0, int(rng.integers(1, 12)) + 1, size=n).tolist()
            got = evaluate.nmi(a, b)
            expected = evaluate_oracles.oracle_nmi(a, b)
            worst = max(worst, abs(got - expected))
        report(3, "NMI equals contingency-table oracle", worst < 1e-12,
               f"100 label pairs, max abs diff {worst:.2e} < 1e-12")


class TestGradientFidelity:
    def test_all_losses_match_finite_differences(self):
        start = time.perf_counter()
        results, ok = cli.run_gradient_suite(trials=20)
        elapsed = time.perf_counter() - start
        detail = ", ".join(f"{k} {v:.2e}" for k, v in results.items())
        report(4, "analytic gradients match central differences",
               ok and elapsed < 60.0,
               f"20 batches/loss, max rel err: {detail}; {elapsed:.1f}s < 60s")


class TestLossLandmarks:
    def test_closed_form_values(self):
        # K supports equidistant from the query: softmax is uniform, so the
        # negative log-likelihood is exactly ln K
        errs = []
        for k in (2, 3, 5, 8):
            # support c at 3 e_c, every query at the origin
            blocks = np.zeros((k, 2, k))
            blocks[:, 0] = 3.0 * np.eye(k)
            loss, _ = losses.prototype_loss(blocks, 1)
            errs.append(abs(loss - math.log(k)))
        proto_err = max(errs)

        # each row its own positive and the other row, at squared distance
        # exactly the 0.5 margin, its negative: every soft-margin
        # pre-activation is exactly zero, so the value is ln 2
        z = np.array([[0.0, 0.0], [0.5, 0.5]])
        own, other = np.array([0, 1]), np.array([1, 0])
        soft, _ = losses.triplet_loss(z, own, other, soft=True)
        soft_err = abs(soft - math.log(2.0))

        # negatives far beyond margin reach: the hinge is exactly zero
        far = np.array([[0.0, 0.0], [10.0, 10.0]])
        hinge, grad = losses.triplet_loss(far, own, other)

        ok = (proto_err < 1e-9 and soft_err < 1e-12 and hinge == 0.0
              and np.all(grad == 0.0))
        report(5, "loss landmarks hit closed-form values", ok,
               f"uniform-softmax err {proto_err:.1e} < 1e-9, "
               f"ln2 err {soft_err:.1e} < 1e-12, inactive hinge == 0")


class TestBehavioralReproduction:
    def test_fixture_trains_and_transfers(self, behavioral_run):
        history = behavioral_run["result"].history
        nmis = [m.nmi for m in history]
        accs = [m.accuracy_mean for m in history]
        acc0 = behavioral_run["acc_untrained"]
        corr = float(np.corrcoef(nmis, accs)[0, 1])
        elapsed = behavioral_run["elapsed"]
        ok = (
            nmis[-1] >= 0.8
            and nmis[-1] > nmis[0]
            and accs[-1] >= 0.85
            and acc0 <= 0.30
            and elapsed <= 300.0
            and corr > 0.9
        )
        report(
            6, "behavioral reproduction on the ray fixture", ok,
            f"NMI {nmis[0]:.3f}->{nmis[-1]:.3f} (>=0.8, rising), "
            f"5-way 1-shot {acc0:.3f}->{accs[-1]:.3f} (<=0.30 -> >=0.85), "
            f"NMI/acc corr {corr:.3f} > 0.9, {elapsed:.0f}s <= 300s",
        )


class TestDataSizeTrend:
    def test_more_data_does_not_hurt(self, behavioral_run):
        train = behavioral_run["train"]
        test = behavioral_run["test"]
        finals = {}
        for fraction in (0.25, 0.50):
            sub = subsample(train, fraction)
            result = pipeline.run_training(
                behavioral_config(), sub, eval_dataset=test
            )
            finals[fraction] = result.history[-1].accuracy_mean
        finals[1.0] = behavioral_run["result"].history[-1].accuracy_mean
        tolerance = 0.02
        ok = (finals[0.25] <= finals[0.50] + tolerance
              and finals[0.50] <= finals[1.0] + tolerance)
        report(
            7, "final accuracy non-decreasing in training-set size", ok,
            f"25% {finals[0.25]:.3f} <= 50% {finals[0.50]:.3f} "
            f"<= 100% {finals[1.0]:.3f} (ties within 2 points)",
        )


class TestLossVariantTrend:
    def test_hard_mining_keeps_pace(self, behavioral_run):
        train = behavioral_run["train"]
        test = behavioral_run["test"]
        curves = {
            "hard_triplet": [
                m.accuracy_mean for m in behavioral_run["result"].history
            ]
        }
        for kind in (losses.TRIPLET_KIND, losses.SOFT_MARGIN_KIND):
            result = pipeline.run_training(
                behavioral_config(kind), train, eval_dataset=test
            )
            curves[kind] = [m.accuracy_mean for m in result.history]
        for kind, curve in curves.items():
            rendered = " ".join(f"{a:.3f}" for a in curve)
            print(f"\n     {kind:>20s} accuracy curve: {rendered}")
        hard = curves["hard_triplet"][-1]
        plain = curves[losses.TRIPLET_KIND][-1]
        ok = hard >= plain - 0.02
        report(
            8, "hard-mined triplets within 2 points of plain triplets", ok,
            f"hard {hard:.3f} >= plain {plain:.3f} - 0.02 "
            f"(soft-margin {curves[losses.SOFT_MARGIN_KIND][-1]:.3f})",
        )


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, tmp_path):
        synth = tmp_path / "synth"
        assert cli.main([
            "synth", "--out", str(synth),
            "synthetic.num_classes=6", "synthetic.points_per_class=12",
            "synthetic.dim=8", "synthetic.separation=10.0",
        ]) == 0
        train_args = [
            "rounds=3", "epochs_per_round=2", "hidden_dims=[16]",
            "embedding_dim=8", "knn_k=8", "eval_episodes=10",
            "dbscan.p_fraction=0.15",
            "episode.n_c_train=4", "episode.n_c_test=3",
        ]
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        for run_dir in (run_a, run_b):
            assert cli.main([
                "train", "--data", str(synth), "--run-dir", str(run_dir),
                *train_args,
            ]) == 0
        metrics_same = (run_a / "metrics.csv").read_bytes() == \
                       (run_b / "metrics.csv").read_bytes()
        model_same = (run_a / "final_model.ckpt").read_bytes() == \
                     (run_b / "final_model.ckpt").read_bytes()
        report(9, "identical train invocations are byte-identical",
               metrics_same and model_same,
               "metrics.csv and final_model.ckpt match bitwise")


class TestRobustness:
    def small_config(self, rounds=1):
        return pipeline.TrainConfig(
            rounds=rounds, epochs_per_round=2, seed=0, hidden_dims=(16,),
            embedding_dim=8, knn_k=8, eval_episodes=0,
            dbscan=cluster.DbscanConfig(ms=4, p_fraction=0.15),
            episode=episodes.EpisodeConfig(n_c_train=4, n_c_test=3, n_e=4,
                                           mode=episodes.TRIPLET),
            loss=losses.LossConfig(kind=losses.HARD_TRIPLET_KIND),
        )

    def test_degenerate_inputs_survive(self, tmp_path):
        import warnings

        from uflst.errors import DegenerateGeometryWarning

        # a tiny epsilon override marks everything noise on the first pass;
        # the fallback ladder must engage and the run must finish cleanly
        spec = data.SyntheticSpec(num_classes=6, points_per_class=12, dim=8,
                                  separation=10.0, heldout_classes=0, seed=0)
        train, _ = data.generate_synthetic(spec)
        cfg = self.small_config()
        cfg.dbscan.epsilon_override = 1e-12
        cold = pipeline.run_training(cfg, train, run_dir=str(tmp_path))
        ladder_ok = (cold.status in ("completed", "aborted")
                     and bool(cold.round_infos[0].fallback_rungs))

        # an all-coincident dataset must complete with a logged warning
        coincident = data.Dataset(features=np.ones((40, 4)),
                                  labels=np.zeros(40, dtype=np.int64))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flat = pipeline.run_training(self.small_config(), coincident)
        warned = any(issubclass(w.category, DegenerateGeometryWarning)
                     for w in caught)
        coincident_ok = flat.status in ("completed", "aborted") and warned

        report(10, "degenerate inputs finish without crashing",
               ladder_ok and coincident_ok,
               f"tiny-epsilon ladder rungs {cold.round_infos[0].fallback_rungs}"
               f", status {cold.status}; coincident status {flat.status} "
               "with degenerate-geometry warning")
