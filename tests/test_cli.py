import argparse
import csv
import logging
import os
import platform
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import uflst
from uflst import cli, data, network
from test_pipeline import two_triples


def run_cli(args):
    return cli.main(args)


def cli_process(*args):
    """`uflst ARGS` in a child process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-m", "uflst.cli", *args],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )


def cli_process_capped(limit, *args):
    """`uflst ARGS` in a child process with one BLAS thread and its address
    space capped at `limit` bytes (RLIMIT_AS)."""
    script = ("import resource, sys; "
              f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
              "from uflst import cli; sys.exit(cli.main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, UFLST_THREADS="1"),
    )


def assert_one_error_line(proc):
    """Exit 1, nothing on stdout and one `uflst: error:` line on stderr,
    which is returned."""
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("uflst: error:")
    return lines[0]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = run_cli([
        "synth", "--out", str(out),
        "synthetic.num_classes=6", "synthetic.points_per_class=12",
        "synthetic.dim=8", "synthetic.heldout_classes=5",
        "synthetic.separation=10.0",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_run(synth_dir, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("run")
    rc = run_cli([
        "train", "--data", str(synth_dir), "--run-dir", str(run_dir),
        "rounds=2", "epochs_per_round=2", "hidden_dims=[16]",
        "embedding_dim=8", "knn_k=8", "eval_episodes=10",
        "dbscan.p_fraction=0.15",
        "episode.n_c_train=4", "episode.n_c_test=3",
    ])
    assert rc == 0
    return run_dir


class TestSynth:
    def test_outputs(self, synth_dir):
        for name in ("train.raw64", "test.raw64", "train.labels.csv",
                     "test.labels.csv", "config.yaml"):
            assert os.path.exists(synth_dir / name)
        with open(synth_dir / "train.labels.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["index", "label"]
        assert len(rows) == 1 + 6 * 12


class TestTrain:
    def test_run_dir_artifacts(self, trained_run):
        for name in ("config.yaml", "run_meta.yaml", "run.log",
                     "metrics.csv", "final_model.ckpt"):
            assert os.path.exists(trained_run / name)
        assert os.path.exists(trained_run / "checkpoints" / "round_0002.ckpt")
        assert os.path.exists(trained_run / "pseudo_labels" / "round_0001.csv")

    def test_metrics_rows(self, trained_run):
        with open(trained_run / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 3  # header + 2 rounds
        assert rows[1][0] == "1" and rows[2][0] == "2"

    def test_config_snapshot_reflects_overrides(self, trained_run):
        import yaml
        with open(trained_run / "config.yaml") as f:
            snap = yaml.safe_load(f)
        assert snap["rounds"] == 2
        assert snap["knn_k"] == 8


class TestEval:
    def test_eval_runs(self, synth_dir, trained_run, capsys):
        rc = run_cli([
            "eval", "--checkpoint", str(trained_run / "final_model.ckpt"),
            "--data", str(synth_dir), "--episodes", "10",
            "episode.n_c_test=3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3-way" in out and "accuracy" in out


    @pytest.mark.parametrize("episodes", ["-1", "0"])
    def test_fewer_than_one_episode_exits_1(self, synth_dir, trained_run,
                                            episodes):
        proc = cli_process(
            "eval", "--checkpoint", str(trained_run / "final_model.ckpt"),
            "--data", str(synth_dir), "--episodes", episodes,
            "episode.n_c_test=3")
        assert "Warning" not in proc.stderr
        assert_one_error_line(proc)

    def test_negative_seed_exits_1(self, synth_dir, trained_run):
        assert_one_error_line(cli_process(
            "eval", "--checkpoint", str(trained_run / "final_model.ckpt"),
            "--data", str(synth_dir), "--seed", "-1", "episode.n_c_test=3"))


class TestCluster:
    def test_cluster_runs(self, synth_dir, trained_run, tmp_path, capsys):
        out_csv = tmp_path / "pl.csv"
        rc = run_cli([
            "cluster", "--checkpoint", str(trained_run / "final_model.ckpt"),
            "--features", str(synth_dir / "train.raw64"),
            "--out", str(out_csv), "knn_k=8",
        ])
        assert rc == 0
        with open(out_csv, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["index", "pseudo_label", "round"]
        assert len(rows) == 1 + 72

    def test_printed_epsilon_capped_at_one(self, tmp_path, capsys):
        # the second x1.5 rung (1.125) is the first to find a core point,
        # and it is capped to 1.0
        data.save_raw64(tmp_path / "x.raw64", two_triples().features)
        with open(tmp_path / "model.ckpt", "wb") as f:
            network.write_params(f, network.init_params([2, 16, 8], seed=0))
        rc = run_cli([
            "cluster", "--checkpoint", str(tmp_path / "model.ckpt"),
            "--features", str(tmp_path / "x.raw64"),
            "--out", str(tmp_path / "pl.csv"), "knn_k=2", "dbscan.ms=4",
            "dbscan.epsilon_override=0.5",
        ])
        assert rc == 0
        assert capsys.readouterr().out == (
            "cluster: 1 clusters, 0 outliers, epsilon=1, fallbacks="
            "['epsilon_x1.5_#1', 'epsilon_x1.5_#2']\n")
        with open(tmp_path / "pl.csv", newline="") as f:
            assert [row[1] for row in csv.reader(f)][1:] == ["0"] * 6

    def test_non_raw64_features_exit_1(self, trained_run, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        line = assert_one_error_line(cli_process(
            "cluster", "--checkpoint", str(trained_run / "final_model.ckpt"),
            "--features", str(path), "--out", str(tmp_path / "pl.csv")))
        assert line.startswith(f"uflst: error: {path}: bad raw64 magic")
        assert line.endswith("at byte 0")
        assert not (tmp_path / "pl.csv").exists()

    def test_fmt_option_is_gone(self, synth_dir, trained_run, tmp_path):
        proc = cli_process(
            "cluster", "--checkpoint", str(trained_run / "final_model.ckpt"),
            "--features", str(synth_dir / "train.raw64"),
            "--out", str(tmp_path / "pl.csv"), "--fmt", "raw64")
        assert proc.returncode == 2
        assert "unrecognized arguments: --fmt" in proc.stderr


class TestErrors:
    def test_missing_config_exits_2(self, synth_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["synth", "--out", str(tmp_path / "x"),
                     "--config", "/nonexistent.yaml"])
        assert exc.value.code == 2

    def test_bad_override_exits_1(self, tmp_path):
        rc = run_cli(["synth", "--out", str(tmp_path / "x"), "bogus_key=1"])
        assert rc == 1

    def test_missing_data_exits_1(self, tmp_path):
        rc = run_cli(["train", "--data", str(tmp_path / "nodata"),
                      "--run-dir", str(tmp_path / "run")])
        assert rc == 1

    @pytest.mark.parametrize("exc, line", [
        (MemoryError(), "uflst: error: out of memory"),
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "uflst: error: out of memory: Unable to allocate 74.5 GiB for an "
         "array"),
    ], ids=["bare", "numpy"])
    def test_out_of_memory_exits_1(self, tmp_path, monkeypatch, capsys, exc,
                                   line):
        def too_big(spec):
            raise exc

        monkeypatch.setattr(data, "generate_synthetic", too_big)
        assert run_cli(["synth", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr() == ("", line + "\n")


# Options that no longer exist: an old config setting one must fail loud.
REMOVED_KEYS = ("dbscan.per_point_minimum=true", "reset_adam_each_round=true",
                "episodes_per_round=3", "optimizer.beta1=0.9",
                "optimizer.beta2=0.999", "optimizer.epsilon_adam=1e-8",
                "optimizer.decay_factor=0.1", "optimizer.decay_after_epoch=25",
                "loss.margin=0.5", "synthetic.noise_dims=0",
                "synthetic.noise_std=0.0", "synthetic.tight_classes=5",
                "synthetic.cone=0.1", "synthetic.tight_cone=0.025",
                "synthetic.heldout_offset=0.005", "synthetic.radius_min=5.0",
                "synthetic.radius_ratio=8.0", "synthetic.radial_noise=0.005",
                "synthetic.heldout_radial_noise=0.01",
                "synthetic.direction_candidates=2000",
                "synthetic.within_std=1.0")


class TestConfigErrors:
    @pytest.mark.parametrize("command, override", [
        ("train", "optimizer.learning_rate=-1"),
        ("train", "rounds=abc"),
        ("synth", "synthetic.dim=abc"),
        ("synth", "synthetic.dim=["),
        ("synth", "synthetic.separation=.nan"),
        ("synth", "synthetic.separation=.inf"),
        ("synth", "synthetic.heldout_classes=-1"),
        ("synth", "synthetic.seed=-1"),
        ("synth", "synthetic.kind=rays synthetic.num_classes=2001"),
        ("synth", None),   # malformed --config file
        *(("synth" if key.startswith("synthetic.") else "train", key)
          for key in REMOVED_KEYS),
    ])
    def test_exits_1_with_one_error_line(self, tmp_path, command, override):
        args = {"train": ["--data", str(tmp_path), "--run-dir",
                          str(tmp_path / "run")],
                "synth": ["--out", str(tmp_path / "out")]}[command]
        if override is None:
            bad = tmp_path / "bad.yaml"
            bad.write_text("rounds: [3\n")
            args += ["--config", str(bad)]
        else:
            args += override.split()
        line = assert_one_error_line(cli_process(command, *args))
        if override in REMOVED_KEYS:
            assert line.startswith("uflst: error: unknown config key")


TRAIN_ARGS = ["rounds=1", "epochs_per_round=1", "hidden_dims=[16]",
              "embedding_dim=8", "knn_k=8", "eval_episodes=10",
              "dbscan.p_fraction=0.15", "episode.n_c_train=4",
              "episode.n_c_test=3"]


def rewrite_labels(path, edit):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(edit(rows))


def run_train_process(data_dir, run_dir, overrides, resume=None):
    """`uflst train` in a child process: (exit code, stderr lines)."""
    args = ["train", "--data", str(data_dir), "--run-dir", str(run_dir)]
    if resume:
        args += ["--resume", str(resume)]
    proc = cli_process(*args, *overrides)
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stderr.strip().splitlines()


def assert_stopped_before_any_round(code, lines, run_dir):
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("uflst: error:")
    assert not list((run_dir / "pseudo_labels").glob("round_*.csv"))


# Contradictory or out-of-range settings, by case name.
BAD_OVERRIDES = {
    "prototype_loss_triplet_episodes": "loss.kind=prototype",
    "negative_eval_episodes": "eval_episodes=-5",
    "negative_epsilon_override": "dbscan.epsilon_override=-0.5",
    "nan_learning_rate": "optimizer.learning_rate=.nan",
    "inf_learning_rate": "optimizer.learning_rate=.inf",
    # the 5 heldout classes cannot fill a 6-way test episode
    "test_way_above_test_classes": "episode.n_c_test=6",
    "negative_seed": "seed=-1",
    # the test protocol needs a support and a query shot in either mode
    "zero_support_shots": "episode.n_s=0",
    "zero_query_shots": "episode.n_q=0",
}


class TestBadRunInputs:
    """Bad label files and contradictory settings stop `train` with one
    named error before any round runs."""

    @pytest.mark.parametrize("case", [
        "fewer_label_rows", "more_label_rows", "non_integer_label",
        "swapped_label_rows", "label_beyond_int64", "missing_test_labels",
        "wider_test_features", *BAD_OVERRIDES,
    ])
    def test_exits_1_before_any_round(self, synth_dir, tmp_path, case):
        data_dir = tmp_path / "data"
        shutil.copytree(synth_dir, data_dir)
        overrides = list(TRAIN_ARGS)
        if case == "fewer_label_rows":
            rewrite_labels(data_dir / "train.labels.csv", lambda r: r[:-1])
        elif case == "more_label_rows":
            rewrite_labels(data_dir / "train.labels.csv",
                           lambda r: r + [[len(r) - 1, 0]])
        elif case == "non_integer_label":
            rewrite_labels(data_dir / "train.labels.csv",
                           lambda r: r[:5] + [[r[5][0], "cat"]] + r[6:])
        elif case == "swapped_label_rows":
            rewrite_labels(data_dir / "train.labels.csv",
                           lambda r: r[:5] + [r[6], r[5]] + r[7:])
        elif case == "label_beyond_int64":
            rewrite_labels(data_dir / "train.labels.csv",
                           lambda r: r[:1] + [[0, 10 ** 20]] + r[2:])
        elif case == "missing_test_labels":
            os.remove(data_dir / "test.labels.csv")
        elif case == "wider_test_features":
            test = data.load_matrix_dataset(str(data_dir / "test.raw64"))
            data.save_raw64(str(data_dir / "test.raw64"),
                            np.hstack([test.features, test.features[:, :1]]))
        else:
            overrides.append(BAD_OVERRIDES[case])
        run_dir = tmp_path / "run"
        code, lines = run_train_process(data_dir, run_dir, overrides)
        assert_stopped_before_any_round(code, lines, run_dir)


class TestTooFewPoints:
    @pytest.mark.parametrize("n", [0, 1])
    def test_exits_1_naming_the_point_count(self, tmp_path, capsys, n):
        # with p_count > 0, P is capped at the N(N-1)/2 = 0 pairs
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        data.save_raw64(str(data_dir / "train.raw64"), np.zeros((n, 3)))
        assert run_cli(["train", "--data", str(data_dir), "--run-dir",
                        str(tmp_path / "run"), "rounds=1",
                        "dbscan.p_count=5"]) == 1
        assert capsys.readouterr().err == (
            "uflst: error: need at least two points to select epsilon\n")


class TestHugeFeatures:
    def test_overflowing_norms_exit_1(self, synth_dir, tmp_path):
        # finite features, but squared norms past the float64 range: the
        # re-ranking refuses them before it takes any distance
        data_dir = tmp_path / "data"
        shutil.copytree(synth_dir, data_dir)
        path = str(data_dir / "train.raw64")
        data.save_raw64(path, data.load_matrix_dataset(path).features * 1e160)
        run_dir = tmp_path / "run"
        code, lines = run_train_process(
            data_dir, run_dir, [*TRAIN_ARGS, "rounds=2", "eval_episodes=0"])
        assert_stopped_before_any_round(code, lines, run_dir)
        assert "embeddings too large" in lines[0]
        assert "RuntimeWarning" not in (run_dir / "run.log").read_text()


class TestResumeGuards:
    """`--resume` stops before any round when the checkpoint cannot
    continue the configured run."""

    @pytest.mark.parametrize("checkpoint, overrides", [
        # trained with hidden_dims=[16] embedding_dim=8
        ("checkpoints/round_0001.ckpt", ["hidden_dims=[32]"]),
        # already at round 2
        ("checkpoints/round_0002.ckpt", ["rounds=2"]),
        ("final_model.ckpt", ["rounds=1"]),
    ], ids=["other_architecture", "round_reaches_rounds",
            "round_past_rounds"])
    def test_exits_1_before_any_round(self, synth_dir, trained_run, tmp_path,
                                      checkpoint, overrides):
        run_dir = tmp_path / "resumed"
        code, lines = run_train_process(
            synth_dir, run_dir, [*TRAIN_ARGS, "rounds=3", *overrides],
            resume=trained_run / checkpoint)
        assert_stopped_before_any_round(code, lines, run_dir)

    def test_matching_checkpoint_resumes(self, synth_dir, trained_run,
                                         tmp_path):
        run_dir = tmp_path / "resumed"
        code, lines = run_train_process(
            synth_dir, run_dir, [*TRAIN_ARGS, "rounds=3"],
            resume=trained_run / "checkpoints" / "round_0002.ckpt")
        assert code == 0, lines
        assert [p.name for p in (run_dir / "pseudo_labels").iterdir()] == \
            ["round_0003.csv"]


class TestRunLog:
    def test_each_run_logs_only_its_own_rounds(self, synth_dir, tmp_path):
        run_dirs = [tmp_path / "a", tmp_path / "b"]
        for run_dir in run_dirs:
            assert run_cli(["train", "--data", str(synth_dir), "--run-dir",
                            str(run_dir), *TRAIN_ARGS]) == 0
        for run_dir in run_dirs:
            text = (run_dir / "run.log").read_text()
            assert text.count(" round 1:") == 1
        assert not any(isinstance(h, logging.FileHandler)
                       for h in logging.getLogger("uflst").handlers)

    def test_warnings_reach_run_log(self, synth_dir, tmp_path):
        showwarning = warnings.showwarning
        run_dir = tmp_path / "run"
        assert run_cli(["train", "--data", str(synth_dir), "--run-dir",
                        str(run_dir), *TRAIN_ARGS, "knn_k=500"]) == 0
        assert "k=500 clamped to 71 for N=72 points" in \
            (run_dir / "run.log").read_text()
        assert warnings.showwarning is showwarning
        assert not logging.getLogger("py.warnings").handlers

    def test_run_meta_records_versions(self, trained_run):
        import yaml
        with open(trained_run / "run_meta.yaml") as f:
            meta = yaml.safe_load(f)
        assert meta["argv"][:1] == ["train"]
        assert meta["numpy"] == np.__version__
        assert meta["uflst"] == uflst.__version__
        assert meta["python"] == platform.python_version()
        assert meta["blas"] and meta["uflst_threads"]


def rewrite_trailer(blob, edit=bytes, length=None):
    """The checkpoint `blob` with its first history row passed through
    `edit`, and the trailer's byte length set to `length` (by default, the
    length of the history)."""
    start = blob.index(b"round,nmi,")
    lines = blob[start:].split(b"\n")
    lines[1] = edit(lines[1])
    hist = b"\n".join(lines)
    return blob[:start - 8] + struct.pack("<Q", length or len(hist)) + hist


def huge_layer_header(blob):
    # 30 bytes: version 1, one 65535 x 65535 layer (a 32 GiB model), then
    # 8 bytes of parameters
    return (network.CHECKPOINT_MAGIC
            + struct.pack("<IIII", 1, 1, 65535, 65535) + bytes(8))


class TestCheckpointErrors:
    """A malformed checkpoint makes `uflst eval` exit 1 with one error line.
    It runs under a 2 GB address-space limit, so a header that asks for a
    huge allocation fails fast instead of taking the memory."""

    @pytest.mark.parametrize("corrupt", [
        # one byte of the first row's nmi
        lambda blob: rewrite_trailer(blob, lambda row: row[:2] + b"x"
                                     + row[3:]),
        # the first row without its last field
        lambda blob: rewrite_trailer(blob, lambda row:
                                     row.rsplit(b",", 1)[0]),
        huge_layer_header,
        lambda blob: rewrite_trailer(blob, length=1 << 62),
    ], ids=["bad_float", "wrong_field_count", "huge_layer_header",
            "huge_history_length"])
    def test_exits_1_with_one_error_line(self, synth_dir, trained_run,
                                         tmp_path, corrupt):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(corrupt((trained_run / "final_model.ckpt")
                                 .read_bytes()))
        proc = cli_process_capped(
            2 << 30, "eval", "--checkpoint", str(path), "--data",
            str(synth_dir), "--episodes", "10", "episode.n_c_test=3")
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("uflst: error:")


def test_epsilon_of_half_of_all_pairs_fits_400mb(tmp_path):
    """12k rays at `dbscan.p_fraction=0.5` average P = 36M pairs, 288 MB
    as floats.  Epsilon holds no such pool, so one round trains under a
    400 MB address-space limit: it peaks near 190 MB of address space
    with one BLAS thread, where building the pool took about 770 MB and
    failed as out of memory."""
    data_dir, run_dir = str(tmp_path / "data"), str(tmp_path / "run")
    assert run_cli(["synth", "--out", data_dir, "synthetic.kind=rays",
                    "synthetic.points_per_class=600"]) == 0
    proc = cli_process_capped(
        400 << 20, "train", "--data", data_dir, "--run-dir", run_dir,
        "rounds=1", "epochs_per_round=1", "eval_episodes=0",
        "dbscan.p_fraction=0.5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("train: completed 1 rounds")


class TestGradcheckCommand:
    def test_passes(self, capsys):
        rc = run_cli(["gradcheck", "--trials", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prototype" in out and "triplet_hinge" in out

    def test_negative_seed_exits_1(self):
        assert_one_error_line(cli_process("gradcheck", "--seed", "-1"))

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_fewer_than_one_trial_exits_1(self, trials):
        line = assert_one_error_line(
            cli_process("gradcheck", "--trials", trials))
        assert "--trials must be >= 1" in line


def test_subcommand_options():
    """Every option of every subcommand, pinned: a new flag shows up in
    review."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in sub._actions for s in a.option_strings)
               for name, sub in subparsers.choices.items()}
    assert options == {
        "train": ["--config", "--data", "--help", "--resume", "--run-dir",
                  "-h"],
        "cluster": ["--checkpoint", "--config", "--features", "--help",
                    "--out", "-h"],
        "eval": ["--checkpoint", "--config", "--data", "--episodes", "--help",
                 "--seed", "-h"],
        "gradcheck": ["--help", "--seed", "--trials", "-h"],
        "synth": ["--config", "--help", "--out", "-h"],
    }
