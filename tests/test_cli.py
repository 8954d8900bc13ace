import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from uflst import cli


def run_cli(args):
    return cli.main(args)


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


class TestConfigErrors:
    @pytest.mark.parametrize("command, override", [
        ("train", "optimizer.learning_rate=-1"),
        ("train", "rounds=abc"),
        ("synth", "synthetic.dim=abc"),
        ("synth", "synthetic.dim=["),
        ("synth", None),   # malformed --config file
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
            args.append(override)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "uflst.cli", command, *args],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("uflst: error:")


class TestGradcheckCommand:
    def test_passes(self, capsys):
        rc = run_cli(["gradcheck", "--trials", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prototype" in out and "triplet_hinge" in out
