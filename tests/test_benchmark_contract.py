"""The benchmark in `perfbench/` times and counts uflst functions by name.

A renamed or removed function would silently read 0 in its per-layer
metrics, so every name it hooks must stay a public function of its module.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")


def load(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


tracer = load("tracer")
run = load("run")
ROLES = set(tracer.FORWARD_ROLES.values())
SRC = os.path.join(os.path.dirname(PERFBENCH), "src")


def hooked_names():
    """Every hooked name, with a `network.forward` role suffix stripped."""
    names = set()
    for name in (*run.TIMED, *tracer.HOOKS, *tracer.FORWARD_ROLES):
        base, last = name.rsplit(".", 1)
        names.add(base if last in ROLES else name)
    return sorted(names)


@pytest.mark.parametrize("name", hooked_names())
def test_hooked_name_is_a_public_function(name):
    mod_name, attr = name.split(".")
    assert mod_name in tracer.MODULES
    module = importlib.import_module(f"uflst.{mod_name}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_jaccard_edge_count_reads_the_edge_list():
    # `--trace 1` counts Jaccard edges from the dense `.values` view
    from uflst import metric

    points = np.random.default_rng(0).normal(size=(60, 3))
    jm = metric.build_jaccard(points, 6)
    t = tracer.Tracer()
    tracer._jaccard_edges(t, 0, (), jm)
    assert jm.dist.size > 0
    assert t.counts["metric.jaccard_edges"] == jm.dist.size


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_overrides_load(name):
    # a removed or renamed config key would stop every benchmark run
    from uflst import config

    workload = run.Workload(name, seed=2, root=PERFBENCH)
    config.build_synthetic_spec(
        config.load_config(overrides=workload.synth_overrides))
    config.build_train_config(
        config.load_config(overrides=workload.train_overrides))


def traced_run(tmp_path, *train_overrides):
    """(per-layer metrics, counts) of one traced `perfbench/child.py` run
    at the determinism test's sizes."""
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    spec = {
        "synth": ["synth", "--out", str(data_dir),
                  "synthetic.num_classes=6", "synthetic.points_per_class=12",
                  "synthetic.dim=8", "synthetic.heldout_classes=5",
                  "synthetic.separation=10.0"],
        "train": ["train", "--data", str(data_dir), "--run-dir", str(run_dir),
                  "rounds=2", "epochs_per_round=2", "hidden_dims=[16]",
                  "embedding_dim=8", "knn_k=8", "eval_episodes=10",
                  "dbscan.p_fraction=0.15", "episode.n_c_train=4",
                  "episode.n_c_test=3", *train_overrides],
        "result": str(tmp_path / "result.json"),
        "spans": str(tmp_path / "spans.json"),
    }
    spec_path = tmp_path / "spec.json"
    spec["spawned_at"] = time.monotonic()
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=SRC,
               **{var: "1" for var in run.THREAD_VARS})
    subprocess.run([sys.executable, os.path.join(PERFBENCH, "child.py"),
                    str(spec_path)], env=env, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["synth_code"] == 0 and result["train_code"] == 0
    with open(spec["spans"]) as f:
        return tracer.summarize(json.load(f))


def test_hooks_read_what_the_package_returns(tmp_path):
    # the count hooks read arguments and return values: a changed return
    # shape would break only traced runs, or make them count 0
    metrics, counts = traced_run(tmp_path)
    assert counts["pipeline.episodes_run"] > 0
    assert counts["losses.mined_anchors"] == counts["network.forward.train.rows"]
    assert (metrics["losses.mine_hard_triplets.calls"]
            == counts["pipeline.episodes_run"])
    assert metrics["evaluate.nearest_prototype_predict.calls"] >= 1
    assert counts["network.forward.eval.rows"] > 0


def test_hooks_count_prototype_episodes(tmp_path):
    metrics, counts = traced_run(tmp_path, "loss.kind=prototype",
                                 "episode.mode=prototype")
    assert counts["pipeline.episodes_run"] > 0
    assert (metrics["losses.prototype_loss.calls"]
            == counts["pipeline.episodes_run"])
