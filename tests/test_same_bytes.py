"""`tools/same_bytes.py` compares two run directories file by file."""

import importlib.util
import os
import shutil

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                    "same_bytes.py")
_spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def tiny_run(top):
    os.makedirs(os.path.join(top, "run", "checkpoints"))
    os.makedirs(os.path.join(top, "run", "pseudo_labels"))
    for rel, text in (("run/metrics.csv", "round,nmi\n1,0.5\n"),
                      ("run/config.yaml", "seed: 2\n"),
                      ("run/checkpoints/round_0001.ckpt", "\x00\x01"),
                      ("run/pseudo_labels/round_0001.csv", "index,label\n"),
                      ("run/run.log", "started 10:00\n")):
        with open(os.path.join(top, rel), "w") as f:
            f.write(text)


def test_copy_matches_and_one_byte_is_reported(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    tiny_run(a)
    shutil.copytree(a, b)
    # the log holds timestamps, so it is left out of the comparison
    with open(os.path.join(b, "run", "run.log"), "w") as f:
        f.write("started 10:01\n")
    assert same_bytes.compare_dirs(a, b) == []
    with open(os.path.join(b, "run", "metrics.csv"), "w") as f:
        f.write("round,nmi\n1,0.6\n")
    assert same_bytes.compare_dirs(a, b) == [os.path.join("run",
                                                          "metrics.csv")]


def test_file_on_one_side_is_reported(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    tiny_run(a)
    shutil.copytree(a, b)
    os.remove(os.path.join(a, "run", "checkpoints", "round_0001.ckpt"))
    assert same_bytes.compare_dirs(a, b) == [
        os.path.join("run", "checkpoints", "round_0001.ckpt")]


def test_gradcheck_outputs_are_compared(monkeypatch):
    printed = {"parent": "gradcheck: prototype 8.327e-06\n",
               "change": "gradcheck: prototype 8.327e-06\n"}
    monkeypatch.setattr(same_bytes, "uflst",
                        lambda src, args, env, cwd: printed[src])
    sides = {"parent": "parent", "change": "change"}
    line, same = same_bytes.compare_gradchecks(sides, {}, ".")
    assert same and line == "gradcheck --trials 5: 1 lines identical"
    printed["change"] = "gradcheck: prototype 8.328e-06\n"
    line, same = same_bytes.compare_gradchecks(sides, {}, ".")
    assert not same
    assert line == ("gradcheck --trials 5: outputs differ: parent: "
                    "gradcheck: prototype 8.327e-06; change: "
                    "gradcheck: prototype 8.328e-06")


def test_cluster_and_eval_run_on_the_final_checkpoint(tmp_path, monkeypatch):
    calls = []

    def fake_uflst(src, args, env, cwd):
        calls.append(args)
        return f"{args[0]} output\n"

    monkeypatch.setattr(same_bytes, "uflst", fake_uflst)
    out = str(tmp_path / "side")
    same_bytes.run_side("src", out, ["synthetic.seed=2"], ["knn_k=12"], {})
    data, ckpt = (os.path.join(out, "data"),
                  os.path.join(out, "run", "final_model.ckpt"))
    assert calls[2:] == [
        ["cluster", "--checkpoint", ckpt, "--features",
         os.path.join(data, "train.raw64"), "--out",
         os.path.join(out, "cluster.csv"), "knn_k=12"],
        ["eval", "--checkpoint", ckpt, "--data", data, "knn_k=12"]]
    assert same_bytes.files(out) == {"cluster.out", "eval.out"}


def test_runs_cover_the_workloads_and_16k_rays():
    bench = same_bytes.load_bench()
    runs = list(same_bytes.runs(bench))
    assert [(label, seed) for label, seed, _, _ in runs[:2]] == [
        ("fixture-hard", 2), ("fixture-hard", 7)]
    workloads = {label for label, *_ in runs}
    assert set(bench.WORKLOADS) < workloads
    # one round on 16k rays with the README "Scale" overrides: 8-row
    # re-ranking blocks, which no workload reaches
    label, seed, synth, train = runs[-1]
    assert (label, seed) == ("rays-16k", 7)
    assert synth == ["synthetic.kind=rays", "synthetic.seed=7",
                     "synthetic.points_per_class=800"]
    assert train == ["seed=7", "knn_k=12", "dbscan.p_fraction=0.035",
                     "rounds=1", "epochs_per_round=1", "eval_episodes=0"]
