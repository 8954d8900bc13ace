"""Same-bytes check: do two source trees write the same run directories?

Usage:

    python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts.  For
every workload of `perfbench/run.py`, for `fixture-hard` with the
`triplet` and `soft_margin_triplet` losses (the random-triplet paths, which
no workload runs), and for one round on 16k rays with the README "Scale"
overrides (whose re-ranking blocks have 8 rows, fewer than any workload's),
at seeds 2 and 7, it runs `uflst synth` and then `uflst train` from each
tree, with one BLAS thread, and then `uflst cluster` and `uflst eval` on
the run's final checkpoint, which embed outside training.  It then
compares every file the two sides wrote (the synthesized data,
`metrics.csv`, `config.yaml`, the checkpoints, the pseudo-label dumps, the
labels of `cluster` and the output of both commands) except `run.log` and
`run_meta.yaml`, which hold timestamps and paths.  Last, it runs `uflst
gradcheck --trials 5` from each tree and compares the two outputs, which
catches a loss whose gradient drifts on paths that the runs do not reach.
It prints one line per run and one for the gradient check, and exits 1 if
any file differs or exists on one side only, or if the gradient checks
print different lines.  It reports; it times nothing.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (2, 7)
GRADCHECK = ("gradcheck", "--trials", "5")
IGNORED = {"run.log", "run_meta.yaml"}
# (label, workload, extra train overrides)
RUNS = (("fixture-hard", "fixture-hard", ()),
        ("fixture-proto", "fixture-proto", ()),
        ("rays-4k", "rays-4k", ()),
        ("fixture-triplet", "fixture-hard", ("loss.kind=triplet",)),
        ("fixture-soft-margin", "fixture-hard",
         ("loss.kind=soft_margin_triplet",)))
# (label, synth overrides, train overrides) of the runs that are no
# workload; "{seed}" stands for the seed
OTHER_RUNS = (("rays-16k",
               ("synthetic.kind=rays", "synthetic.seed={seed}",
                "synthetic.points_per_class=800"),
               ("seed={seed}", "knn_k=12", "dbscan.p_fraction=0.035",
                "rounds=1", "epochs_per_round=1", "eval_episodes=0")),)


def load_bench():
    """perfbench/run.py as a module, read only for its workload overrides."""
    path = os.path.join(ROOT, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def runs(bench):
    """(label, seed, synth overrides, train overrides) of every run, the
    workload runs first; `bench` is `load_bench()`."""
    for label, workload, extra in RUNS:
        for seed in SEEDS:
            w = bench.Workload(workload, seed, ROOT)
            yield label, seed, w.synth_overrides, [*w.train_overrides, *extra]
    for label, synth, train in OTHER_RUNS:
        for seed in SEEDS:
            yield (label, seed, [o.format(seed=seed) for o in synth],
                   [o.format(seed=seed) for o in train])


def files(top):
    """Paths under `top`, relative to it, except the IGNORED names."""
    found = set()
    for here, _, names in os.walk(top):
        for name in names:
            if name not in IGNORED:
                found.add(os.path.relpath(os.path.join(here, name), top))
    return found


def compare_dirs(a, b):
    """Sorted relative paths that differ between trees `a` and `b`: in
    content, or present on one side only."""
    left, right = files(a), files(b)
    differ = left ^ right
    for rel in left & right:
        if not filecmp.cmp(os.path.join(a, rel), os.path.join(b, rel),
                           shallow=False):
            differ.add(rel)
    return sorted(differ)


def uflst(src, args, env, cwd):
    """Run one `uflst` command from the tree `src` and return its output;
    raise on failure.  The working directory is `cwd`, so that no `uflst`
    package beside the caller shadows `src`."""
    proc = subprocess.run(
        [sys.executable, "-m", "uflst.cli", *args],
        env=dict(env, PYTHONPATH=src), cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"uflst {args[0]} from {src} exited "
                           f"{proc.returncode}:\n{proc.stdout}")
    return proc.stdout


def run_side(src, out, synth, train, env):
    """Synthesize, train, then cluster and evaluate with the final
    checkpoint, all into `out`; the two commands' outputs go to
    `cluster.out` and `eval.out`."""
    data, run_dir = os.path.join(out, "data"), os.path.join(out, "run")
    os.makedirs(out)
    uflst(src, ["synth", "--out", data, *synth], env, out)
    uflst(src, ["train", "--data", data, "--run-dir", run_dir, *train], env,
          out)
    checkpoint = os.path.join(run_dir, "final_model.ckpt")
    for name, args in (
            ("cluster", ["--features", os.path.join(data, "train.raw64"),
                         "--out", os.path.join(out, "cluster.csv")]),
            ("eval", ["--data", data])):
        text = uflst(src, [name, "--checkpoint", checkpoint, *args, *train],
                     env, out)
        with open(os.path.join(out, f"{name}.out"), "w") as f:
            f.write(text)


def compare_gradchecks(sides, env, cwd):
    """Run GRADCHECK from each of the `sides` trees: (the report line,
    whether every side printed the same lines)."""
    outputs = [uflst(src, GRADCHECK, env, cwd) for src in sides.values()]
    name = " ".join(GRADCHECK)
    if len(set(outputs)) == 1:
        return f"{name}: {len(outputs[0].splitlines())} lines identical", True
    shown = "; ".join(f"{side}: {' | '.join(out.splitlines())}"
                      for side, out in zip(sides, outputs))
    return f"{name}: outputs differ: {shown}", False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    args = parser.parse_args(argv)
    bench = load_bench()
    env = dict(os.environ, **{var: "1" for var in bench.THREAD_VARS})
    sides = {"parent": os.path.abspath(args.parent_src),
             "change": os.path.abspath(args.change_src)}
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as work:
        for label, seed, synth, train in runs(bench):
            outs = {}
            for side, src in sides.items():
                outs[side] = os.path.join(work, side, f"{label}-{seed}")
                run_side(src, outs[side], synth, train, env)
            differ = compare_dirs(outs["parent"], outs["change"])
            compared = len(files(outs["parent"]) | files(outs["change"]))
            if differ:
                failed += 1
                print(f"{label} seed {seed}: {len(differ)} of {compared} "
                      f"files differ: {', '.join(differ)}")
            else:
                print(f"{label} seed {seed}: {compared} files identical")
        line, same = compare_gradchecks(sides, env, work)
        print(line)
        failed += not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
