"""uflst benchmark: repeated `uflst synth` + `uflst train` runs of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fixture-hard --seed 2 --seconds 30 --trace 0

Each repetition is a fresh child process (`PYTHONPATH=src`, BLAS capped at
one thread) that synthesizes the workload's rays data and trains on it
through the real CLI.  Repetitions run back to back (a closed loop of one
client) until `--seconds` have passed, with at least MIN_REPS of them.
Every repetition is checked: exit code, the `completed` line, a finite
final NMI, and metrics.csv / final_model.ckpt digests equal to the first
repetition's.  The first repetition is also checked against an
independent NMI over its pseudo-label dumps.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` untraced and traced repetitions alternate and the last line
reports per-layer metrics (see tracer.py).  The last line is always one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracer  # noqa: E402

MIN_REPS = 3
CHILD_TIMEOUT_S = 60
RUN_LIMIT_S = 165   # a run must end within 180 s, hung children included
THREAD_VARS = ("UFLST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
EVAL_EPISODES = 1000

COMMON_TRAIN = ("knn_k=12", "optimizer.learning_rate=0.0015",
                "dbscan.p_fraction=0.035")

# name -> (synth overrides, train overrides).  Why each exists is recorded
# in BENCHMARK.json; the per-layer shares are in perfbench/README.md.
WORKLOADS = {
    # README quick-start and acceptance fixture: eval, mining and
    # clustering split the time three ways.
    "fixture-hard": ((), ("rounds=10", "epochs_per_round=8",
                          "eval_episodes=1000")),
    # Same data, prototype loss: training dominates, eval and mining never run.
    "fixture-proto": ((), ("rounds=10", "epochs_per_round=40",
                           "eval_episodes=0", "loss.kind=prototype",
                           "episode.mode=prototype", "episode.n_c_train=60",
                           "episode.n_e=4", "episode.n_s=1", "episode.n_q=3")),
    # N=4000: the dense N x N re-ranking path dominates time and memory.
    "rays-4k": (("synthetic.points_per_class=200",),
                ("rounds=3", "epochs_per_round=1", "eval_episodes=0")),
}

END_TO_END_UNITS = {
    "train_s": "s",
    "point_rounds_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_nmi": "ratio",
    "ok_frac": "ratio",
}

TIMED = (
    "metric.pairwise_sq_euclidean", "metric.knn_sets",
    "metric.k_reciprocal_sets", "metric.jaccard_matrix",
    "cluster.select_epsilon", "cluster.dbscan_fit",
    "cluster.build_pseudo_labeled_set",
    "evaluate.few_shot_accuracy", "evaluate.nearest_prototype_predict",
    "losses.mine_hard_triplets", "losses.prototype_loss",
    "episodes.sample_episode",
    "network.forward.train", "network.forward.cluster",
    "network.forward.eval", "network.backward", "network.adam_step",
    "pipeline.run_clustering_phase", "pipeline.run_episodic_phase",
    "pipeline.save_checkpoint",
    "data.write_pseudo_labels", "data.write_metrics",
    "data.load_matrix_dataset", "cli.cmd_train",
)
COUNTS = (
    "network.forward.train.rows", "network.forward.cluster.rows",
    "network.forward.eval.rows", "pipeline.episodes_run",
    "metric.jaccard_edges", "losses.mined_anchors", "losses.mined_skipped",
)
PER_LAYER_UNITS = {
    **{f"{name}.{stat}": unit for name in TIMED
       for stat, unit in (("busy_s", "s"), ("self_s", "s"),
                          ("calls", "count"))},
    **{name: "count" for name in COUNTS},
    "cluster.dbscan_attempts_per_round": "ratio",
    "losses.mined_skipped_frac": "ratio",
    "trace.count_drift": "count",
    "trace.spans": "count",
    "trace.train_s": "s",
    "trace.untraced_train_s": "s",
    "trace.overhead_s": "s",
    "cli.cmd_train.off_cpu_s": "s",
    "quality.final_accuracy": "ratio",
}


class Workload:
    """One workload at one seed, with its work directory in the checkout."""

    def __init__(self, name, seed, root):
        synth, train = WORKLOADS[name]
        self.name, self.seed, self.root = name, seed, root
        self.work = os.path.join(root, ".bench_work", name)
        self.synth_overrides = ["synthetic.kind=rays", f"synthetic.seed={seed}",
                                *synth]
        self.train_overrides = [f"seed={seed}", *COMMON_TRAIN, *train]
        self.rounds = int(next(o for o in train if o.startswith("rounds="))
                          .split("=")[1])
        self.eval_in_loop = "eval_episodes=0" not in train
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        **{var: "1" for var in THREAD_VARS})

    def run_child(self, rep, traced, with_eval, timeout):
        """Spawn one repetition and wait up to `timeout` seconds for it.

        Returns (exit code or None on timeout, child result, spec).
        """
        # Fresh directories each time, as a new user run has: rewriting the
        # last repetition's files would add flushes a fresh run does not
        # pay (ext4 flushes a truncated and rewritten file on close).
        run_dir = os.path.join(self.work, f"run{rep}")
        data_dir = os.path.join(self.work, f"data{rep}")
        spec = {
            "run_dir": run_dir,
            "data_dir": data_dir,
            "synth": ["synth", "--out", data_dir, *self.synth_overrides],
            "train": ["train", "--data", data_dir, "--run-dir", run_dir,
                      *self.train_overrides],
            "result": os.path.join(self.work, f"result{rep}.json"),
            "spans": os.path.join(self.work, f"spans{rep}.json") if traced
            else None,
        }
        if with_eval:
            spec["eval"] = ["eval", "--checkpoint",
                            os.path.join(run_dir, "final_model.ckpt"),
                            "--data", data_dir,
                            "--episodes", str(EVAL_EPISODES),
                            "--seed", str(self.seed), *self.train_overrides]
        spec_path = os.path.join(self.work, f"spec{rep}.json")
        spec["spawned_at"] = time.monotonic()
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            env=self.env, cwd=self.root, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, {}, spec
        result = {}
        if os.path.exists(spec["result"]):
            with open(spec["result"]) as f:
                result = json.load(f)
        return code, result, spec


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def reference_nmi(a, b):
    """Contingency-table NMI, I / sqrt(H(a) H(b)), written apart from uflst's."""
    n = len(a)
    joint, ca, cb = {}, {}, {}
    for x, y in zip(a, b):
        joint[x, y] = joint.get((x, y), 0) + 1
        ca[x] = ca.get(x, 0) + 1
        cb[y] = cb.get(y, 0) + 1
    ha = -sum(c / n * math.log(c / n) for c in ca.values())
    hb = -sum(c / n * math.log(c / n) for c in cb.values())
    if ha == 0.0 or hb == 0.0:
        return 1.0 if len(joint) == len(ca) == len(cb) else 0.0
    mi = sum(c / n * math.log(c * n / (ca[x] * cb[y]))
             for (x, y), c in joint.items())
    return mi / math.sqrt(ha * hb)


def check_pseudo_labels(run_dir, data_dir, rows):
    """Each round's pseudo-label dump must explain its metrics.csv row."""
    truth = [int(r["label"]) for r in
             read_csv(os.path.join(data_dir, "train.labels.csv"))]
    problems = []
    for row in rows:
        r = int(row["round"])
        dump = read_csv(os.path.join(run_dir, "pseudo_labels",
                                     f"round_{r:04d}.csv"))
        labels = [int(d["pseudo_label"]) for d in dump]
        kept = [i for i, lab in enumerate(labels) if lab != -1]
        first_seen = list(dict.fromkeys(labels[i] for i in kept))
        nmi = reference_nmi([truth[i] for i in kept], [labels[i] for i in kept])
        if (len(labels) != len(truth)
                or len(labels) - len(kept) != int(row["num_outliers"])
                or first_seen != list(range(int(row["num_clusters"])))
                or abs(len(kept) / len(first_seen)
                       - float(row["mean_cluster_size"])) > 1e-9
                or abs(nmi - float(row["nmi"])) > 1e-9):
            problems.append(f"round {r}: pseudo labels disagree with "
                            f"metrics.csv (reference nmi {nmi!r})")
    return problems


def parse_accuracy(text):
    # "eval: 5-way 1-shot accuracy 0.8123 +/- 0.1910 over 1000 episodes"
    return float(text.split("accuracy", 1)[1].split()[0])


def judge(wl, code, result, spec, first):
    """Problems with one repetition, and what it measured."""
    if code is None:
        return ["child timed out"], {}
    problems = []
    if code != 0:
        problems.append(f"child exited {code}")
    if result.get("synth_code") != 0 or result.get("train_code") != 0:
        problems.append(f"uflst exit codes synth={result.get('synth_code')} "
                        f"train={result.get('train_code')}")
    if "train: completed" not in result.get("train_out", ""):
        problems.append("train did not print 'completed'")
    if problems:
        return problems, {}
    try:
        return check_outputs(wl, result, spec, first)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"], {}


def check_outputs(wl, result, spec, first):
    run_dir, data_dir = spec["run_dir"], spec["data_dir"]
    problems = []
    rows = read_csv(os.path.join(run_dir, "metrics.csv"))
    last = rows[-1]
    nmi = float(last["nmi"]) if last["nmi"] else math.nan
    if len(rows) != wl.rounds:
        problems.append(f"{len(rows)} metrics rows, expected {wl.rounds}")
    if not math.isfinite(nmi):
        problems.append(f"final nmi {last['nmi']!r} is not finite")
    digests = {name: sha256(os.path.join(run_dir, name))
               for name in ("metrics.csv", "final_model.ckpt")}
    measured = {
        "train_s": result["train_s"],
        "train_cpu_s": result["train_cpu_s"],
        "setup_s": result["startup_s"] + result["synth_s"],
        "peak_rss_mb": result["maxrss_mb"],
        "final_nmi": nmi,
        "n_points": len(read_csv(os.path.join(data_dir, "train.labels.csv"))),
        "digests": digests,
    }
    if first is None:
        problems += check_pseudo_labels(run_dir, data_dir, rows)
        if wl.eval_in_loop:
            measured["final_accuracy"] = float(last["accuracy_mean"])
        elif result.get("eval_code") == 0:
            measured["final_accuracy"] = parse_accuracy(result["eval_out"])
        else:
            problems.append("uflst eval of the final model failed")
    elif digests != first["digests"]:
        problems.append(f"digests {digests} differ from the first run's")
    return problems, measured


def git_commit(root):
    """HEAD commit read from .git without running git, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src", "uflst")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(wl, args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(wl.root),
        "src_sha256": source_digest(wl.root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": {var: wl.env[var] for var in THREAD_VARS},
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples
    above it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def run_workload(name, args, root):
    """Run one workload for args.seconds; returns the result object."""
    wl = Workload(name, args.seed, root)
    shutil.rmtree(wl.work, ignore_errors=True)
    os.makedirs(wl.work)
    print("env " + json.dumps(environment(wl, args)), flush=True)

    start = time.monotonic()
    deadline, limit = start + args.seconds, start + RUN_LIMIT_S
    first = None
    ok, failures, traced_dumps = [], [], []
    rep = 0
    # Traced runs alternate with untraced ones, untraced first.
    while ((rep < MIN_REPS * (1 + args.trace) or time.monotonic() < deadline)
           and time.monotonic() < limit):
        traced = bool(args.trace and rep % 2)
        code, result, spec = wl.run_child(
            rep, traced, with_eval=first is None and not wl.eval_in_loop,
            timeout=min(CHILD_TIMEOUT_S, limit - time.monotonic()))
        problems, measured = judge(wl, code, result, spec, first)
        if problems:
            failures.append(problems)
            print(f"{name} rep {rep} FAILED: {'; '.join(problems)}",
                  file=sys.stderr)
        else:
            measured["traced"] = traced
            ok.append(measured)
            print(f"{name} rep {rep}{' traced' if traced else ''}: "
                  f"train_s {measured['train_s']:.4f} "
                  f"(cpu {measured['train_cpu_s']:.4f}) "
                  f"setup_s {measured['setup_s']:.4f} "
                  f"peak_rss_mb {measured['peak_rss_mb']:.1f}", flush=True)
            if traced:
                with open(spec["spans"]) as f:
                    traced_dumps.append(json.load(f))
        if first is None:
            first = measured if not problems else {"digests": None}
        for key in ("run_dir", "data_dir"):
            shutil.rmtree(spec[key], ignore_errors=True)
        rep += 1
    shutil.rmtree(wl.work, ignore_errors=True)

    # A failed first repetition fails every later one (no digests to
    # match), so `ok`, when not empty, starts with the first repetition.
    attempted, failed = rep, len(failures)
    untraced = [m for m in ok if not m["traced"]]
    if not untraced or (args.trace and not traced_dumps):
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}}
    correct = failed == 0
    if args.trace:
        metrics, drift = layer_metrics(traced_dumps, untraced,
                                       [m for m in ok if m["traced"]])
        correct = correct and drift == 0
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(wl, untraced, attempted, failed)
        units = END_TO_END_UNITS
        train = [m["train_s"] for m in untraced]
        tail = tail_percentile(train)
        print(f"{name} train_s n={len(train)}: median "
              f"{statistics.median(train):.4f} s"
              + (f", p{tail[0]:.1f} {tail[1]:.4f} s" if tail
                 else ", too few samples for a tail percentile"))
        print(f"{name} failed_frac {failed / attempted:.4f} "
              f"({failed}/{attempted})")
        print(f"{name} final_accuracy {ok[0]['final_accuracy']:.6f} (from "
              + ("metrics.csv" if wl.eval_in_loop else "uflst eval") + ")")
    for metric, value in metrics.items():
        print(f"{name} {metric:45s} {value:14.6f} {units[metric]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {metric: {"value": value, "unit": units[metric]}
                        for metric, value in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "uflst", "cli.py")):
        print("run.py: no src/uflst here; run it from the root of a uflst "
              "checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args, root)
    else:
        # One line for every workload: metric names get a workload prefix.
        results = {name: run_workload(name, args, root) for name in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    shutil.rmtree(os.path.join(root, ".bench_work"), ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


def end_to_end(wl, runs, attempted, failed):
    median = statistics.median
    train_s = median(m["train_s"] for m in runs)
    return {
        "train_s": train_s,
        "point_rounds_per_s": runs[0]["n_points"] * wl.rounds / train_s,
        "setup_s": median(m["setup_s"] for m in runs),
        "peak_rss_mb": median(m["peak_rss_mb"] for m in runs),
        "final_nmi": runs[0]["final_nmi"],
        "ok_frac": 1.0 - failed / attempted,
    }


def layer_metrics(dumps, untraced, traced):
    """Median per-layer times over traced runs; counts must not drift."""
    summaries = [tracer.summarize(d) for d in dumps]
    counts = []
    for times, recorded in summaries:
        c = {k: v for k, v in times.items() if k.endswith(".calls")}
        c.update(recorded)
        c["trace.spans"] = sum(v for k, v in times.items()
                               if k.endswith(".calls") and
                               not k.startswith("network.forward."))
        counts.append(c)
    drift = sum(1 for key in set().union(*counts)
                if len({c.get(key) for c in counts}) > 1)
    if drift:
        print(f"count drift across traced runs in {drift} counters",
              file=sys.stderr)
    c = counts[0]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name.endswith((".busy_s", ".self_s")):
            metrics[name] = statistics.median(t.get(name, 0.0)
                                              for t, _ in summaries)
        elif name in c:
            metrics[name] = c[name]
        elif unit == "count":
            metrics[name] = 0
    calls = c.get("pipeline.run_clustering_phase.calls", 0)
    metrics["cluster.dbscan_attempts_per_round"] = (
        c.get("cluster.dbscan_fit.calls", 0) / calls if calls else 0.0)
    mined = c.get("losses.mined_anchors", 0) + c.get("losses.mined_skipped", 0)
    metrics["losses.mined_skipped_frac"] = (
        c.get("losses.mined_skipped", 0) / mined if mined else 0.0)
    metrics["trace.count_drift"] = drift
    traced_s = statistics.median(m["train_s"] for m in traced)
    untraced_s = statistics.median(m["train_s"] for m in untraced)
    metrics["trace.train_s"] = traced_s
    metrics["trace.untraced_train_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    # Wall minus CPU time of untraced training: waiting on I/O or the CPU.
    metrics["cli.cmd_train.off_cpu_s"] = statistics.median(
        m["train_s"] - m["train_cpu_s"] for m in untraced)
    metrics["quality.final_accuracy"] = untraced[0]["final_accuracy"]
    return {name: metrics[name] for name in PER_LAYER_UNITS}, drift


if __name__ == "__main__":
    sys.exit(main())
