"""Command-line entry point.

Subcommands: train, cluster, eval, gradcheck, synth.  Overrides are
trailing dotted key=value pairs, e.g. `dbscan.ms=4 loss.kind=prototype`.
"""

from __future__ import annotations

import os

# Honor the thread cap before numpy initializes its BLAS thread pools.
_THREAD_CAP = os.environ.get("UFLST_THREADS")
if _THREAD_CAP:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _THREAD_CAP)

import argparse
import csv
import logging
import platform
import sys

import numpy as np

from . import __version__
from . import config as config_mod
from . import data, evaluate, losses, network, pipeline
from .errors import ConfigError, DatasetParseError, UflstError

log = logging.getLogger("uflst")


def _add_common(parser):
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                        help="dotted config overrides")


def _load_labels(path, n):
    """The labels of an `index,label` CSV with a header and then one row per
    feature row, in order."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))[1:]
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path}: not UTF-8 text: {exc}") from exc
    if len(rows) != n:
        raise DatasetParseError(f"{path}: line {min(len(rows), n) + 2}: "
                                f"{len(rows)} label rows for {n} feature rows")
    labels = np.empty(n, dtype=np.int64)
    for i, row in enumerate(rows):
        try:
            index, labels[i] = (int(v) for v in row)
        except (ValueError, OverflowError):
            index = None
        if index != i:
            raise DatasetParseError(f"{path}: line {i + 2}: expected "
                                    f"'{i},<integer label>', got {row}")
    return labels


def _load_dataset_dir(path, split, need_labels=False):
    features_path = os.path.join(path, f"{split}.raw64")
    ds = data.load_matrix_dataset(features_path)
    labels_path = os.path.join(path, f"{split}.labels.csv")
    if os.path.exists(labels_path):
        ds.labels = _load_labels(labels_path, ds.n)
    elif need_labels:
        raise DatasetParseError(
            f"{labels_path}: not found; few-shot evaluation needs labels"
        )
    return ds


def _setup_run_dir(run_dir, cfg, argv):
    """Snapshot config and environment; start `run.log`, warnings included."""
    os.makedirs(run_dir, exist_ok=True)
    config_mod.dump_config(cfg, os.path.join(run_dir, "config.yaml"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    meta = {
        "argv": list(argv),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "uflst": __version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "uflst_threads": _THREAD_CAP or "unset",
    }
    config_mod.dump_config(meta, os.path.join(run_dir, "run_meta.yaml"))
    handler = logging.FileHandler(os.path.join(run_dir, "run.log"))
    handler.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    for logger in (log, logging.getLogger("py.warnings")):
        logger.addHandler(handler)
    log.setLevel(logging.INFO)
    logging.captureWarnings(True)
    return handler


def cmd_train(args):
    cfg = config_mod.load_config(args.config, args.overrides)
    train_cfg = config_mod.build_train_config(cfg)
    train_ds = _load_dataset_dir(args.data, "train")
    eval_ds = None
    if (train_cfg.eval_episodes > 0
            and os.path.exists(os.path.join(args.data, "test.raw64"))):
        eval_ds = _load_dataset_dir(args.data, "test", need_labels=True)
    handler = _setup_run_dir(args.run_dir, cfg, args.argv)
    try:
        result = pipeline.run_training(
            train_cfg, train_ds, eval_dataset=eval_ds, run_dir=args.run_dir,
            resume_from=args.resume,
        )
    finally:
        logging.captureWarnings(False)
        for logger in (log, logging.getLogger("py.warnings")):
            logger.removeHandler(handler)
        handler.close()
    if result.status != "completed":
        print(f"train: run aborted after round "
              f"{result.round_infos[-1].round if result.round_infos else 0}; "
              f"state saved in {args.run_dir}", file=sys.stderr)
        return 1
    last = result.history[-1]
    print(f"train: completed {train_cfg.rounds} rounds; "
          f"final nmi={data.format_number(last.nmi) or 'n/a'} "
          f"accuracy={data.format_number(last.accuracy_mean) or 'n/a'}")
    return 0


def cmd_cluster(args):
    cfg = config_mod.load_config(args.config, args.overrides)
    train_cfg = config_mod.build_train_config(cfg)
    params = pipeline.load_checkpoint(args.checkpoint).params
    ds = data.load_matrix_dataset(args.features)
    pl, epsilon, rungs = pipeline.run_clustering_phase(
        params, ds.features, train_cfg.knn_k, train_cfg.dbscan
    )
    data.write_pseudo_labels(args.out, pl, ds.n, 0)
    print(f"cluster: {pl.num_clusters} clusters, "
          f"{pl.outlier_indices.size} outliers, epsilon={epsilon:.6g}"
          + (f", fallbacks={rungs}" if rungs else ""))
    return 0


def cmd_eval(args):
    cfg = config_mod.load_config(args.config, args.overrides)
    train_cfg = config_mod.build_train_config(cfg)
    params = pipeline.load_checkpoint(args.checkpoint).params
    test_ds = _load_dataset_dir(args.data, "test", need_labels=True)
    rng = np.random.default_rng(args.seed)
    mean, std = evaluate.few_shot_accuracy(
        params, test_ds.features, test_ds.labels, train_cfg.episode,
        args.episodes, rng,
    )
    print(f"eval: {train_cfg.episode.n_c_test}-way "
          f"{train_cfg.episode.n_s}-shot accuracy "
          f"{mean:.4f} +/- {std:.4f} over {args.episodes} episodes")
    return 0


GRADCHECK_KINDS = ("prototype", "triplet_hinge", "triplet_soft_margin")


def _gradcheck_loss(kind, emb0):
    """The loss of the flattened 3 x 3 episode block `emb0` as a fixed
    function of the embeddings, or None when a hinge sits too close to its
    kink at `emb0`.

    Triplets are mined once, at `emb0`, and then held fixed.
    """
    if kind == "prototype":
        fn, _ = losses.episode_objective(losses.PROTOTYPE_KIND, 3, 3, 1)
        return lambda emb: fn(emb, ())
    _, p, n, _ = losses.mine_hard_triplets(emb0.reshape(3, 3, -1))
    if kind == "triplet_hinge":
        _, _, pre = losses.triplet_pre_activation(emb0, emb0[p], emb0[n],
                                                  losses.TRIPLET_MARGIN)
        if np.any(np.abs(pre) < 1e-1):
            return None
        fn = losses.triplet_hinge_loss
    else:
        fn = losses.triplet_soft_margin_loss
    return lambda emb: losses.indexed_triplet_loss(fn, emb, p, n)


GRADCHECK_TOL = 1e-4   # a loss passes when its worst relative error is below


def run_gradient_suite(seed=0, trials=5):
    """Finite-difference checks of each loss through a small encoder.

    Trials landing too close to a relu or hinge kink are resampled, since
    a central difference stepping across a kink measures the wrong thing.
    """
    if trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {trials}")
    results = {}
    for kind_tag, kind in enumerate(GRADCHECK_KINDS):
        worst = 0.0
        done = 0
        attempt = 0
        while done < trials:
            rng = np.random.default_rng([seed, attempt, kind_tag])
            attempt += 1
            params = network.init_params([5, 8, 7, 4],
                                         seed=1000 * attempt + seed + 1)
            batch = rng.normal(size=(9, 5))
            emb0, cache = network.forward(params, batch)
            relu_margin = min(np.min(np.abs(z)) for z in cache["pre_acts"][:-1])
            if relu_margin < 10 * network.GRADCHECK_STEP:
                continue
            fn = _gradcheck_loss(kind, emb0)
            if fn is None:
                continue
            err = network.gradient_check(fn, params, batch)
            worst = max(worst, err)
            done += 1
        results[kind] = worst
    ok = all(v < GRADCHECK_TOL for v in results.values())
    return results, ok


def cmd_gradcheck(args):
    results, ok = run_gradient_suite(seed=args.seed, trials=args.trials)
    for kind, err in results.items():
        print(f"gradcheck: {kind} max relative error {err:.3e}")
    return 0 if ok else 1


def cmd_synth(args):
    cfg = config_mod.load_config(args.config, args.overrides)
    spec = config_mod.build_synthetic_spec(cfg)
    train_ds, test_ds = data.generate_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    config_mod.dump_config(cfg, os.path.join(args.out, "config.yaml"))
    for split, ds in (("train", train_ds), ("test", test_ds)):
        data.save_raw64(os.path.join(args.out, f"{split}.raw64"), ds.features)
        with open(os.path.join(args.out, f"{split}.labels.csv"), "w",
                  newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["index", "label"])
            for i, lab in enumerate(ds.labels):
                writer.writerow([i, int(lab)])
    print(f"synth: wrote {train_ds.n}x{train_ds.dim} train and "
          f"{test_ds.n}x{test_ds.dim} test features to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uflst",
        description="Alternating pseudo-label clustering and episodic "
                    "metric learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the full alternating pipeline")
    p.add_argument("--data", required=True,
                   help="directory with train.raw64 (+ optional labels/test)")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--resume", help="continue from a round checkpoint")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("cluster", help="one clustering phase on a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="pseudo-label CSV to write")
    _add_common(p)
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser("eval", help="few-shot accuracy of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="directory with test.raw64 and test.labels.csv")
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("synth", help="materialize a synthetic dataset")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    if getattr(args, "config", None) and not os.path.exists(args.config):
        parser.exit(2, f"uflst: config file not found: {args.config}\n")
    try:
        if getattr(args, "seed", 0) < 0:   # the --seed of eval and gradcheck
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (UflstError, OSError) as exc:
        print(f"uflst: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"uflst: error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
