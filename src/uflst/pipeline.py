"""Round loop: alternate pseudo-label clustering and episodic training.

Each round re-embeds the full dataset, rebuilds the Jaccard matrix,
re-clusters, and then trains the encoder on episodes sampled from the
surviving pseudo-labeled points.  Per-round RNG streams are derived from
(seed, round) so a resumed run reproduces an uninterrupted one exactly.
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import cluster, data, episodes, evaluate, losses, metric, network
from .errors import (
    CheckpointFormatError,
    ConfigError,
    EmptyClusteringError,
    RoundFailedError,
)

log = logging.getLogger("uflst")


@dataclass
class TrainConfig:
    rounds: int = 20
    epochs_per_round: int = 50
    episodes_per_round: int = 0     # 0 derives epochs * ceil(N_kept / batch)
    seed: int = 0
    hidden_dims: tuple = (64, 64)
    embedding_dim: int = 16
    knn_k: int = 20
    reset_adam_each_round: bool = False
    eval_episodes: int = 100
    optimizer: network.OptimizerConfig = field(default_factory=network.OptimizerConfig)
    dbscan: cluster.DbscanConfig = field(default_factory=cluster.DbscanConfig)
    episode: episodes.EpisodeConfig = field(default_factory=episodes.hard_triplet_preset)
    loss: losses.LossConfig = field(default_factory=losses.LossConfig)

    def validate(self):
        if self.rounds < 1 or self.epochs_per_round < 1:
            raise ConfigError("rounds and epochs_per_round must be >= 1")
        if self.knn_k < 1 or self.embedding_dim < 1:
            raise ConfigError("knn_k and embedding_dim must be >= 1")
        self.optimizer.validate()
        self.dbscan.validate()
        self.episode.validate()
        self.loss.validate()

    def layer_dims(self, input_dim):
        return [input_dim, *self.hidden_dims, self.embedding_dim]


@dataclass
class RoundInfo:
    round: int
    epsilon: float
    fallback_rungs: list
    way_used: int
    episodes_run: int
    trained: bool


@dataclass
class RoundState:
    round: int
    params: network.ModelParams
    history: list


@dataclass
class TrainResult:
    params: network.ModelParams
    history: list
    round_infos: list
    status: str   # "completed" | "aborted"


def run_clustering_phase(params, features, knn_k, dbscan_cfg):
    """Embed, build the Jaccard matrix, pick epsilon, cluster, strip noise.

    On an all-noise result the fallback ladder first scales epsilon by 1.5
    (up to three times), then halves ms down to 2; exhaustion raises
    RoundFailedError.
    """
    emb, _ = network.forward(params, features)
    jm = metric.build_jaccard(emb, knn_k)
    if dbscan_cfg.epsilon_override > 0:
        epsilon = dbscan_cfg.epsilon_override
    else:
        epsilon = cluster.select_epsilon(
            jm.values, dbscan_cfg.resolve_p(features.shape[0]),
            dbscan_cfg.per_point_minimum,
        )
    rungs = []

    def attempt(eps, ms):
        raw = cluster.dbscan_fit(jm.values, eps, ms)
        return cluster.build_pseudo_labeled_set(raw)

    eps, ms = epsilon, dbscan_cfg.ms
    try:
        return attempt(eps, ms), epsilon, rungs
    except EmptyClusteringError:
        pass
    for i in range(3):
        eps *= 1.5
        rungs.append(f"epsilon_x1.5_#{i + 1}")
        try:
            return attempt(eps, ms), eps, rungs
        except EmptyClusteringError:
            continue
    while ms > 2:
        ms = max(2, ms // 2)
        rungs.append(f"ms_halved_to_{ms}")
        try:
            return attempt(eps, ms), eps, rungs
        except EmptyClusteringError:
            continue
    raise RoundFailedError(
        f"clustering fallback ladder exhausted (tried {rungs})"
    )


def run_episodic_phase(params, features, pl, config, rng):
    """Train on sampled episodes; returns (params, mean_loss, way, count).

    The way is reduced to the eligible class count when the preset is too
    wide for this round's clustering; below the test way (or 2) the round
    becomes clustering-only and parameters are untouched.
    """
    cfg = config.episode
    report = episodes.check_feasibility(pl, cfg)
    way = min(cfg.n_c_train, int(report.eligible_classes.size))
    floor = max(2, min(cfg.n_c_test, cfg.n_c_train))
    if way < floor:
        log.info("round skipped for training: %d eligible classes < %d",
                 report.eligible_classes.size, floor)
        return params, math.nan, way, 0
    n_kept = int(pl.kept_indices.size)
    batches_per_epoch = max(1, math.ceil(n_kept / (way * cfg.n_e)))
    if config.episodes_per_round > 0:
        total = config.episodes_per_round
    else:
        total = config.epochs_per_round * batches_per_epoch
    loss_sum = 0.0
    for s in range(total):
        epoch = s // batches_per_epoch + 1
        task = episodes.sample_episode(pl, cfg, rng, n_c=way)
        batch = features[task.flat_indices()]
        emb, cache = network.forward(params, batch)
        loss, demb = losses.episode_loss(task, emb, config.loss, rng=rng)
        grads, _ = network.backward(params, cache, demb)
        network.adam_step(params, grads, config.optimizer, epoch)
        loss_sum += loss
    return params, loss_sum / total, way, total


def _round_metrics(t, pl, truth, acc_mean, acc_std, mean_loss):
    stats = evaluate.cluster_stats(pl, truth)
    return evaluate.RoundMetrics(
        round=t,
        nmi=stats["nmi"],
        num_clusters=stats["num_clusters"],
        num_outliers=stats["num_outliers"],
        mean_cluster_size=stats["mean_cluster_size"],
        accuracy_mean=acc_mean,
        accuracy_std=acc_std,
        mean_loss=mean_loss,
    )


def _prepare_run_dir(run_dir):
    os.makedirs(os.path.join(run_dir, "checkpoints"), exist_ok=True)
    os.makedirs(os.path.join(run_dir, "pseudo_labels"), exist_ok=True)


def run_training(config, dataset, eval_dataset=None, run_dir=None,
                 resume_from=None):
    """Execute the full alternating loop for config.rounds rounds.

    `dataset` supplies the unlabeled training features; its ground-truth
    labels (when present) feed only the per-round NMI metric.  A heldout
    `eval_dataset` adds per-round few-shot accuracy.  Artifacts (metrics,
    checkpoints, pseudo-label dumps) land in run_dir when given.
    """
    config.validate()
    features = np.asarray(dataset.features, dtype=np.float64)
    if run_dir:
        _prepare_run_dir(run_dir)

    if resume_from:
        state = load_checkpoint(resume_from)
        params = state.params
        history = state.history
        start_round = state.round + 1
    else:
        params = network.init_params(config.layer_dims(features.shape[1]),
                                     config.seed)
        history = []
        start_round = 1

    round_infos = []
    status = "completed"
    for t in range(start_round, config.rounds + 1):
        train_rng = np.random.default_rng(np.random.SeedSequence([config.seed, t, 0]))
        eval_rng = np.random.default_rng(np.random.SeedSequence([config.seed, t, 1]))
        try:
            pl, epsilon, rungs = run_clustering_phase(
                params, features, config.knn_k, config.dbscan
            )
        except RoundFailedError as exc:
            log.error("round %d failed: %s", t, exc)
            round_infos.append(RoundInfo(t, math.nan, ["exhausted"], 0, 0, False))
            status = "aborted"
            if run_dir and history:
                data.write_metrics(history, os.path.join(run_dir, "metrics.csv"))
            if run_dir:
                save_checkpoint(
                    os.path.join(run_dir, "checkpoints", f"round_{t:04d}_failed.ckpt"),
                    RoundState(round=t - 1, params=params, history=history),
                )
            break

        if run_dir:
            data.write_pseudo_labels(
                os.path.join(run_dir, "pseudo_labels", f"round_{t:04d}.csv"),
                pl, features.shape[0], t,
            )
        if config.reset_adam_each_round:
            fresh = network.init_params(config.layer_dims(features.shape[1]),
                                        config.seed)
            params.adam = fresh.adam

        params, mean_loss, way, n_episodes = run_episodic_phase(
            params, features, pl, config, train_rng
        )
        round_infos.append(RoundInfo(t, epsilon, rungs, way, n_episodes,
                                     n_episodes > 0))

        acc_mean = acc_std = math.nan
        if eval_dataset is not None and config.eval_episodes > 0:
            acc_mean, acc_std = evaluate.few_shot_accuracy(
                params, eval_dataset.features, eval_dataset.labels,
                config.episode, config.eval_episodes, eval_rng,
            )
        history.append(_round_metrics(t, pl, dataset.labels, acc_mean,
                                      acc_std, mean_loss))
        log.info("round %d: clusters=%d outliers=%d nmi=%s acc=%s loss=%s",
                 t, pl.num_clusters, pl.outlier_indices.size,
                 history[-1].nmi, acc_mean, mean_loss)

        if run_dir:
            data.write_metrics(history, os.path.join(run_dir, "metrics.csv"))
            save_checkpoint(
                os.path.join(run_dir, "checkpoints", f"round_{t:04d}.ckpt"),
                RoundState(round=t, params=params, history=history),
            )

    if run_dir and status == "completed":
        save_checkpoint(
            os.path.join(run_dir, "final_model.ckpt"),
            RoundState(round=config.rounds, params=params, history=history),
        )
    return TrainResult(params=params, history=history,
                       round_infos=round_infos, status=status)


def _history_to_bytes(history):
    lines = [",".join(evaluate.RoundMetrics.FIELDS)]
    for row in history:
        lines.append(",".join(data.format_number(v) for v in row.as_row()))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _history_from_bytes(blob):
    lines = blob.decode("utf-8").strip().split("\n")
    header = lines[0].split(",")
    if tuple(header) != evaluate.RoundMetrics.FIELDS:
        raise CheckpointFormatError("unexpected metrics header in checkpoint")
    history = []
    for line in lines[1:]:
        parts = line.split(",")
        vals = {}
        for name, text in zip(header, parts):
            if name in ("round", "num_clusters", "num_outliers"):
                vals[name] = int(text)
            else:
                vals[name] = math.nan if text == "" else float(text)
        history.append(evaluate.RoundMetrics(**vals))
    return history


def save_checkpoint(path, state):
    """Model checkpoint plus a round/history trailer, written atomically.

    The file starts with the plain model-parameter format, so the trailer
    is optional when reading.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        network.write_params(f, state.params)
        f.write(struct.pack("<I", state.round))
        hist = _history_to_bytes(state.history) if state.history else b""
        f.write(struct.pack("<Q", len(hist)))
        f.write(hist)
    os.replace(tmp, path)


def load_checkpoint(path):
    with open(path, "rb") as f:
        params = network.read_params(f)
        trailer = f.read(12)
        if not trailer:
            return RoundState(round=0, params=params, history=[])
        if len(trailer) != 12:
            raise CheckpointFormatError("truncated round/history trailer")
        (round_index,) = struct.unpack("<I", trailer[:4])
        (hist_len,) = struct.unpack("<Q", trailer[4:])
        hist = f.read(hist_len)
        if len(hist) != hist_len:
            raise CheckpointFormatError("truncated history blob")
    history = _history_from_bytes(hist) if hist else []
    return RoundState(round=round_index, params=params, history=history)
