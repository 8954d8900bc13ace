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
    InputError,
    RoundFailedError,
)

log = logging.getLogger("uflst")


@dataclass
class TrainConfig:
    rounds: int = 20
    epochs_per_round: int = 50
    seed: int = 0
    hidden_dims: tuple = (64, 64)
    embedding_dim: int = 16
    knn_k: int = 20
    eval_episodes: int = 100
    optimizer: network.OptimizerConfig = field(default_factory=network.OptimizerConfig)
    dbscan: cluster.DbscanConfig = field(default_factory=cluster.DbscanConfig)
    episode: episodes.EpisodeConfig = field(default_factory=episodes.EpisodeConfig)
    loss: losses.LossConfig = field(default_factory=losses.LossConfig)

    def validate(self):
        if self.rounds < 1 or self.epochs_per_round < 1:
            raise ConfigError("rounds and epochs_per_round must be >= 1")
        if self.knn_k < 1 or self.embedding_dim < 1:
            raise ConfigError("knn_k and embedding_dim must be >= 1")
        if self.eval_episodes < 0:
            raise ConfigError("eval_episodes must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.optimizer.validate()
        self.dbscan.validate()
        self.episode.validate()
        self.loss.validate()
        if (self.loss.kind == losses.PROTOTYPE_KIND
                and self.episode.mode != episodes.PROTOTYPE):
            raise ConfigError("loss.kind=prototype needs episode.mode=prototype")

    def layer_dims(self, input_dim):
        return [input_dim, *self.hidden_dims, self.embedding_dim]


@dataclass
class RoundInfo:
    round: int
    epsilon: float
    fallback_rungs: list
    way_used: int
    episodes_run: int


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
    (up to three times, stopping at 1.0), then halves ms down to 2;
    exhaustion raises RoundFailedError.
    """
    emb, _ = network.forward(params, features)
    jm = metric.build_jaccard(emb, knn_k)
    if dbscan_cfg.epsilon_override > 0:
        epsilon = dbscan_cfg.epsilon_override
    else:
        epsilon = cluster.select_epsilon(
            jm, dbscan_cfg.resolve_p(features.shape[0]))
    rungs = []
    for eps, ms, rung in _fallback_ladder(epsilon, dbscan_cfg.ms):
        if rung:
            rungs.append(rung)
        try:
            raw = cluster.dbscan_fit(jm, eps, ms)
            return cluster.build_pseudo_labeled_set(raw), eps, rungs
        except EmptyClusteringError:
            pass
    raise RoundFailedError(
        f"clustering fallback ladder exhausted (tried {rungs})"
    )


def _fallback_ladder(epsilon, ms):
    """(epsilon, ms, rung name) of each DBSCAN attempt in ladder order.

    Epsilon stops at 1.0: every pair the Jaccard edge list leaves out is at
    exactly 1, so any larger epsilon gives the same neighbourhoods.  A rung
    that would repeat the previous epsilon (at the cap, or from 0) is
    skipped, since its attempt could not succeed either.
    """
    yield epsilon, ms, None
    for i in range(3):
        grown = min(epsilon * 1.5, 1.0)
        if grown <= epsilon:
            break
        epsilon = grown
        yield epsilon, ms, f"epsilon_x1.5_#{i + 1}"
    while ms > 2:
        ms = max(2, ms // 2)
        yield epsilon, ms, f"ms_halved_to_{ms}"


def run_episodic_phase(params, features, pl, config, rng):
    """Train on sampled episodes; returns (params, mean_loss, way, count).

    The way is reduced to the eligible class count when the preset is too
    wide for this round's clustering; below the test way (or 2) the round
    becomes clustering-only and parameters are untouched.
    """
    cfg = config.episode
    members = episodes.eligible_members(pl.class_members, cfg.n_e)
    way = min(cfg.n_c_train, len(members))
    floor = max(2, min(cfg.n_c_test, cfg.n_c_train))
    if way < floor:
        log.info("round skipped for training: %d eligible classes < %d",
                 len(members), floor)
        return params, math.nan, way, 0
    n_kept = int(pl.kept_indices.size)
    batches_per_epoch = max(1, math.ceil(n_kept / (way * cfg.n_e)))
    total = config.epochs_per_round * batches_per_epoch
    # one objective for the round's block shape; from `rng`, every block
    # and then, in one call, every episode's ranks (none for the kinds
    # whose bounds are empty, which takes no output)
    objective, bounds = losses.episode_objective(config.loss.kind, way,
                                                 cfg.n_e, cfg.n_s)
    blocks = episodes.sample_episodes(members, way, cfg.n_e, total, rng)
    ranks = rng.integers(0, bounds, size=(total, *np.shape(bounds)))
    # one workspace for every step: each step's embeddings and gradient
    # are read before the next step overwrites them
    ws = network.Workspace(params.dims, way * cfg.n_e)
    loss_sum = 0.0
    for s, (block, episode_ranks) in enumerate(zip(blocks, ranks)):
        epoch = s // batches_per_epoch + 1
        emb, cache = network.forward(params, features[block.ravel()], ws)
        loss, demb = objective(emb, episode_ranks)
        grad = network.backward(params, cache, demb, ws)
        network.adam_step(params, grad, config.optimizer, epoch, ws)
        loss_sum += loss
    return params, loss_sum / total, way, total


def _save_state(run_dir, name, state):
    """Write `metrics.csv` (when there is a history) and then the checkpoint
    `name` under run_dir; no-op without a run_dir."""
    if not run_dir:
        return
    if state.history:
        data.write_metrics(state.history, os.path.join(run_dir, "metrics.csv"))
    save_checkpoint(os.path.join(run_dir, name), state)


def run_training(config, dataset, eval_dataset=None, run_dir=None,
                 resume_from=None):
    """Execute the full alternating loop for config.rounds rounds.

    `dataset` supplies the unlabeled training features; its ground-truth
    labels (when present) feed only the per-round NMI metric.  A heldout
    `eval_dataset` adds per-round few-shot accuracy; it is checked against
    the encoder and the test protocol before round 1.  Artifacts (metrics,
    checkpoints, pseudo-label dumps) land in run_dir when given.
    """
    config.validate()
    features = np.asarray(dataset.features, dtype=np.float64)
    layer_dims = config.layer_dims(features.shape[1])
    if resume_from:
        state = load_checkpoint(resume_from)
    else:
        state = RoundState(0, network.init_params(layer_dims, config.seed), [])
    if list(state.params.dims) != layer_dims:
        raise ConfigError(f"checkpoint layer dims {list(state.params.dims)} "
                          f"differ from the config's {layer_dims}")
    if state.round >= config.rounds:
        raise ConfigError(f"checkpoint is at round {state.round}, so "
                          f"rounds={config.rounds} leaves nothing to run")
    params, history = state.params, state.history
    evaluating = eval_dataset is not None and config.eval_episodes > 0
    if evaluating:
        evaluate.eval_members(params, eval_dataset.features,
                              eval_dataset.labels, config.episode)
    start_round = state.round + 1
    if run_dir:
        for sub in ("checkpoints", "pseudo_labels"):
            os.makedirs(os.path.join(run_dir, sub), exist_ok=True)

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
            round_infos.append(RoundInfo(t, math.nan, ["exhausted"], 0, 0))
            status = "aborted"
            break

        if run_dir:
            data.write_pseudo_labels(
                os.path.join(run_dir, "pseudo_labels", f"round_{t:04d}.csv"),
                pl, features.shape[0], t,
            )
        params, mean_loss, way, n_episodes = run_episodic_phase(
            params, features, pl, config, train_rng
        )
        round_infos.append(RoundInfo(t, epsilon, rungs, way, n_episodes))

        acc_mean = acc_std = math.nan
        if evaluating:
            acc_mean, acc_std = evaluate.few_shot_accuracy(
                params, eval_dataset.features, eval_dataset.labels,
                config.episode, config.eval_episodes, eval_rng,
            )
        history.append(evaluate.RoundMetrics(
            round=t, **evaluate.cluster_stats(pl, dataset.labels),
            accuracy_mean=acc_mean, accuracy_std=acc_std, mean_loss=mean_loss,
        ))
        log.info("round %d: clusters=%d outliers=%d nmi=%s acc=%s loss=%s",
                 t, pl.num_clusters, pl.outlier_indices.size,
                 history[-1].nmi, acc_mean, mean_loss)

        _save_state(run_dir, f"checkpoints/round_{t:04d}.ckpt",
                    RoundState(t, params, history))

    if status == "completed":
        _save_state(run_dir, "final_model.ckpt",
                    RoundState(config.rounds, params, history))
    else:
        _save_state(run_dir, f"checkpoints/round_{t:04d}_failed.ckpt",
                    RoundState(t - 1, params, history))
    return TrainResult(params=params, history=history,
                       round_infos=round_infos, status=status)


def save_checkpoint(path, state):
    """Model checkpoint plus a round/history trailer, written atomically.

    The file starts with the plain model-parameter format, so the trailer
    is optional when reading.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        network.write_params(f, state.params)
        f.write(struct.pack("<I", state.round))
        hist = data.format_history(state.history).encode() if state.history else b""
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
        hist = f.read()
        if len(hist) != hist_len:
            raise CheckpointFormatError(f"history trailer holds {len(hist)} "
                                        f"bytes, its header says {hist_len}")
    try:
        history = data.parse_history(hist.decode()) if hist else []
    except (UnicodeDecodeError, InputError) as exc:
        raise CheckpointFormatError(f"{path}: bad history trailer: {exc}") from exc
    return RoundState(round=round_index, params=params, history=history)
