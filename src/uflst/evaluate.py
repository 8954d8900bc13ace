"""Clustering and few-shot evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import episodes, metric, network
from .errors import ConfigError, InputError, ProtocolInfeasibleError


@dataclass
class RoundMetrics:
    round: int
    nmi: float          # nan when undefined (e.g. all-outlier round)
    num_clusters: int
    num_outliers: int
    mean_cluster_size: float
    accuracy_mean: float  # nan when evaluation is disabled
    accuracy_std: float
    mean_loss: float


RoundMetrics.FIELDS = tuple(f.name for f in fields(RoundMetrics))


def nmi(a, b):
    """Normalized mutual information I(a,b)/sqrt(H(a)H(b)), natural logs.

    When either labeling has zero entropy the value is 1 for identical
    partitions and 0 otherwise.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0 or a.shape != b.shape:
        raise InputError("label arrays must be nonempty and equally sized")
    n = a.size
    a_vals, a_inv = np.unique(a, return_inverse=True)
    b_vals, b_inv = np.unique(b, return_inverse=True)
    cont = np.zeros((a_vals.size, b_vals.size))
    np.add.at(cont, (a_inv, b_inv), 1.0)
    pa = cont.sum(axis=1) / n
    pb = cont.sum(axis=0) / n
    ha = -np.sum(pa * np.log(pa))
    hb = -np.sum(pb * np.log(pb))
    if ha == 0.0 or hb == 0.0:
        same_partition = np.all(a_inv == b_inv)
        return 1.0 if same_partition else 0.0
    pij = cont / n
    mask = pij > 0
    mi = np.sum(pij[mask] * (np.log(pij[mask])
                             - np.log(pa[:, None] * pb[None, :])[mask]))
    return float(mi / math.sqrt(ha * hb))


def nearest_prototype_predict(blocks, n_s):
    """The nearest class of each query in stacked (..., n_c, n_e, D)
    episode blocks, shape (..., n_c, n_e - n_s): row c is class c, its
    first n_s columns the support, whose `metric.prototypes` each query
    is scored against."""
    *lead, n_c, n_e, dim = blocks.shape
    query = blocks[..., n_s:, :].reshape(*lead, n_c * (n_e - n_s), dim)
    nearest = np.argmin(
        metric.sq_distances(query, metric.prototypes(blocks, n_s)), axis=-1)
    return nearest.reshape(*lead, n_c, n_e - n_s)


def eval_members(params, features, labels, protocol):
    """Member indices of each class that can fill a `protocol` episode;
    raises when the features do not fit the encoder or too few classes do."""
    if np.shape(features)[1:] != (params.dims[0],):
        raise InputError(f"eval features of shape {np.shape(features)} do not "
                         f"match the encoder's input dim {params.dims[0]}")
    way, per_class = protocol.n_c_test, protocol.n_s + protocol.n_q
    members = episodes.eligible_members(
        metric.label_groups(np.asarray(labels, dtype=np.int64)), per_class)
    if len(members) < way:
        raise ProtocolInfeasibleError(
            f"{len(members)} classes with >= {per_class} examples < way {way}"
        )
    return members


def few_shot_accuracy(params, features, labels, protocol, n_episodes, rng):
    """Mean and std of nearest-prototype accuracy over evaluation episodes.

    The `n_episodes` (n_c_test, n_s + n_q) blocks come from one
    `episodes.sample_episodes` call, which writes them into one array.
    The encoder embeds the rows the blocks touch once, so a non-finite row
    raises only when some episode draws it.  The episodes are then scored
    `episodes.CHUNK` at a time in one stacked `nearest_prototype_predict`
    call: a query in block row c is right when its nearest class is c.
    """
    if n_episodes < 1:
        raise ConfigError(f"episodes must be >= 1, got {n_episodes}")
    features = np.asarray(features, dtype=np.float64)
    members = eval_members(params, features, labels, protocol)
    way, per_class = protocol.n_c_test, protocol.n_s + protocol.n_q
    blocks = episodes.sample_episodes(members, way, per_class, n_episodes, rng)
    drawn = np.zeros(len(features), dtype=bool)
    drawn[blocks] = True
    emb, _ = network.forward(params, features[drawn])
    at = np.cumsum(drawn) - 1   # each drawn row's position in `emb`
    accs = np.empty(n_episodes)
    for start in range(0, n_episodes, episodes.CHUNK):
        pred = nearest_prototype_predict(
            emb[at[blocks[start:start + episodes.CHUNK]]], protocol.n_s)
        accs[start:start + len(pred)] = np.mean(
            pred == np.arange(way)[:, None], axis=(1, 2))
    return float(np.mean(accs)), float(np.std(accs))


def cluster_stats(pl, ground_truth=None):
    """Counts, sizes and (when labels are available) NMI over kept points."""
    sizes = np.array([m.size for m in pl.class_members], dtype=np.float64)
    value = math.nan
    if ground_truth is not None and pl.kept_indices.size > 0 and pl.num_clusters > 0:
        truth = np.asarray(ground_truth)[pl.kept_indices]
        value = nmi(truth, pl.labels)
    return {
        "nmi": value,
        "num_clusters": pl.num_clusters,
        "num_outliers": int(pl.outlier_indices.size),
        "mean_cluster_size": float(sizes.mean()) if sizes.size else 0.0,
    }
