"""Clustering and few-shot evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metric, network
from .errors import InputError, ProtocolInfeasibleError


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

    FIELDS = ("round", "nmi", "num_clusters", "num_outliers",
              "mean_cluster_size", "accuracy_mean", "accuracy_std", "mean_loss")

    def as_row(self):
        return [getattr(self, f) for f in self.FIELDS]


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


def nearest_prototype_predict(support_emb, support_labels, query_emb):
    """Classify each query to the class whose support mean is closest."""
    classes = np.unique(support_labels)
    protos = np.stack([
        support_emb[support_labels == c].mean(axis=0) for c in classes
    ])
    return classes[np.argmin(metric.sq_distances(query_emb, protos), axis=1)]


def few_shot_accuracy(params, features, labels, protocol, episodes, rng,
                      n_query=None):
    """Mean and std of nearest-prototype accuracy over evaluation episodes.

    Every episode samples `protocol.n_c_test` classes with n_s support and
    n_query (default protocol.n_q) query examples per class; the encoder
    embeds both and queries go to the nearest prototype.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_query = protocol.n_q if n_query is None else n_query
    way, shot = protocol.n_c_test, protocol.n_s
    per_class = shot + n_query
    classes = np.unique(labels)
    eligible = [c for c in classes if np.count_nonzero(labels == c) >= per_class]
    if len(eligible) < way:
        raise ProtocolInfeasibleError(
            f"{len(eligible)} classes with >= {per_class} examples < way {way}"
        )
    eligible = np.array(eligible)
    members = {c: np.flatnonzero(labels == c) for c in eligible}
    accs = np.empty(episodes)
    for e in range(episodes):
        chosen = rng.choice(eligible, size=way, replace=False)
        sup_rows, sup_lab, qry_rows, qry_lab = [], [], [], []
        for c in chosen:
            pick = rng.choice(members[c], size=per_class, replace=False)
            sup_rows.extend(pick[:shot])
            sup_lab.extend([c] * shot)
            qry_rows.extend(pick[shot:])
            qry_lab.extend([c] * n_query)
        all_rows = np.array(sup_rows + qry_rows)
        emb, _ = network.forward(params, features[all_rows])
        n_sup = len(sup_rows)
        pred = nearest_prototype_predict(emb[:n_sup], np.array(sup_lab),
                                         emb[n_sup:])
        accs[e] = np.mean(pred == np.array(qry_lab))
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
