"""Training objectives over episode embeddings.

All losses return (scalar, d_loss/d_embeddings) so the encoder backward
pass can chain them; distances are raw squared Euclidean throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metric
from .errors import ConfigError, ContractViolationError, InputError

PROTOTYPE_KIND = "prototype"
TRIPLET_KIND = "triplet"
SOFT_MARGIN_KIND = "soft_margin_triplet"
HARD_TRIPLET_KIND = "hard_triplet"
LOSS_KINDS = (PROTOTYPE_KIND, TRIPLET_KIND, SOFT_MARGIN_KIND, HARD_TRIPLET_KIND)


@dataclass
class LossConfig:
    kind: str = HARD_TRIPLET_KIND
    margin: float = 0.5

    def validate(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.margin < 0:
            raise ConfigError("margin must be nonnegative")


def prototype_loss(emb, labels, support_mask):
    """Mean negative-log softmax over prototype distances.

    Prototypes are per-class means of support embeddings; gradients flow
    to queries and, through the means, to support points.
    """
    emb = np.asarray(emb, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    support_mask = np.asarray(support_mask, dtype=bool)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ContractViolationError("prototype loss needs at least 2 classes")
    support_classes = set(np.unique(labels[support_mask]).tolist())
    query_idx = np.flatnonzero(~support_mask)
    if query_idx.size == 0:
        raise ContractViolationError("no query points")
    for q in query_idx:
        if labels[q] not in support_classes:
            raise ContractViolationError(
                f"query class {labels[q]} has no support examples"
            )

    class_list = sorted(support_classes)
    pos_of = {c: k for k, c in enumerate(class_list)}
    protos = np.stack([
        emb[support_mask & (labels == c)].mean(axis=0) for c in class_list
    ])
    support_counts = np.array(
        [np.count_nonzero(support_mask & (labels == c)) for c in class_list],
        dtype=np.float64,
    )

    zq = emb[query_idx]                       # (Q, D)
    diff = zq[:, None, :] - protos[None, :, :]  # (Q, K, D)
    d = np.sum(diff * diff, axis=2)           # (Q, K)
    logits = -d
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shift), axis=1)) + logits.max(axis=1)
    target = np.array([pos_of[labels[q]] for q in query_idx])
    loss = float(np.mean(lse - logits[np.arange(zq.shape[0]), target]))

    p = np.exp(logits - lse[:, None])
    w = -p
    w[np.arange(zq.shape[0]), target] += 1.0   # w_qk = [k == y_q] - p_qk
    n_q = zq.shape[0]
    grad = np.zeros_like(emb)
    # dL/dz_q = (2/Q) sum_k w_qk (z_q - c_k)
    grad_q = 2.0 / n_q * np.einsum("qk,qkd->qd", w, diff)
    grad[query_idx] += grad_q
    # dL/dc_k = -(2/Q) sum_q w_qk (z_q - c_k), split evenly over supports
    grad_c = -2.0 / n_q * np.einsum("qk,qkd->kd", w, diff)
    for k, c in enumerate(class_list):
        rows = np.flatnonzero(support_mask & (labels == c))
        grad[rows] += grad_c[k] / support_counts[k]
    return loss, grad


def triplet_pre_activation(anchor, positive, negative, margin):
    """(a - p, a - n, d(a,p) - d(a,n) + m) per triplet row."""
    anchor = np.atleast_2d(np.asarray(anchor, dtype=np.float64))
    positive = np.atleast_2d(np.asarray(positive, dtype=np.float64))
    negative = np.atleast_2d(np.asarray(negative, dtype=np.float64))
    if not (np.all(np.isfinite(anchor)) and np.all(np.isfinite(positive))
            and np.all(np.isfinite(negative))):
        raise InputError("triplet embeddings contain non-finite values")
    dp = anchor - positive
    dn = anchor - negative
    pre = np.sum(dp * dp, axis=1) - np.sum(dn * dn, axis=1) + margin
    return dp, dn, pre


def triplet_hinge_loss(anchor, positive, negative, margin):
    """max(0, d(a,p) - d(a,n) + m), averaged over the triplet batch.

    The inactive region (including the kink itself) contributes zero
    gradient.
    """
    dp, dn, pre = triplet_pre_activation(anchor, positive, negative, margin)
    t = pre.shape[0]
    active = pre > 0
    loss = float(np.sum(pre[active]) / t) if np.any(active) else 0.0
    scale = active.astype(np.float64)[:, None] / t
    grad_a = scale * 2.0 * (dp - dn)
    grad_p = scale * (-2.0) * dp
    grad_n = scale * 2.0 * dn
    return loss, (grad_a, grad_p, grad_n)


def triplet_soft_margin_loss(anchor, positive, negative, margin):
    """log(1 + exp(pre-activation)), overflow-safe in both directions."""
    dp, dn, pre = triplet_pre_activation(anchor, positive, negative, margin)
    t = pre.shape[0]
    loss = float(np.mean(np.logaddexp(0.0, pre)))
    sigma = 0.5 * (1.0 + np.tanh(0.5 * pre))
    scale = sigma[:, None] / t
    grad_a = scale * 2.0 * (dp - dn)
    grad_p = scale * (-2.0) * dp
    grad_n = scale * 2.0 * dn
    return loss, (grad_a, grad_p, grad_n)


@dataclass
class MiningStats:
    num_anchors: int
    num_skipped: int


def mine_hard_triplets(emb, labels):
    """Batch-hard mining inside one episode.

    Per anchor: farthest same-class point, nearest different-class point,
    ties broken by lowest index.  Anchors whose class has a single member
    are skipped and counted.
    """
    emb = np.asarray(emb, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.unique(labels).size < 2:
        raise ContractViolationError("hard mining needs at least 2 classes")
    dist = metric.sq_distances(emb, emb)
    same = labels[:, None] == labels[None, :]
    n = emb.shape[0]
    anchors, positives, negatives = [], [], []
    skipped = 0
    for i in range(n):
        pos_mask = same[i].copy()
        pos_mask[i] = False
        if not np.any(pos_mask):
            skipped += 1
            continue
        pos_d = np.where(pos_mask, dist[i], -np.inf)
        positives.append(int(np.argmax(pos_d)))
        neg_d = np.where(~same[i], dist[i], np.inf)
        negatives.append(int(np.argmin(neg_d)))
        anchors.append(i)
    return (
        np.array(anchors, dtype=np.intp),
        np.array(positives, dtype=np.intp),
        np.array(negatives, dtype=np.intp),
        MiningStats(num_anchors=len(anchors), num_skipped=skipped),
    )


def random_triplets(labels, rng):
    """One uniformly random (positive, negative) pair per eligible anchor."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.unique(labels).size < 2:
        raise ContractViolationError("triplets need at least 2 classes")
    n = labels.size
    anchors, positives, negatives = [], [], []
    for i in range(n):
        same = np.flatnonzero((labels == labels[i]) & (np.arange(n) != i))
        if same.size == 0:
            continue
        other = np.flatnonzero(labels != labels[i])
        anchors.append(i)
        positives.append(int(rng.choice(same)))
        negatives.append(int(rng.choice(other)))
    return (
        np.array(anchors, dtype=np.intp),
        np.array(positives, dtype=np.intp),
        np.array(negatives, dtype=np.intp),
    )


def episode_labels(task):
    """Pseudo-label position (0..n_c-1) of each row of the episode batch."""
    n_e = len(task.example_indices[0])
    return np.repeat(np.arange(len(task.class_ids)), n_e)


def episode_loss(task, emb, cfg, rng=None):
    """Dispatch to the configured loss for one episode batch.

    `emb` rows follow task.flat_indices() order.  Triplet variants need
    `rng` for random triplet construction (ignored by hard mining).
    """
    labels = episode_labels(task)
    if cfg.kind == PROTOTYPE_KIND:
        if task.support is None:
            raise ContractViolationError("prototype loss needs a support/query split")
        n_e = len(task.example_indices[0])
        n_s = len(task.support[0])
        support_mask = np.zeros(labels.size, dtype=bool)
        for c in range(len(task.class_ids)):
            support_mask[c * n_e : c * n_e + n_s] = True
        return prototype_loss(emb, labels, support_mask)

    if cfg.kind == HARD_TRIPLET_KIND:
        a, p, n, _ = mine_hard_triplets(emb, labels)
    else:
        if rng is None:
            raise ContractViolationError("random triplet construction needs an rng")
        a, p, n = random_triplets(labels, rng)
    fn = (triplet_soft_margin_loss if cfg.kind == SOFT_MARGIN_KIND
          else triplet_hinge_loss)
    return indexed_triplet_loss(fn, emb, a, p, n, cfg.margin)


def indexed_triplet_loss(fn, emb, a, p, n, margin):
    """A triplet loss `fn` over index triplets into `emb`, with the per-role
    gradients scattered back onto the rows of `emb`."""
    loss, (ga, gp, gn) = fn(emb[a], emb[p], emb[n], margin)
    grad = np.zeros_like(emb)
    np.add.at(grad, a, ga)
    np.add.at(grad, p, gp)
    np.add.at(grad, n, gn)
    return loss, grad
