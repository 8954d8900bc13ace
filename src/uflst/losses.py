"""Training objectives over episode embeddings.

All losses return (scalar, d_loss/d_embeddings) so the encoder backward
pass can chain them; distances are raw squared Euclidean throughout.  No
loss draws: random triplets read ranks drawn by `episodes.sample_episodes`.
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
RANDOM_TRIPLET_KINDS = (TRIPLET_KIND, SOFT_MARGIN_KIND)
TRIPLET_MARGIN = 0.5


@dataclass
class LossConfig:
    kind: str = HARD_TRIPLET_KIND

    def validate(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")


def prototype_loss(emb, labels, support_mask):
    """Mean negative-log softmax over prototype distances.

    Prototypes are per-class means of support embeddings; gradients flow
    to queries and, through the means, to support points.
    """
    emb = np.asarray(emb, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    support_mask = np.asarray(support_mask, dtype=bool)
    if np.unique(labels).size < 2:
        raise ContractViolationError("prototype loss needs at least 2 classes")
    query_idx = np.flatnonzero(~support_mask)
    if query_idx.size == 0:
        raise ContractViolationError("no query points")
    class_list, of_support, counts, protos = metric.class_means(
        emb[support_mask], labels[support_mask])
    unsupported = np.setdiff1d(labels[query_idx], class_list)
    if unsupported.size:
        raise ContractViolationError(
            f"query class {unsupported[0]} has no support examples"
        )

    zq = emb[query_idx]                       # (Q, D)
    diff = zq[:, None, :] - protos[None, :, :]  # (Q, K, D)
    d = np.sum(diff * diff, axis=2)           # (Q, K)
    logits = -d
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shift), axis=1)) + logits.max(axis=1)
    target = np.searchsorted(class_list, labels[query_idx])
    loss = float(np.mean(lse - logits[np.arange(zq.shape[0]), target]))

    p = np.exp(logits - lse[:, None])
    w = -p
    w[np.arange(zq.shape[0]), target] += 1.0   # w_qk = [k == y_q] - p_qk
    n_q = zq.shape[0]
    grad = np.zeros_like(emb)
    # dL/dz_q = (2/Q) sum_k w_qk (z_q - c_k)
    grad[query_idx] += 2.0 / n_q * np.einsum("qk,qkd->qd", w, diff)
    # dL/dc_k = -(2/Q) sum_q w_qk (z_q - c_k), split evenly over supports
    grad_c = -2.0 / n_q * np.einsum("qk,qkd->kd", w, diff)
    grad[support_mask] += (grad_c / counts[:, None])[of_support]
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
    return loss, _triplet_grads(dp, dn, active.astype(np.float64)[:, None] / t)


def triplet_soft_margin_loss(anchor, positive, negative, margin):
    """log(1 + exp(pre-activation)), overflow-safe in both directions."""
    dp, dn, pre = triplet_pre_activation(anchor, positive, negative, margin)
    t = pre.shape[0]
    loss = float(np.mean(np.logaddexp(0.0, pre)))
    sigma = 0.5 * (1.0 + np.tanh(0.5 * pre))
    return loss, _triplet_grads(dp, dn, sigma[:, None] / t)


def _triplet_grads(dp, dn, scale):
    """Anchor, positive and negative gradients of a triplet loss whose
    derivative in the pre-activation is `scale` per row."""
    return scale * 2.0 * (dp - dn), scale * (-2.0) * dp, scale * 2.0 * dn


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
    pos_mask = same & ~np.eye(labels.size, dtype=bool)
    anchors = np.flatnonzero(pos_mask.any(axis=1))
    positives = np.argmax(np.where(pos_mask, dist, -np.inf), axis=1)[anchors]
    negatives = np.argmin(np.where(same, np.inf, dist), axis=1)[anchors]
    return (
        anchors,
        positives,
        negatives,
        MiningStats(num_anchors=anchors.size,
                    num_skipped=labels.size - anchors.size),
    )


def triplet_counts(labels):
    """The (positive, negative) candidate counts of each anchor with a
    same-class partner, anchors in index order: the bounds of the ranks
    that `random_triplets` reads."""
    size = np.sum(np.equal.outer(labels, labels), axis=1)
    size = size[size > 1]
    return np.stack([size - 1, len(labels) - size], axis=1)


def random_triplets(labels, ranks):
    """One (positive, negative) pair per anchor with a same-class partner.

    Anchors go in index order; `ranks[i]` picks anchor i's positive and
    negative among its candidate indices in ascending order, each rank
    below its `triplet_counts` bound.  Uniform ranks, as
    `episodes.sample_episodes` draws them, pick uniformly among the
    candidates.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if np.unique(labels).size < 2:
        raise ContractViolationError("triplets need at least 2 classes")
    other = labels[:, None] != labels[None, :]
    same = ~other
    np.fill_diagonal(same, False)
    anchors = np.flatnonzero(same.any(axis=1))
    same, other, ranks = same[anchors], other[anchors], np.asarray(ranks)
    # the k-th candidate of a row is the number of columns before its
    # (k + 1)-th True
    positives = np.sum(np.cumsum(same, axis=1) <= ranks[:, :1], axis=1)
    negatives = np.sum(np.cumsum(other, axis=1) <= ranks[:, 1:], axis=1)
    return (anchors.astype(np.intp), positives.astype(np.intp),
            negatives.astype(np.intp))


def episode_loss(emb, labels, support_mask, cfg, ranks=None):
    """Dispatch to the configured loss for one episode batch.

    `labels` and `support_mask` are the `episodes.episode_layout` of the
    rows of `emb`; the support mask is read only by the prototype loss.
    The random triplet kinds need the episode's `ranks`, drawn with
    `triplet_counts(labels)` bounds; the others read none.
    """
    if cfg.kind == PROTOTYPE_KIND:
        return prototype_loss(emb, labels, support_mask)

    if cfg.kind == HARD_TRIPLET_KIND:
        a, p, n, _ = mine_hard_triplets(emb, labels)
    else:
        if ranks is None:
            raise ContractViolationError("random triplets need drawn ranks")
        a, p, n = random_triplets(labels, ranks)
    fn = (triplet_soft_margin_loss if cfg.kind == SOFT_MARGIN_KIND
          else triplet_hinge_loss)
    return indexed_triplet_loss(fn, emb, a, p, n)


def indexed_triplet_loss(fn, emb, a, p, n):
    """A triplet loss `fn` at TRIPLET_MARGIN over index triplets into `emb`,
    with the per-role gradients scattered back onto the rows of `emb`."""
    loss, (ga, gp, gn) = fn(emb[a], emb[p], emb[n], TRIPLET_MARGIN)
    grad = np.zeros_like(emb)
    np.add.at(grad, a, ga)
    np.add.at(grad, p, gp)
    np.add.at(grad, n, gn)
    return loss, grad
