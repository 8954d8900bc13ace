"""Training objectives over episode embeddings.

All losses return (scalar, d_loss/d_embeddings) so the encoder backward
pass can chain them; distances are raw squared Euclidean throughout.
`episode_objective` fixes a round's loss for its episode block shape,
with the bounds of the ranks it reads.  No loss draws: random triplets
read ranks drawn by `episodes.sample_episodes`.

`prototype_loss` reads an episode by per-row labels and support flags,
or, as the round's objective calls it, as an (n_c, n_e, D) block by
slice; both layouts feed one softmax and gradient body.  Training hands
an objective embeddings that live in the round's `network.Workspace`,
valid only until the next step's forward, so every loss reads them
within its call and returns a gradient in arrays of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import episodes, metric
from .errors import ConfigError, ContractViolationError, InputError

PROTOTYPE_KIND = "prototype"
TRIPLET_KIND = "triplet"
SOFT_MARGIN_KIND = "soft_margin_triplet"
HARD_TRIPLET_KIND = "hard_triplet"
LOSS_KINDS = (PROTOTYPE_KIND, TRIPLET_KIND, SOFT_MARGIN_KIND, HARD_TRIPLET_KIND)
TRIPLET_MARGIN = 0.5


@dataclass
class LossConfig:
    kind: str = HARD_TRIPLET_KIND

    def validate(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")


def prototype_loss(emb, *layout):
    """Mean negative-log softmax over prototype distances.

    The episode comes in one of two layouts, read by the same softmax and
    gradient body:
      - `prototype_loss(emb, labels, support_mask)`: any (N, D) rows, each
        with its class label and support flag;
      - `prototype_loss(blocks, n_s)`: an (n_c, n_e, D) episode block whose
        row c is class c, its first n_s columns the support and the rest
        the queries.  Prototypes and queries are read by slice, as in
        `evaluate.nearest_prototype_predict`, and the gradient comes back
        in the block's shape.
    Both give the same bits on a block layout.

    Prototypes are per-class means of support embeddings, each the support
    rows added to 0 in row order and divided by their count; gradients
    flow to queries and, through the means, to support points.  The
    distances d_qk = |z_q - c_k|^2 come from `metric.sq_distances`, and
    with w_qk = [k == y_q] - p_qk the gradients are two GEMMs over the
    (Q, D) queries Z and the (K, D) prototypes C:

        dL/dZ = 2/Q (rowsum(w) Z - w C)
        dL/dC = -2/Q (w^T Z - colsum(w) C), split evenly over supports.

    `sq_distances` expands |a|^2 + |b|^2 - 2 a.b, so the absolute error of
    the loss and gradient scales with max|emb|^2.
    """
    emb = np.asarray(emb, dtype=np.float64)
    if len(layout) == 1:
        return _block_prototype_loss(emb, *layout)
    labels, support_mask = layout
    labels = np.asarray(labels, dtype=np.int64)
    support_mask = np.asarray(support_mask, dtype=bool)
    classes, of_row = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise ContractViolationError("prototype loss needs at least 2 classes")
    query_idx = np.flatnonzero(~support_mask)
    if query_idx.size == 0:
        raise ContractViolationError("no query points")
    of_support = of_row[support_mask]
    counts = np.bincount(of_support, minlength=classes.size)
    unsupported = classes[counts == 0]    # classes whose rows are all queries
    if unsupported.size:
        raise ContractViolationError(
            f"query class {unsupported[0]} has no support examples"
        )
    _check_finite(emb)

    sums = np.zeros((classes.size, emb.shape[1]))
    np.add.at(sums, of_support, emb[support_mask])
    loss, grad_q, grad_c = _prototype_softmax(
        emb[query_idx], sums / counts[:, None], of_row[query_idx])
    grad = np.zeros_like(emb)
    grad[query_idx] = grad_q
    grad[support_mask] = (grad_c / counts[:, None])[of_support]
    return loss, grad


def _block_prototype_loss(blocks, n_s):
    """`prototype_loss` over an (n_c, n_e, D) episode block with n_s
    support columns."""
    if blocks.ndim != 3:
        raise ContractViolationError(
            f"an episode block is (n_c, n_e, D), got shape {blocks.shape}")
    n_c, n_e, dim = blocks.shape
    if n_c < 2:
        raise ContractViolationError("prototype loss needs at least 2 classes")
    if not 0 < n_s < n_e:
        raise ContractViolationError(
            f"n_s={n_s} of {n_e} columns leaves no support or no query")
    _check_finite(blocks)

    protos = 0.0
    for j in range(n_s):
        protos = protos + blocks[:, j]
    loss, grad_q, grad_c = _prototype_softmax(
        blocks[:, n_s:].reshape(-1, dim), protos / n_s,
        np.repeat(np.arange(n_c), n_e - n_s))
    grad = np.empty_like(blocks)
    grad[:, n_s:] = grad_q.reshape(n_c, n_e - n_s, dim)
    grad[:, :n_s] = (grad_c / n_s)[:, None]
    return loss, grad


def _check_finite(emb):
    if not np.all(np.isfinite(emb)):
        raise InputError("prototype embeddings contain non-finite values")


def _prototype_softmax(zq, protos, target):
    """(loss, dL/dZ, dL/dC) of the softmax over -|z_q - c_k|^2 of the
    (Q, D) queries Z and (K, D) prototypes C, query q of class target[q]."""
    logits = metric.sq_distances(zq, protos)            # (Q, K)
    np.negative(logits, out=logits)
    top = logits.max(axis=1)
    shift = np.subtract(logits, top[:, None])
    lse = np.log(np.sum(np.exp(shift, out=shift), axis=1)) + top
    rows = np.arange(target.size)
    loss = float(np.mean(lse - logits[rows, target]))

    w = np.subtract(logits, lse[:, None], out=shift)
    np.negative(np.exp(w, out=w), out=w)
    w[rows, target] += 1.0
    scale = 2.0 / target.size
    grad_q = scale * (w.sum(axis=1)[:, None] * zq - w @ protos)
    grad_c = -scale * (w.T @ zq - w.sum(axis=0)[:, None] * protos)
    return loss, grad_q, grad_c


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


def episode_objective(kind, n_c, n_e, n_s):
    """A round's loss over its flattened (n_c, n_e) episode blocks, and the
    bounds of the ranks it reads: (fn, bounds).

    `fn(emb, ranks)` gives (loss, grad) for one block, `ranks` holding one
    draw in [0, b) per bound b (`episodes.sample_episodes`).  Row
    c * n_e + j is member j of class c, its first n_s columns the support.
    `emb` need only stay valid during the call (training passes its
    workspace's embeddings), and `grad` is a new array of `emb`'s shape.
    The prototype kind passes `emb` as an (n_c, n_e, D) block view with
    n_s, positionally, to `prototype_loss`.  The triplet kinds make every
    row an anchor (n_e >= 2); the random kinds' (positive, negative) ranks
    pick among its candidates in ascending index order.  The prototype
    and hard kinds read no ranks and reach `prototype_loss` and
    `mine_hard_triplets` through this module's globals per episode.
    """
    if n_c < 2:
        raise ContractViolationError("an episode needs at least 2 classes")
    if kind == PROTOTYPE_KIND:
        def proto(emb, ranks):
            loss, grad = prototype_loss(np.reshape(emb, (n_c, n_e, -1)), n_s)
            return loss, grad.reshape(np.shape(emb))
        return proto, ()
    if n_e < 2:
        raise ContractViolationError(f"triplets need n_e >= 2, got {n_e}")
    fn = (triplet_soft_margin_loss if kind == SOFT_MARGIN_KIND
          else triplet_hinge_loss)
    if kind == HARD_TRIPLET_KIND:
        labels = episodes.episode_layout(n_c, n_e, n_s)[0]

        def hard(emb, ranks):
            _, p, n, _ = mine_hard_triplets(emb, labels)
            return indexed_triplet_loss(fn, emb, p, n)
        return hard, ()

    # an anchor's positives are its class's other rows and its negatives
    # every row outside its class: rank p skips the anchor at column j,
    # rank q skips the class's rows from `first` on
    anchors = np.arange(n_c * n_e)
    j = anchors % n_e
    first = anchors - j

    def drawn(emb, ranks):
        p, q = ranks[:, 0], ranks[:, 1]
        return indexed_triplet_loss(fn, emb, first + p + (p >= j),
                                    q + n_e * (q >= first))
    return drawn, np.full((n_c * n_e, 2), [n_e - 1, (n_c - 1) * n_e],
                          dtype=np.int64)


def indexed_triplet_loss(fn, emb, p, n):
    """A triplet loss `fn` at TRIPLET_MARGIN over the triplets (i, p[i],
    n[i]) of each row i of `emb`, with the gradients scattered onto its
    rows; `+ 0.0` makes an anchor's -0.0 the +0.0 of adding into zeros."""
    loss, (ga, gp, gn) = fn(emb, emb[p], emb[n], TRIPLET_MARGIN)
    grad = ga + 0.0
    np.add.at(grad, p, gp)
    np.add.at(grad, n, gn)
    return loss, grad
