"""Training objectives over episode embeddings.

`prototype_loss` and `triplet_loss`, the hinge or soft margin of all three
triplet kinds, return (scalar, d_loss/d_embeddings) so the encoder backward
pass can chain them; distances are raw squared Euclidean throughout.
`episode_objective` fixes a round's loss for its episode block shape,
with the bounds of the ranks it reads.  No loss draws: random triplets
read ranks that training draws for the whole round in one
`Generator.integers(0, bounds)` call after the round's episodes.

Training hands an objective embeddings that live in the round's
`network.Workspace`, valid only until the next step's forward, so every
loss reads them within its call and returns a gradient in arrays of its
own.
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
TRIPLET_MARGIN = 0.5


@dataclass
class LossConfig:
    kind: str = HARD_TRIPLET_KIND

    def validate(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}")


def prototype_loss(blocks, n_s):
    """Mean negative-log softmax over prototype distances of an (n_c, n_e,
    D) episode block whose row c is class c, its first n_s columns the
    support and the rest the queries; the gradient comes back in the
    block's shape.

    Prototypes are `metric.prototypes`, the support columns added to 0 in
    order and divided by n_s, as in `evaluate.nearest_prototype_predict`;
    gradients flow to queries and, through the means, to support points.
    The distances d_qk = |z_q - c_k|^2 come from `metric.sq_distances`,
    and with w_qk = [k == y_q] - p_qk the gradients are two GEMMs over the
    (Q, D) queries Z and the (K, D) prototypes C:

        dL/dZ = 2/Q (rowsum(w) Z - w C)
        dL/dC = -2/Q (w^T Z - colsum(w) C), split evenly over supports.

    `sq_distances` expands |a|^2 + |b|^2 - 2 a.b, so the absolute error of
    the loss and gradient scales with max|emb|^2.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3:
        raise ContractViolationError(
            f"an episode block is (n_c, n_e, D), got shape {blocks.shape}")
    n_c, n_e, dim = blocks.shape
    if n_c < 2:
        raise ContractViolationError("prototype loss needs at least 2 classes")
    if not 0 < n_s < n_e:
        raise ContractViolationError(
            f"n_s={n_s} of {n_e} columns leaves no support or no query")
    if not np.all(np.isfinite(blocks)):
        raise InputError("prototype embeddings contain non-finite values")

    zq = blocks[:, n_s:].reshape(-1, dim)
    protos = metric.prototypes(blocks, n_s)
    target = np.repeat(np.arange(n_c), n_e - n_s)
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
    grad = np.empty_like(blocks)
    grad[:, n_s:] = grad_q.reshape(n_c, n_e - n_s, dim)
    grad[:, :n_s] = (grad_c / n_s)[:, None]
    return loss, grad


def triplet_pre_activation(emb, p, n):
    """(a - p, a - n, d(a,p) - d(a,n) + TRIPLET_MARGIN) for the triplets
    (i, p[i], n[i]) of the rows i of `emb`."""
    dp = emb - emb[p]
    dn = emb - emb[n]
    return dp, dn, (np.sum(dp * dp, axis=1) - np.sum(dn * dn, axis=1)
                    + TRIPLET_MARGIN)


def triplet_loss(emb, p, n, soft=False):
    """The hinge max(0, pre), or with `soft` the soft margin log(1 +
    exp(pre)), overflow-safe in both directions, averaged over the
    triplets (i, p[i], n[i]) of the rows i of `emb`; the gradient is
    scattered onto those rows.

    The hinge's inactive region, its kink included, has zero gradient;
    `+ 0.0` makes an anchor's -0.0 the +0.0 of adding into zeros.
    """
    if not np.all(np.isfinite(emb)):
        raise InputError("triplet embeddings contain non-finite values")
    dp, dn, pre = triplet_pre_activation(emb, p, n)
    t = pre.shape[0]
    if soft:
        loss = float(np.mean(np.logaddexp(0.0, pre)))
        scale = 0.5 * (1.0 + np.tanh(0.5 * pre))[:, None] / t
    else:
        active = pre > 0
        loss = float(np.sum(pre[active]) / t)
        scale = active.astype(np.float64)[:, None] / t
    grad = scale * 2.0 * (dp - dn) + 0.0
    np.add.at(grad, p, scale * (-2.0) * dp)
    np.add.at(grad, n, scale * 2.0 * dn)
    return loss, grad


@dataclass
class MiningStats:
    num_anchors: int
    num_skipped: int


def mine_hard_triplets(blocks):
    """Batch-hard mining inside one (n_c, n_e, D) episode block, row c
    class c, over its flattened rows: every row anchors, with the farthest
    other member of its class and the nearest row of another class, ties
    broken by lowest index.  The positives are read from the class blocks
    on the diagonal of the rows' distance matrix, and the negatives from
    its rows with those blocks at +inf.  Returns (anchors, positives,
    negatives, stats); no anchor is ever skipped.  A non-finite row raises
    InputError before any distance is taken.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3:
        raise ContractViolationError(
            f"an episode block is (n_c, n_e, D), got shape {blocks.shape}")
    n_c, n_e, dim = blocks.shape
    if n_c < 2:
        raise ContractViolationError("hard mining needs at least 2 classes")
    if n_e < 2:
        raise ContractViolationError(f"hard mining needs n_e >= 2, got {n_e}")
    if not np.all(np.isfinite(blocks)):
        raise InputError("mined embeddings contain non-finite values")
    emb = blocks.reshape(n_c * n_e, dim)
    dist = metric.sq_distances(emb, emb)
    by_class = dist.reshape(n_c, n_e, n_c, n_e)
    classes, members = np.arange(n_c), np.arange(n_e)
    own = by_class[classes, :, classes]                # (n_c, n_e, n_e)
    own[:, members, members] = -np.inf
    positives = (np.argmax(own, axis=2) + n_e * classes[:, None]).ravel()
    by_class[classes, :, classes] = np.inf
    negatives = np.argmin(dist, axis=1)
    return (np.arange(n_c * n_e), positives, negatives,
            MiningStats(num_anchors=n_c * n_e, num_skipped=0))


def episode_objective(kind, n_c, n_e, n_s):
    """A round's loss over its flattened (n_c, n_e) episode blocks, and the
    bounds of the ranks it reads: (fn, bounds).

    `fn(emb, ranks)` gives (loss, grad) for one block, `ranks` holding one
    draw in [0, b) per bound b, as `Generator.integers(0, bounds)`.  Row
    c * n_e + j is member j of class c, its first n_s columns the support.
    `emb` need only stay valid during the call (training passes its
    workspace's embeddings), and `grad` is a new array of `emb`'s shape.
    The triplet kinds make every row an anchor (n_e >= 2); the random
    kinds' (positive, negative) ranks pick among its candidates in
    ascending index order, and the hard kind is the hinge.  The prototype
    and hard kinds read no ranks.  Each episode calls `prototype_loss` or
    `mine_hard_triplets`, on `emb` as an (n_c, n_e, D) block view, and
    `triplet_loss` through this module's globals.
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
    if kind == HARD_TRIPLET_KIND:
        def hard(emb, ranks):
            _, p, n, _ = mine_hard_triplets(np.reshape(emb, (n_c, n_e, -1)))
            return triplet_loss(emb, p, n)
        return hard, ()

    # an anchor's positives are its class's other rows and its negatives
    # every row outside its class: rank p skips the anchor at column j,
    # rank q skips the class's rows from `first` on
    anchors = np.arange(n_c * n_e)
    j = anchors % n_e
    first = anchors - j
    soft = kind == SOFT_MARGIN_KIND

    def drawn(emb, ranks):
        p, q = ranks[:, 0], ranks[:, 1]
        return triplet_loss(emb, first + p + (p >= j),
                            q + n_e * (q >= first), soft)
    return drawn, np.full((n_c * n_e, 2), [n_e - 1, (n_c - 1) * n_e],
                          dtype=np.int64)

