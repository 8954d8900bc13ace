"""Pairwise distances, (reciprocal) neighbor sets and the Jaccard matrix.

The neighbor-set distance is defined on squared Euclidean distances in
embedding space; two points are close in the Jaccard sense when their
mutual-nearest-neighbor sets overlap heavily.

The chain never holds an N x N array: distances and kNN lists are built
in cache-sized row blocks that share one buffer, and the Jaccard matrix
is kept as the edge list of its pairs below 1, of which there are at
most N k^2 / 2.  A block is a few memory-bound passes over its
distances, so its size, not the GEMM, sets the speed (README "Scale").
The kNN step selects no row in full: a minimum over strided column
groups bounds each row's (k+1)-th smallest distance from above, and only
the few entries under that bound are sorted.  The blocks are left
unclamped: `knn_sets` clamps at 0 only its bounds and the candidates it
sorts, which gives the lists of the clamped block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolationError, DegenerateGeometryWarning,
                     InputError)

# Distance entries per row block in `build_jaccard` (1 MB of float64).
# With the norms taken once per build and the group bound in `knn_sets`,
# two series of five interleaved sweeps of 1 << 16 to 1 << 20 (one BLAS
# thread, 2-core x86_64 with 2 MB of L2 per core) gave these series
# medians of `build_jaccard`, for 1 << 16, 17, 18, 19 and 20: at N = 4k
# (rays-4k initial embeddings, k=12) 0.10-0.12, 0.10-0.11, 0.12, 0.13
# and 0.14 s; at 16k (random 16-d, k=20) 1.94-2.11, 1.71-1.76,
# 1.75-1.77, 1.88-2.00 and 1.90-2.01 s: 1 << 17 is the fastest at both.
BLOCK_ENTRIES = 1 << 17

# Columns per strided group in `knn_sets`' candidate bound: wider groups
# make fewer minima to select among, and the bound stays near the row's
# own (k+1)-th value while N / GROUP is well above k.
GROUP = 32


@dataclass(frozen=True)
class JaccardMatrix:
    """Jaccard distances of n points as an upper-triangle edge list, the one
    form of the graph that epsilon selection and DBSCAN read.

    The pairs rows[e] < cols[e] are stored at dist[e], sorted by (row,
    col), and the diagonal is 0.  A pair the list leaves out is at exactly
    1 and sorts after every stored distance.  `build_jaccard` stores
    exactly the pairs below 1; a list that stores every pair leaves
    nothing out.
    """
    n: int
    rows: np.ndarray
    cols: np.ndarray
    dist: np.ndarray

    @property
    def values(self):
        """The dense n x n matrix, for small-N checks and tracing."""
        out = np.ones((self.n, self.n))
        out[self.rows, self.cols] = self.dist
        out[self.cols, self.rows] = self.dist
        np.fill_diagonal(out, 0.0)
        return out


def sq_distances(a, b, out=None, b_norms=None):
    """Squared Euclidean distance between every row of `a` and every row of
    `b`, clamped at 0 against cancellation.  Stacked (..., rows, D) inputs
    give each stack entry the bits of its own 2-D call.  The one distance
    helper: re-ranking, few-shot eval, hard mining and the prototype
    training loss all call it, re-ranking in its unclamped form
    `_sq_expansion`, whose negative residues `knn_sets` ranks as 0.

    The bits are those of `max((|a|^2 + |b|^2) - 2 (a b^T), 0)`, with
    |b|^2 read from `b_norms` when given, which must then be
    `np.sum(b * b, axis=-1)`: a caller looping over row blocks of `a`
    against one `b` takes them once, and `a` viewing the same rows as `b`
    reads them as |a|^2 too.  `out`, when given, receives the distances,
    so such a caller can reuse one buffer too."""
    dist = _sq_expansion(a, b, out, b_norms)
    np.maximum(dist, 0.0, out=dist)
    return dist


def _sq_expansion(a, b, out=None, b_norms=None):
    """`sq_distances` before the clamp: (|a|^2 + |b|^2) - 2 (a b^T), whose
    entries can fall below 0 by rounding.

    The -2 is folded into the row operand, so the GEMM gives -2 (a b^T)
    and one add finishes each entry.  Scaling by a power of 2 is exact,
    so (-2 a) b^T equals -(2 (a b^T)) bit for bit, and s + (-2ab) is
    s - 2ab, unless a product or partial sum of the GEMM is subnormal,
    where the scaling rounds.  When `a` and `b` view the same rows, as
    in hard mining or a one-block `build_jaccard`, numpy takes a b^T by
    SYRK, whose bits a GEMM of -2 a would not keep: that product is
    scaled after, and |a|^2 is read from |b|^2."""
    bt = np.swapaxes(b, -1, -2)
    # numpy's own test for SYRK: one data pointer, shape and strides
    same = (a.shape == b.shape and a.strides == b.strides
            and a.__array_interface__["data"][0]
            == b.__array_interface__["data"][0])
    if same:
        dist = np.matmul(a, bt, out=out)
        dist *= -2.0
    else:
        dist = np.matmul(-2.0 * a, bt, out=out)
    if b_norms is None:
        b_norms = np.sum(b * b, axis=-1)
    a_norms = b_norms if same else np.sum(a * a, axis=-1)
    np.add(a_norms[..., :, None] + b_norms[..., None, :], dist, out=dist)
    return dist


def prototypes(blocks, n_s):
    """The (..., n_c, D) prototypes of stacked (..., n_c, n_e, D) episode
    blocks whose first n_s columns are the support.  The support is added
    to 0 column by column, not pairwise as a width-n_s `np.mean` would,
    and then divided by n_s, so each prototype has the bits of its class's
    row-order mean."""
    protos = 0.0
    for j in range(n_s):
        protos = protos + blocks[..., j, :]
    return protos / n_s


def label_groups(labels):
    """The row indices of each distinct label, labels in ascending order and
    rows ascending within each: `[np.flatnonzero(labels == c) for c in
    np.unique(labels)]` from one stable sort."""
    order = np.argsort(labels, kind="stable")
    _, starts = np.unique(labels[order], return_index=True)
    return np.split(order, starts)[1:]


def _check_finite(values):
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise InputError("embeddings contain non-finite values")
    return values


def pairwise_sq_euclidean(values):
    """Full N x N squared-distance matrix; symmetric, zero diagonal."""
    values = _check_finite(values)
    dist = sq_distances(values, values)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def knn_sets(dist, k, start=0):
    """Ordered k-nearest-neighbor lists, self excluded, index tie-break.

    `dist` holds rows start, start+1, ... of the N x N distance matrix
    (all of it by default), before or after `sq_distances`' clamp at 0:
    a negative entry ranks as 0, so both give the same lists.  The
    result is a (rows, k) index array.  k is clamped to N-1 with a
    warning when too large.

    One path serves every row.  Column j goes to strided group j % G of
    width w = min(GROUP, N // (k+1)), G = N // w, and the tail past G w
    columns to no group.  Each group holds an entry equal to its minimum,
    so the (k+1)-th smallest of the G minima is never below the row's
    (k+1)-th smallest entry, whatever the column order and the ties.
    Every entry at or below it is a candidate.  The candidates come in
    (row, column) order, so one stable lexsort by (row, distance) ranks
    those other than self, ties by column.  The cost is
    one minimum pass and one comparison pass over the block, a partition
    of b x G minima, and a sort of a few more than k candidates per row
    on spread-out data.  NaN distances, which leave a row short of k
    candidates, raise ContractViolationError.
    """
    dist = np.asarray(dist, dtype=np.float64)
    b, n = dist.shape
    if k >= n:
        warnings.warn(f"k={k} clamped to {n - 1} for N={n} points")
        k = n - 1
    if k <= 0:
        return np.empty((b, 0), dtype=np.intp)
    # k+1 groups, so k+1 entries, lie at or below the bound: the k
    # nearest others are among the entries there, ties included
    width = min(GROUP, n // (k + 1))
    groups = n // width
    mins = np.minimum.reduce(
        dist[:, :groups * width].reshape(b, width, groups), axis=1)
    # a clamped block's minima, bound and candidates are these, with
    # max(., 0) taken after: it never decreases, so it keeps every order
    bound = np.maximum(np.partition(mins, k, axis=1)[:, k], 0.0)
    flat = np.flatnonzero(dist <= bound[:, None])
    rows, cols = np.divmod(flat, n)
    other = cols != rows + start
    rows, cols = rows[other], cols[other]
    order = np.lexsort((np.maximum(dist[rows, cols], 0.0), rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    first = rank < k
    if np.count_nonzero(first) < b * k:
        # only a NaN distance compares false with the bound
        raise ContractViolationError(
            "distances hold NaN: a row has fewer than k neighbor candidates")
    knn = np.empty((b, k), dtype=np.intp)
    knn[rows[first], rank[first]] = cols[first]
    return knn


def k_reciprocal_sets(knn):
    """Mutual-membership filter: keep j in knn[i] only if i is in knn[j].

    Returns (members, sizes): the ascending sets R_i of the points laid end
    to end in point order, and the size of each.
    """
    knn = np.asarray(knn, dtype=np.intp)
    n, k = knn.shape
    # pair (i, j) as the key i*n + j; sorting the keys sorts by (i, j)
    keys = np.sort(np.repeat(np.arange(n), k) * n + knn.ravel())
    rows, cols = np.divmod(keys, n)
    mutual = np.isin(cols * n + rows, keys, assume_unique=True)
    return cols[mutual], np.bincount(rows[mutual], minlength=n)


def jaccard_matrix(reciprocal):
    """1 - |R_a cap R_b| / |R_a cup R_b| for every pair, as the edges below 1.

    `reciprocal` is the (members, sizes) pair of `k_reciprocal_sets`.
    Reciprocity is symmetric, so m lies in R_a and in R_b exactly when a
    and b both lie in R_m: counting how often each pair occurs inside the
    sets R_m gives every non-empty intersection.  The pairs that occur
    nowhere are disjoint or both empty, and sit at 1.
    """
    members, sizes = reciprocal
    n = sizes.size
    starts = np.cumsum(sizes) - sizes
    # the pair keys a*n + b of every set, in one array sorted in place
    keys = np.empty(np.sum(sizes * (sizes - 1) // 2), dtype=np.int64)
    end = 0
    # the set sizes from 2 up, ascending (np.unique would import numpy.ma)
    for s in np.flatnonzero(np.bincount(sizes)[2:]) + 2:
        # each set is ascending, so every (a, b) pair below has a < b
        sets = members[starts[sizes == s][:, None] + np.arange(s)]
        a, b = np.triu_indices(s, k=1)
        block = keys[end:end + sets.shape[0] * a.size].reshape(-1, a.size)
        np.multiply(sets[:, a], n, out=block)
        block += sets[:, b]
        end += block.size
    keys.sort()
    # a pair's count is the length of its run of equal keys
    run_start = np.empty(keys.size, dtype=bool)
    run_start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
    first = np.flatnonzero(run_start)
    inter = np.diff(first, append=keys.size)
    rows, cols = np.divmod(keys[first], n)
    union = sizes[rows] + sizes[cols] - inter
    return JaccardMatrix(n=n, rows=rows, cols=cols, dist=1.0 - inter / union)


def build_jaccard(embeddings, k):
    """Distances -> knn -> reciprocal -> Jaccard, in row blocks.

    Each block holds about BLOCK_ENTRIES squared distances in one buffer
    reused by every block, so memory stays O(N k^2 + block) however
    large N grows, and the N squared norms are taken once for all blocks
    (README "Scale" has the times).  The block size and GROUP change no
    output bit.  Embeddings whose squared norms could overflow the
    distances raise InputError before any distance is taken.
    """
    emb = _check_finite(embeddings)
    n = emb.shape[0]
    with np.errstate(over="ignore"):
        norms = np.sum(emb * emb, axis=-1)
    # with every |a|^2 at most a quarter of the float64 maximum, neither
    # |a|^2 + |b|^2 nor 2ab can overflow, so no distance is inf or NaN
    if not np.all(norms <= np.finfo(np.float64).max / 4):
        raise InputError("embeddings too large: a squared norm above a "
                         "quarter of the float64 maximum overflows the "
                         "squared distances")
    if n > 1 and not np.any(emb != emb[0]):
        # tested on the rows: the distances of equal rows can keep
        # rounding residues of the |a|^2 + |b|^2 - 2ab expansion, which
        # then order the neighbor lists in place of the index tie-break
        warnings.warn(
            "all embeddings coincide; neighbor sets carry no geometry",
            DegenerateGeometryWarning,
        )
    return jaccard_matrix(k_reciprocal_sets(_knn_lists(emb, norms, k)))


def _knn_lists(emb, norms, k):
    """`knn_sets` of every row of `emb`, whose squared norms are `norms`,
    from row blocks of about BLOCK_ENTRIES distances in one buffer.  The
    buffer and the per-block lists are freed on return, before the
    reciprocal and Jaccard steps allocate."""
    n = emb.shape[0]
    step = max(1, BLOCK_ENTRIES // max(n, 1))
    buf = np.empty((min(step, n), n))
    blocks = []
    for start in range(0, n, step):
        rows = emb[start:start + step]
        dist = _sq_expansion(rows, emb, buf[:len(rows)], norms)
        local = np.arange(dist.shape[0])
        dist[local, start + local] = 0.0
        blocks.append(knn_sets(dist, k, start))
    return np.concatenate(blocks) if blocks else np.empty((0, 0), np.intp)
