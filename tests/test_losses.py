from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uflst import losses
from uflst.errors import ContractViolationError, InputError

EPS = np.finfo(np.float64).eps


def fd_embedding_grad(loss_of, emb, step=1e-6):
    """Plain central-difference gradient of a scalar loss over embeddings."""
    grad = np.zeros_like(emb)
    work = emb.copy()
    for idx in np.ndindex(emb.shape):
        orig = work[idx]
        work[idx] = orig + step
        hi = loss_of(work)
        work[idx] = orig - step
        lo = loss_of(work)
        work[idx] = orig
        grad[idx] = (hi - lo) / (2 * step)
    return grad


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def flat_layout(n_c, n_e, n_s):
    """Class and support flag of each row of a flattened (n_c, n_e) block
    with n_s support columns, for the oracles that read labels."""
    return np.repeat(np.arange(n_c), n_e), np.tile(np.arange(n_e) < n_s, n_c)


def reference_prototype_loss(emb, labels, support_mask):
    """The per-class prototype loss that the segment-sum version replaced."""
    emb = np.asarray(emb, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    support_mask = np.asarray(support_mask, dtype=bool)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ContractViolationError("prototype loss needs at least 2 classes")
    class_list = np.unique(labels[support_mask])
    query_idx = np.flatnonzero(~support_mask)
    if query_idx.size == 0:
        raise ContractViolationError("no query points")
    unsupported = np.setdiff1d(labels[query_idx], class_list)
    if unsupported.size:
        raise ContractViolationError(
            f"query class {unsupported[0]} has no support examples"
        )

    support_of = [support_mask & (labels == c) for c in class_list]
    protos = np.stack([emb[rows].mean(axis=0) for rows in support_of])

    zq = emb[query_idx]
    diff = zq[:, None, :] - protos[None, :, :]
    d = np.sum(diff * diff, axis=2)
    logits = -d
    shift = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shift), axis=1)) + logits.max(axis=1)
    target = np.searchsorted(class_list, labels[query_idx])
    loss = float(np.mean(lse - logits[np.arange(zq.shape[0]), target]))

    p = np.exp(logits - lse[:, None])
    w = -p
    w[np.arange(zq.shape[0]), target] += 1.0
    n_q = zq.shape[0]
    grad = np.zeros_like(emb)
    grad_q = 2.0 / n_q * np.einsum("qk,qkd->qd", w, diff)
    grad[query_idx] += grad_q
    grad_c = -2.0 / n_q * np.einsum("qk,qkd->kd", w, diff)
    for k, rows in enumerate(support_of):
        grad[rows] += grad_c[k] / np.count_nonzero(rows)
    return loss, grad


def random_embeddings(rng, n, dim):
    """Gaussian rows at a random scale, sometimes rounded to integers so
    that ties and signed zeros occur."""
    emb = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-2, 2)
    return np.round(emb) if rng.random() < 0.3 else emb


@st.composite
def block_layouts(draw):
    """An (n_c, n_e, D) episode block and its n_s support columns."""
    n_c, n_e = draw(st.integers(2, 60)), draw(st.integers(2, 6))
    n_s = draw(st.integers(1, n_e - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 16))
    return random_embeddings(rng, n_c * n_e, dim).reshape(n_c, n_e, dim), n_s


def prototype_tolerance(emb):
    """Absolute error bound of the GEMM-form prototype loss and gradient
    against the (Q, K, D) reference: `metric.sq_distances` expands
    |a|^2 + |b|^2 - 2 a.b, which loses bits in proportion to max|emb|^2."""
    return 64 * EPS * emb.shape[1] * max(1.0, float(np.abs(emb).max()) ** 2)


def check_against_reference(blocks, n_s):
    """`prototype_loss(blocks, n_s)` against the oracle on the flattened
    block, within `prototype_tolerance`."""
    n_c, n_e, dim = blocks.shape
    emb = blocks.reshape(-1, dim)
    expected_loss, expected_grad = reference_prototype_loss(
        emb, *flat_layout(n_c, n_e, n_s))
    loss, grad = losses.prototype_loss(blocks, n_s)
    assert grad.shape == blocks.shape
    tol = prototype_tolerance(emb)
    assert loss == pytest.approx(expected_loss, rel=64 * EPS, abs=tol)
    assert np.max(np.abs(grad.reshape(-1, dim) - expected_grad)) <= tol


class TestPrototypeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(block_layouts())
    def test_block_layouts(self, case):
        check_against_reference(*case)

    @pytest.mark.parametrize("offset", [0.0, 10.0, 100.0])
    def test_shared_offset(self, offset):
        # a common offset c makes |a|^2 + |b|^2 - 2 a.b cancel about
        # log2(c^2) bits; the tolerance grows with max|emb|^2 to match
        rng = np.random.default_rng(int(offset))
        for _ in range(20):
            check_against_reference(offset + rng.normal(size=(60, 4, 16)), 1)

    def test_tied_far_prototypes(self):
        # at distances near 1e20 the log-sum-exp drops its ln 2, so both
        # tied prototypes get p = 1 and the rows of w no longer sum to 0:
        # the gradient must still be sum_k w_qk (z_q - c_k)
        blocks = np.array([[[-1.0, 0.0], [0.0, 1e10]],
                           [[1.0, 0.0], [0.0, -1e10]]])
        check_against_reference(blocks, 1)


class TestPrototypeLoss:
    def test_uniform_landmark_ln_k(self):
        # query equidistant from all K prototypes: loss is exactly ln K
        for k in (2, 3, 5, 8):
            # prototypes at unit basis vectors, every query at the origin
            blocks = np.zeros((k, 2, k))
            blocks[:, 0] = np.eye(k)
            loss, _ = losses.prototype_loss(blocks, 1)
            assert loss == pytest.approx(np.log(k), abs=1e-9)

    def test_confident_correct_goes_to_zero(self):
        # each query on top of its prototype, far from the other
        blocks = np.array([[[0.0, 0.0], [0.0, 0.0]],
                           [[100.0, 0.0], [100.0, 0.0]]])
        loss, _ = losses.prototype_loss(blocks, 1)
        assert loss < 1e-8

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            emb = rng.normal(size=(12, 5)).reshape(4, 3, 5)
            loss, grad = losses.prototype_loss(emb, 1)
            fd = fd_embedding_grad(
                lambda e: losses.prototype_loss(e, 1)[0], emb
            )
            assert rel_err(grad, fd) < 1e-6

    def test_gradients_reach_support_points(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(6, 3)).reshape(2, 3, 3)
        _, grad = losses.prototype_loss(emb, 2)
        assert np.any(grad[:, :2] != 0.0)

    def test_single_class_rejected(self):
        with pytest.raises(ContractViolationError):
            losses.prototype_loss(np.zeros((1, 4, 2)), 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 3])
    def test_non_finite_embeddings_rejected(self, value, row):
        # row 0 is class 0's support, row 3 class 1's query
        emb = np.zeros((4, 2))
        emb[row, 1] = value
        with pytest.raises(InputError, match="non-finite"):
            losses.prototype_loss(emb.reshape(2, 2, 2), 1)


class TestBlockPrototypeLoss:
    """`prototype_loss(blocks, n_s)` at fixed shapes and scales: within
    the oracle's tolerance, and with the bits of the round objective's
    general (N, D) entry."""

    @pytest.mark.parametrize("n_c, n_e, n_s", [(60, 4, 1), (5, 4, 2),
                                               (3, 9, 8), (7, 5, 3)])
    @pytest.mark.parametrize("scale", [0.01, 0.2, 1.0, 5.0, 30.0])
    def test_bits_of_general_entry(self, n_c, n_e, n_s, scale):
        rng = np.random.default_rng([n_c, n_e, n_s, int(100 * scale)])
        fn, _ = losses.episode_objective(losses.PROTOTYPE_KIND, n_c, n_e, n_s)
        for trial in range(10):
            emb = rng.normal(size=(n_c * n_e, 16)) * scale
            if trial % 3 == 0:
                emb = np.round(emb)    # ties and signed zeros
            check_against_reference(emb.reshape(n_c, n_e, 16), n_s)
            loss, grad = fn(emb, ())
            block_loss, block_grad = losses.prototype_loss(
                emb.reshape(n_c, n_e, 16), n_s)
            assert (np.float64(block_loss).tobytes()
                    == np.float64(loss).tobytes())
            assert block_grad.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("shape, n_s, match", [
        ((1, 4, 2), 1, "2 classes"),
        ((3, 4, 2), 0, "no support"),
        ((3, 4, 2), 4, "no query"),
        ((12, 2), 1, "episode block"),
    ])
    def test_bad_blocks_rejected(self, shape, n_s, match):
        with pytest.raises(ContractViolationError, match=match):
            losses.prototype_loss(np.zeros(shape), n_s)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 5])
    def test_non_finite_through_round_objective(self, value, row):
        # row 0 is a support row, row 5 a query row of the 3 x 4 block
        fn, _ = losses.episode_objective(losses.PROTOTYPE_KIND, 3, 4, 1)
        emb = np.zeros((12, 2))
        emb[row, 1] = value
        with pytest.raises(InputError, match="non-finite"):
            fn(emb, ())


def lone_triplets(*triplets):
    """Rows 4k to 4k + 3 = (a, p, n, far) for the k-th given triplet, far
    at 1e3 in every coordinate; row 4k anchors (4k, 4k + 1, 4k + 2).

    Rows 4k + 1 to 4k + 3 anchor themselves as positive and a row about
    1e6 away as negative, which adds exactly 0 to the loss and to every
    gradient under both losses: each given triplet's terms reach its
    rows unchanged, divided by the 4K rows of K triplets.  Returns
    (emb, p, n).
    """
    emb, p, n = [], [], []
    for k, (a, pos, neg) in enumerate(triplets):
        emb += [a, pos, neg, np.full(len(a), 1e3)]
        p += [4 * k + 1, 4 * k + 1, 4 * k + 2, 4 * k + 3]
        n += [4 * k + 2, 4 * k + 3, 4 * k + 3, 4 * k]
    return np.array(emb, dtype=np.float64), np.array(p), np.array(n)


def random_triplets(rng, rows):
    """Random (p, n) rows, repeats and self-pairs included."""
    return rng.integers(0, rows, rows), rng.integers(0, rows, rows)


class TestTripletHinge:
    def test_inactive_region_exactly_zero(self):
        emb, p, n = lone_triplets(([0.0, 0.0], [0.1, 0.0], [10.0, 0.0]))
        loss, grad = losses.triplet_loss(emb, p, n)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_active_value_and_gradient(self):
        emb, p, n = lone_triplets(([0.0], [2.0], [1.0]))
        # pre = 4 - 1 + 0.5 = 3.5, over 4 rows
        loss, grad = losses.triplet_loss(emb, p, n)
        assert loss == pytest.approx(3.5 / 4)
        # d loss/da = 2(a-p) - 2(a-n) = -4 + 2 = -2; d/dp = 4; d/dn = -2
        assert grad[:, 0].tolist() == pytest.approx([-0.5, 1.0, -0.5, 0.0])

    def test_kink_uses_inactive_branch(self):
        # pre-activation exactly zero: loss 0, all gradients 0
        # d+ = 2, d- = 2.25 + 0.25 = 2.5, margin 0.5; all exact in float64
        emb, p, n = lone_triplets(([0.0, 0.0], [1.0, 1.0], [1.5, 0.5]))
        assert losses.triplet_pre_activation(emb, p, n)[2][0] == 0.0
        loss, grad = losses.triplet_loss(emb, p, n)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_batch_mean(self):
        # pre 3.5, 1 - 0.25 + 0.5 = 1.25 and inactive, over 12 rows
        emb, p, n = lone_triplets(([0.0], [2.0], [1.0]),
                                  ([0.0], [1.0], [0.5]),
                                  ([0.0], [0.0], [10.0]))
        loss, _ = losses.triplet_loss(emb, p, n)
        assert loss == pytest.approx((3.5 + 1.25) / 12)

    def test_matches_finite_differences_active(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            emb = rng.normal(size=(6, 4)) * 0.3  # small: hinge mostly active
            p, n = random_triplets(rng, 6)
            pre = losses.triplet_pre_activation(emb, p, n)[2]
            assert np.all(np.abs(pre) > 1e-3) and np.any(pre > 0)

            def loss_of(e):
                return losses.triplet_loss(e, p, n)[0]

            _, grad = losses.triplet_loss(emb, p, n)
            assert rel_err(grad, fd_embedding_grad(loss_of, emb)) < 1e-6


class TestSoftMargin:
    def test_zero_pre_activation_landmark_ln_2(self):
        # the hinge's kink geometry puts pre at exactly 0: ln 2 over 4 rows
        emb, p, n = lone_triplets(([0.0, 0.0], [1.0, 1.0], [1.5, 0.5]))
        loss, _ = losses.triplet_loss(emb, p, n, soft=True)
        assert 4 * loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_extreme_pre_activation_no_overflow(self):
        emb, p, n = lone_triplets(([0.0], [100.0], [0.0]))
        loss, grad = losses.triplet_loss(emb, p, n, soft=True)
        assert np.isfinite(loss)
        assert 4 * loss == pytest.approx(100.0**2 + 0.5, rel=1e-12)
        assert np.all(np.isfinite(grad))
        emb, p, n = lone_triplets(([0.0], [0.0], [100.0]))
        loss, grad = losses.triplet_loss(emb, p, n, soft=True)
        assert 0.0 <= loss < 1e-300 or loss == 0.0
        assert np.all(np.isfinite(grad))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            emb = rng.normal(size=(6, 4))
            p, n = random_triplets(rng, 6)

            def loss_of(e):
                return losses.triplet_loss(e, p, n, soft=True)[0]

            _, grad = losses.triplet_loss(emb, p, n, soft=True)
            assert rel_err(grad, fd_embedding_grad(loss_of, emb)) < 1e-6


class TestMining:
    def oracle(self, emb, labels):
        """Double-loop batch-hard oracle with first-index tie-break."""
        n = emb.shape[0]
        triplets = []
        for i in range(n):
            pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
            if not pos:
                continue
            d = lambda j: float(np.sum((emb[i] - emb[j]) ** 2))
            hardest_p = max(pos, key=lambda j: (d(j), -j))
            neg = [j for j in range(n) if labels[j] != labels[i]]
            hardest_n = min(neg, key=lambda j: (d(j), j))
            triplets.append((i, hardest_p, hardest_n))
        return triplets

    def test_matches_oracle(self):
        # every third block is rounded to integers, mostly -1, 0 and 1, so
        # that tied distances and coincident rows occur
        rng = np.random.default_rng(4)
        for trial in range(30):
            n_c, n_e = int(rng.integers(2, 9)), int(rng.integers(2, 7))
            dim = int(rng.integers(1, 4))
            emb = rng.normal(size=(n_c * n_e, dim))
            if trial % 3 == 0:
                emb = np.round(emb * 0.6)
            a, p, n, stats = losses.mine_hard_triplets(
                emb.reshape(n_c, n_e, dim))
            expected = self.oracle(emb, flat_layout(n_c, n_e, 1)[0])
            assert list(zip(a.tolist(), p.tolist(), n.tolist())) == expected
            assert stats.num_anchors == n_c * n_e
            assert stats.num_skipped == 0

    def test_tie_break_first_index(self):
        # coincident candidates: the lower index must be picked
        # and never the anchor itself, even at distance 0 from all others
        blocks = np.array([[[0.0], [1.0], [1.0]], [[2.0], [2.0], [2.0]]])
        a, p, n, _ = losses.mine_hard_triplets(blocks)
        assert a.tolist() == [0, 1, 2, 3, 4, 5]
        assert p.tolist() == [1, 0, 0, 4, 3, 3]
        assert n.tolist() == [3, 3, 3, 1, 1, 1]

    def test_single_class_rejected(self):
        with pytest.raises(ContractViolationError, match="2 classes"):
            losses.mine_hard_triplets(np.zeros((1, 3, 2)))

    @pytest.mark.parametrize("shape, match", [((4, 1, 2), "n_e >= 2"),
                                              ((6, 2), "episode block")])
    def test_bad_blocks_rejected(self, shape, match):
        with pytest.raises(ContractViolationError, match=match):
            losses.mine_hard_triplets(np.zeros(shape))


def reference_random_triplets(labels, rng):
    """One (positive, negative) pair per anchor with a same-class partner:
    two scalar `rng.choice` calls per anchor, anchors in index order."""
    labels = np.asarray(labels, dtype=np.int64)
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


@st.composite
def random_blocks(draw):
    """A random-triplet block shape, a seed and whether the generator
    starts on a buffered upper half-word."""
    return (draw(st.integers(2, 40)), draw(st.integers(2, 6)),
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


def objective_triplets(kind, n_c, n_e, ranks):
    """The (anchor, positive, negative) rows that the `kind` objective of
    an (n_c, n_e) block scores for one episode's ranks: every row is its
    own anchor."""
    fn, _ = losses.episode_objective(kind, n_c, n_e, 1)
    with mock.patch.object(losses, "triplet_loss",
                           wraps=losses.triplet_loss) as spy:
        fn(np.zeros((n_c * n_e, 1)), ranks)
    return (np.arange(n_c * n_e), *spy.call_args.args[1:3])


def assert_same_triplets(n_c, n_e, batch_rng, loop_rng):
    _, bounds = losses.episode_objective(losses.TRIPLET_KIND, n_c, n_e, 1)
    got = objective_triplets(losses.TRIPLET_KIND, n_c, n_e,
                             batch_rng.integers(0, bounds))
    want = reference_random_triplets(flat_layout(n_c, n_e, 1)[0], loop_rng)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state


class TestRandomTriplets:
    @settings(max_examples=200, deadline=None)
    @given(random_blocks())
    # n_e = 2: every positive bound is 1 and takes no output
    @example((7, 2, 3, False))
    @example((2, 2, 4, True))
    def test_matches_choice_loop(self, case):
        n_c, n_e, seed, buffered = case
        batch_rng, loop_rng = (np.random.default_rng(seed) for _ in range(2))
        if buffered:
            for rng in (batch_rng, loop_rng):
                rng.integers(0, 2**32, dtype=np.uint32)
        assert_same_triplets(n_c, n_e, batch_rng, loop_rng)

    def test_redraw_matches_choice_loop(self):
        # the first positive spans 3 values, so a next output of 0 is
        # redrawn
        def redraw_rng():
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
            return rng

        assert_same_triplets(2, 4, redraw_rng(), redraw_rng())

    def test_validity(self):
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(4), 4)
        for kind in (losses.TRIPLET_KIND, losses.SOFT_MARGIN_KIND):
            _, bounds = losses.episode_objective(kind, 4, 4, 1)
            assert bounds.dtype == np.int64
            assert bounds.tolist() == [[3, 12]] * 16
            a, p, n = objective_triplets(kind, 4, 4, rng.integers(0, bounds))
            assert np.array_equal(a, np.arange(16))
            assert np.all(labels[a] == labels[p])
            assert np.all(labels[a] != labels[n])
            assert np.all(a != p)

    def test_extreme_ranks(self):
        # rank 0 and the last rank reach the first and last candidate
        _, bounds = losses.episode_objective(losses.TRIPLET_KIND, 3, 3, 1)
        low = objective_triplets(losses.TRIPLET_KIND, 3, 3,
                                 np.zeros_like(bounds))
        high = objective_triplets(losses.TRIPLET_KIND, 3, 3, bounds - 1)
        assert low[1].tolist() == [1, 0, 0, 4, 3, 3, 7, 6, 6]
        assert low[2].tolist() == [3, 3, 3, 0, 0, 0, 0, 0, 0]
        assert high[1].tolist() == [2, 2, 1, 5, 5, 4, 8, 8, 7]
        assert high[2].tolist() == [8, 8, 8, 8, 8, 8, 5, 5, 5]


def reference_triplet_loss(emb, p, n, soft):
    """Each triplet (i, p[i], n[i]) scored on its own, from scalars, and
    each role's gradient scattered by its own `np.add.at` into zeros.
    Returns (loss, grad, pre-activations)."""
    t = len(emb)
    pre, terms, roles = [], [], ([], [], [])
    for i in range(t):
        dp, dn = emb[i] - emb[p[i]], emb[i] - emb[n[i]]
        x = np.sum(dp * dp) - np.sum(dn * dn) + losses.TRIPLET_MARGIN
        if soft:
            term, slope = np.logaddexp(0.0, x), 0.5 * (1.0 + np.tanh(0.5 * x))
        else:
            term, slope = max(x, 0.0), float(x > 0)
        slope /= t
        pre.append(x)
        terms.append(term)
        for out, g in zip(roles, (2 * slope * (dp - dn), -2 * slope * dp,
                                  2 * slope * dn)):
            out.append(g)
    grad = np.zeros_like(emb)
    for rows, g in zip((np.arange(t), p, n), roles):
        np.add.at(grad, rows, np.array(g))
    return float(np.mean(terms)), grad, np.array(pre)


class TestIndexedTripletLoss:
    @pytest.mark.parametrize("soft", [False, True],
                             ids=["triplet_hinge_loss",
                                  "triplet_soft_margin_loss"])
    @pytest.mark.parametrize("kind", [losses.HARD_TRIPLET_KIND,
                                      losses.TRIPLET_KIND])
    def test_bits_of_scatter_into_zeros(self, soft, kind):
        # class centres spread about the noise's scale mix active and
        # inactive hinges; an inactive one gives signed zeros, and -0.0
        # must become +0.0 wherever no positive or negative gradient
        # lands on the row.  The losses sum in different orders, so they
        # agree to rounding only.
        rng = np.random.default_rng(12)
        n_c, n_e = 6, 4
        labels = flat_layout(n_c, n_e, 1)[0]
        _, bounds = losses.episode_objective(losses.TRIPLET_KIND, n_c, n_e, 1)
        pre = []
        for _ in range(30):
            emb = (rng.normal(size=(n_c, 3))[labels] * rng.choice([1.0, 3.0])
                   + rng.normal(size=(n_c * n_e, 3)) * 0.5)
            if kind == losses.HARD_TRIPLET_KIND:
                _, p, n, _ = losses.mine_hard_triplets(
                    emb.reshape(n_c, n_e, 3))
            else:
                _, p, n = objective_triplets(kind, n_c, n_e,
                                             rng.integers(0, bounds))
            loss, grad = losses.triplet_loss(emb, p, n, soft)
            want_loss, want_grad, want_pre = reference_triplet_loss(
                emb, p, n, soft)
            assert loss == pytest.approx(want_loss, rel=1e-12)
            assert grad.tobytes() == want_grad.tobytes()
            pre.append(want_pre)
        pre = np.concatenate(pre)
        assert np.any(pre > 0) and np.any(pre < 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("soft", [False, True])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_rejected(self, soft, value):
        # row 3 is no triplet's positive or negative, but anchors its own
        emb = np.zeros((4, 2))
        emb[3, 0] = value
        with pytest.raises(InputError, match="triplet embeddings"):
            losses.triplet_loss(emb, np.array([1, 0, 0, 0]),
                                np.array([2, 2, 1, 1]), soft)


class TestEpisodeLoss:
    def test_dispatch_shapes(self):
        rng = np.random.default_rng(7)
        emb = rng.normal(size=(12, 5))
        for kind in losses.LOSS_KINDS:
            fn, bounds = losses.episode_objective(kind, 3, 4, 1)
            loss, grad = fn(emb, rng.integers(0, bounds))
            assert np.isfinite(loss)
            assert grad.shape == emb.shape

    def test_prototype_reads_support_from_layout(self):
        rng = np.random.default_rng(9)
        emb = rng.normal(size=(12, 5))
        fn, bounds = losses.episode_objective(losses.PROTOTYPE_KIND, 3, 4, 2)
        assert bounds == ()
        loss, grad = fn(emb, np.empty(0, dtype=np.int64))
        expected_loss, expected_grad = losses.prototype_loss(
            emb.reshape(3, 4, 5), 2)
        assert loss == expected_loss
        assert np.array_equal(grad, expected_grad.reshape(12, 5))

    def test_hard_triplet_deterministic_without_rng(self):
        rng = np.random.default_rng(8)
        emb = rng.normal(size=(12, 5))
        fn, bounds = losses.episode_objective(losses.HARD_TRIPLET_KIND, 3, 4,
                                              1)
        assert bounds == ()
        l1, g1 = fn(emb, ())
        l2, g2 = fn(emb, ())
        assert l1 == l2 and np.array_equal(g1, g2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 5])
    @pytest.mark.parametrize("kind", [losses.HARD_TRIPLET_KIND,
                                      losses.TRIPLET_KIND,
                                      losses.SOFT_MARGIN_KIND])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_through_round_objective(self, kind, row, value):
        # a non-finite row of the 3 x 4 block, whether or not a triplet
        # picks it, must stop the step before any arithmetic on it warns
        fn, bounds = losses.episode_objective(kind, 3, 4, 1)
        emb = np.zeros((12, 2))
        emb[row, 1] = value
        with pytest.raises(InputError, match="non-finite"):
            fn(emb, np.zeros_like(bounds))

    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_single_class_raises(self, kind):
        with pytest.raises(ContractViolationError, match="2 classes"):
            losses.episode_objective(kind, 1, 4, 1)

    @pytest.mark.parametrize("kind", [losses.TRIPLET_KIND,
                                      losses.SOFT_MARGIN_KIND,
                                      losses.HARD_TRIPLET_KIND])
    def test_triplets_need_two_members_per_class(self, kind):
        # every row anchors a triplet, so each needs a same-class partner
        with pytest.raises(ContractViolationError, match="n_e >= 2"):
            losses.episode_objective(kind, 4, 1, 1)

    def test_calls_module_losses_each_episode(self, monkeypatch):
        # perfbench counts prototype losses and mined anchors by replacing
        # these module attributes before training, and `objective_triplets`
        # spies on `triplet_loss`: an objective that reached the functions
        # through a name bound at import would leave those counts at 0
        # without any error
        calls = []
        for name in ("mine_hard_triplets", "prototype_loss", "triplet_loss"):
            def counted(*args, real=getattr(losses, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(losses, name, counted)
        rng = np.random.default_rng(10)
        for kind, names in (
                (losses.HARD_TRIPLET_KIND, ["mine_hard_triplets",
                                            "triplet_loss"]),
                (losses.PROTOTYPE_KIND, ["prototype_loss"]),
                (losses.TRIPLET_KIND, ["triplet_loss"])):
            calls.clear()
            fn, bounds = losses.episode_objective(kind, 3, 4, 1)
            for _ in range(3):
                fn(rng.normal(size=(12, 5)), rng.integers(0, bounds))
            assert calls == names * 3
