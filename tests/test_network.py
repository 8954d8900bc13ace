import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uflst import episodes, losses, network
from uflst.errors import (
    CheckpointFormatError,
    ContractViolationError,
    InfeasibleCheckError,
    InputError,
    InvalidArchitectureError,
)


def params_equal(a, b):
    return (a.dims == b.dims and a.step == b.step
            and np.array_equal(a.flat, b.flat)
            and np.array_equal(a.m, b.m) and np.array_equal(a.v, b.v))


def reference_adam_step(weights, biases, m, v, t, grads, config, epoch):
    """The per-layer Adam update that the flat-buffer `adam_step` replaced,
    over lists of per-layer arrays (m and v hold (W, b) pairs); `t` is the
    step count after this update.  Adam's constants and the x0.1 drop after
    epoch 25 are written out, not read from `network`."""
    lr = config.learning_rate * (0.1 if epoch > 25 else 1.0)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for l, (dW, db) in enumerate(grads):
        mW, mb = m[l]
        vW, vb = v[l]
        mW *= b1
        mW += (1 - b1) * dW
        mb *= b1
        mb += (1 - b1) * db
        vW *= b2
        vW += (1 - b2) * dW * dW
        vb *= b2
        vb += (1 - b2) * db * db
        corr1 = 1 - b1 ** t
        corr2 = 1 - b2 ** t
        weights[l] -= lr * (mW / corr1) / (np.sqrt(vW / corr2) + eps)
        biases[l] -= lr * (mb / corr1) / (np.sqrt(vb / corr2) + eps)


def reference_write_params(f, weights, biases, m, v, step):
    """The per-layer checkpoint writer that the flat `write_params` replaced."""
    f.write(network.CHECKPOINT_MAGIC)
    f.write(struct.pack("<I", network.CHECKPOINT_VERSION))
    f.write(struct.pack("<I", len(weights)))
    for W in weights:
        f.write(struct.pack("<II", W.shape[1], W.shape[0]))
    for W, b in zip(weights, biases):
        f.write(W.astype("<f8").tobytes())
        f.write(b.astype("<f8").tobytes())
    for (mW, mb), (vW, vb) in zip(m, v):
        f.write(mW.astype("<f8").tobytes())
        f.write(mb.astype("<f8").tobytes())
        f.write(vW.astype("<f8").tobytes())
        f.write(vb.astype("<f8").tobytes())
    f.write(struct.pack("<Q", step))


def per_layer(p):
    """Independent per-layer copies (weights, biases, m, v) of `p`."""
    mW, mb = p.views(p.m)
    vW, vb = p.views(p.v)
    return ([W.copy() for W in p.weights], [b.copy() for b in p.biases],
            [(w.copy(), b.copy()) for w, b in zip(mW, mb)],
            [(w.copy(), b.copy()) for w, b in zip(vW, vb)])


def flat_of(weights, biases):
    return np.concatenate([a.ravel() for W, b in zip(weights, biases)
                           for a in (W, b)])


class TestInit:
    def test_deterministic_for_seed(self):
        a = network.init_params([4, 3], seed=7)
        b = network.init_params([4, 3], seed=7)
        assert params_equal(a, b)

    def test_biases_zero(self):
        p = network.init_params([4, 3], seed=7)
        assert p.biases[0].shape == (3,)
        assert np.all(p.biases[0] == 0.0)

    def test_zero_dim_rejected(self):
        with pytest.raises(InvalidArchitectureError):
            network.init_params([4, 0, 3], seed=1)
        with pytest.raises(InvalidArchitectureError):
            network.init_params([4], seed=1)

    def test_fan_in_scaling(self):
        # empirical std over 1000 re-seeds should track 1/sqrt(fan_in)
        for fan_in, fan_out in ((8, 16), (16, 8)):
            samples = []
            for seed in range(1000):
                p = network.init_params([fan_in, fan_out], seed=seed)
                samples.append(p.weights[0].ravel())
            std = np.std(np.concatenate(samples))
            assert std == pytest.approx(1.0 / np.sqrt(fan_in), rel=0.02)


class TestForward:
    def test_identity_layer(self):
        p = network.init_params([3, 3], seed=0)
        p.weights[0][...] = np.eye(3)
        p.biases[0][...] = 0.0
        x = np.random.default_rng(0).normal(size=(5, 3))
        out, _ = network.forward(p, x)
        assert np.allclose(out, x)

    def test_zero_input_zero_output(self):
        p = network.init_params([4, 6, 2], seed=3)
        out, _ = network.forward(p, np.zeros((3, 4)))
        assert np.all(out == 0.0)

    def test_matches_manual_chain(self):
        p = network.init_params([4, 6, 2], seed=11)
        x = np.random.default_rng(5).normal(size=(3, 4))
        out, _ = network.forward(p, x)
        # independent re-computation
        h = np.maximum(x @ p.weights[0].T + p.biases[0], 0.0)
        expected = h @ p.weights[1].T + p.biases[1]
        assert np.allclose(out, expected, atol=1e-12)

    def test_nonfinite_input_rejected(self):
        p = network.init_params([2, 2], seed=0)
        bad = np.array([[1.0, np.nan]])
        with pytest.raises(InputError):
            network.forward(p, bad)

    def test_wrong_width_rejected(self):
        p = network.init_params([4, 2], seed=0)
        with pytest.raises(InputError):
            network.forward(p, np.zeros((3, 5)))


class TestEmbed:
    """`embed` is the full-batch `forward`'s output, one block at a time."""

    @pytest.mark.parametrize("dims", [[32, 64, 64, 16], [32, 16, 8]])
    @pytest.mark.parametrize("n", [0, 1, network.EMBED_ROWS - 1,
                                   network.EMBED_ROWS, network.EMBED_ROWS + 1,
                                   2 * network.EMBED_ROWS + 7, 4000])
    def test_bits_of_full_forward(self, dims, n):
        p = network.init_params(dims, seed=4)
        x = np.random.default_rng(n).normal(size=(n, dims[0])) * 5
        assert (network.embed(p, x).tobytes()
                == network.forward(p, x)[0].tobytes())

    def test_holds_one_block(self):
        # 20k rows: every hidden activation of a full-batch forward takes
        # 20000 x (64 + 64 + 16 + 64 + 64) floats, 43.5 MB, and the
        # output alone 2.6 MB
        p = network.init_params([32, 64, 64, 16], seed=0)
        x = np.random.default_rng(0).normal(size=(20000, 32))
        peaks = []
        for fn in (lambda: network.forward(p, x), lambda: network.embed(p, x)):
            tracemalloc.start()
            try:
                fn()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] > 40e6
        assert peaks[1] < 2.6e6 + 4 * 8 * 272 * network.EMBED_ROWS

    @pytest.mark.parametrize("x", [np.zeros((0, 5)), np.zeros((700, 5)),
                                   np.full((700, 4), np.nan)],
                             ids=["empty_wrong_width", "wrong_width",
                                  "nonfinite"])
    def test_checks_as_forward(self, x):
        p = network.init_params([4, 3], seed=0)
        with pytest.raises(InputError):
            network.forward(p, x)
        with pytest.raises(InputError):
            network.embed(p, x)


class TestBackward:
    def test_zero_output_grad(self):
        p = network.init_params([4, 6, 2], seed=1)
        x = np.random.default_rng(1).normal(size=(5, 4))
        _, cache = network.forward(p, x)
        grad = network.backward(p, cache, np.zeros((5, 2)))
        assert grad.shape == p.flat.shape and np.all(grad == 0.0)

    def test_linear_layer_sum_loss(self):
        # loss = sum of outputs -> dW[j, i] = sum_b x[b, i], db[j] = B
        p = network.init_params([4, 3], seed=2)
        x = np.random.default_rng(2).normal(size=(6, 4))
        _, cache = network.forward(p, x)
        grad = network.backward(p, cache, np.ones((6, 3)))
        (dW,), (db,) = p.views(grad)
        assert np.allclose(dW, np.tile(x.sum(axis=0), (3, 1)))
        assert np.allclose(db, 6.0)

    def test_shape_mismatch_rejected(self):
        p = network.init_params([4, 3], seed=2)
        _, cache = network.forward(p, np.zeros((5, 4)))
        with pytest.raises(ContractViolationError):
            network.backward(p, cache, np.zeros((5, 4)))

    def test_matches_finite_differences_prototype_head(self):
        # independent plain central-difference oracle, step 1e-4, compared
        # at the whole-gradient-vector level
        p = network.init_params([4, 8, 8, 3], seed=9)
        x = np.random.default_rng(9).normal(size=(6, 4))

        def loss_of(params):
            emb, _ = network.forward(params, x)
            return losses.prototype_loss(emb.reshape(3, 2, 3), 1)[0]

        emb, cache = network.forward(p, x)
        _, demb = losses.prototype_loss(emb.reshape(3, 2, 3), 1)
        analytic = network.backward(p, cache, demb.reshape(6, 3))

        step = 1e-4
        numeric = []
        work = p.copy()
        flat = work.flat
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_of(work)
            flat[i] = orig - step
            lo = loss_of(work)
            flat[i] = orig
            numeric.append((hi - lo) / (2 * step))
        numeric = np.array(numeric)
        rel = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(analytic), np.linalg.norm(numeric)
        )
        assert rel < 1e-4


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = network.init_params([3, 2], seed=4)
        before = p.copy()
        network.adam_step(p, np.zeros_like(p.flat), network.OptimizerConfig(),
                          epoch=1)
        assert np.array_equal(p.flat, before.flat)
        assert p.step == 1

    def test_gradient_shape_mismatch_rejected(self):
        p = network.init_params([3, 2], seed=4)
        with pytest.raises(ContractViolationError):
            network.adam_step(p, np.zeros(p.flat.size - 1),
                              network.OptimizerConfig(), epoch=1)
        assert p.step == 0

    def test_constant_gradient_sign_limit(self):
        p = network.init_params([2, 1], seed=5)
        cfg = network.OptimizerConfig(learning_rate=0.01)
        g = np.array([[0.3, -0.7]])
        grad = np.concatenate([g.ravel(), np.zeros(1)])
        before = p.weights[0].copy()
        for _ in range(200):
            network.adam_step(p, grad, cfg, epoch=1)
        delta = p.weights[0] - before
        per_step = delta / 200
        assert np.allclose(per_step, -np.sign(g) * cfg.learning_rate, rtol=0.05)

    def test_matches_textbook_adam_on_quadratic(self):
        # independent scalar Adam oracle on loss = 0.5 * ||w||^2
        p = network.init_params([3, 1], seed=6)
        cfg = network.OptimizerConfig(learning_rate=0.05)
        w_oracle = p.weights[0].copy().ravel()
        m = np.zeros_like(w_oracle)
        v = np.zeros_like(w_oracle)
        loss0 = 0.5 * np.sum(w_oracle**2)
        for t in range(1, 11):
            g = p.weights[0].ravel().copy()
            network.adam_step(p, np.append(g, 0.0), cfg, epoch=1)
            go = w_oracle.copy()
            m = 0.9 * m + (1 - 0.9) * go
            v = 0.999 * v + (1 - 0.999) * go * go
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            w_oracle -= cfg.learning_rate * mhat / (np.sqrt(vhat) + 1e-8)
            assert np.allclose(p.weights[0].ravel(), w_oracle, atol=1e-10)
        assert 0.5 * np.sum(w_oracle**2) < loss0

    def test_lr_schedule_exact(self):
        cfg = network.OptimizerConfig(learning_rate=0.005)
        for epoch in range(1, 26):
            assert cfg.effective_lr(epoch) == 0.005
        for epoch in range(26, 60):
            assert cfg.effective_lr(epoch) == 0.005 * 0.1

    def test_no_nonfinite_under_training(self):
        rng = np.random.default_rng(8)
        p = network.init_params([5, 16, 4], seed=8)
        cfg = network.OptimizerConfig(learning_rate=0.01)
        for _ in range(50):
            x = rng.normal(size=(6, 5))
            emb, cache = network.forward(p, x)
            grad = network.backward(p, cache, 2 * emb)
            network.adam_step(p, grad, cfg, epoch=1)
        assert np.all(np.isfinite(p.flat))

    def test_training_determinism(self):
        def run():
            p = network.init_params([4, 8, 3], seed=12)
            cfg = network.OptimizerConfig()
            rng = np.random.default_rng(12)
            for _ in range(20):
                x = rng.normal(size=(5, 4))
                emb, cache = network.forward(p, x)
                grad = network.backward(p, cache, emb)
                network.adam_step(p, grad, cfg, epoch=1)
            return p

        assert params_equal(run(), run())



class TestWorkspace:
    """One reused workspace changes no bit of a training run."""

    @pytest.mark.parametrize("dims", [[32, 64, 64, 16], [32, 64, 16]])
    def test_200_steps_match_fresh_calls(self, dims):
        # the fixture's encoder and batch (60 classes x 4 rows), and one
        # hidden layer; epochs run past the learning-rate drop
        rng = np.random.default_rng(len(dims))
        features = rng.normal(size=(1000, 32))
        objective, _ = losses.episode_objective(losses.PROTOTYPE_KIND,
                                                60, 4, 1)
        cfg = network.OptimizerConfig()
        fresh = network.init_params(dims, seed=3)
        reused = fresh.copy()
        ws = network.Workspace(dims, 240)
        for s in range(200):
            batch = features[rng.integers(0, 1000, size=240)]
            epoch = s // 5 + 1
            for params, workspace in ((fresh, None), (reused, ws)):
                emb, cache = network.forward(params, batch, workspace)
                _, demb = objective(emb, ())
                grad = network.backward(params, cache, demb, workspace)
                network.adam_step(params, grad, cfg, epoch, workspace)
        assert reused.step == fresh.step == 200
        for name in ("flat", "m", "v"):
            assert (getattr(reused, name).tobytes()
                    == getattr(fresh, name).tobytes())

    def test_fresh_calls_keep_what_they_returned(self):
        p = network.init_params([4, 6, 6, 3], seed=5)
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 7, 4))
        emb, cache = network.forward(p, x)
        grad = network.backward(p, cache, emb)
        kept = [a.copy() for a in (emb, grad, *cache["inputs"],
                                   *cache["pre_acts"])]
        emb2, cache2 = network.forward(p, y)
        network.adam_step(p, network.backward(p, cache2, emb2),
                          network.OptimizerConfig(), epoch=1)
        for before, now in zip(kept, (emb, grad, *cache["inputs"],
                                      *cache["pre_acts"])):
            assert now.tobytes() == before.tobytes()

    def test_workspace_arrays_last_until_the_next_forward(self):
        p = network.init_params([4, 6, 3], seed=6)
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(2, 7, 4))
        ws = network.Workspace(p.dims, 7)
        emb, cache = network.forward(p, x, ws)
        arrays = (emb, *cache["inputs"], *cache["pre_acts"])
        kept = [a.copy() for a in arrays]
        network.adam_step(p, network.backward(p, cache, emb.copy(), ws),
                          network.OptimizerConfig(), 1, ws)
        # backward and Adam leave the forward's arrays alone ...
        for before, now in zip(kept, arrays):
            assert now.tobytes() == before.tobytes()
        # ... and the next forward overwrites them
        emb_y, _ = network.forward(p, y, ws)
        assert emb is emb_y
        assert emb.tobytes() == network.forward(p, y)[0].tobytes()

    @pytest.mark.parametrize("dims, rows", [([4, 6, 3], 8), ([4, 5, 3], 7)])
    def test_mismatched_workspace_rejected(self, dims, rows):
        p = network.init_params([4, 6, 3], seed=7)
        ws = network.Workspace(dims, rows)
        with pytest.raises(ContractViolationError, match="workspace"):
            network.forward(p, np.zeros((7, 4)), ws)



layer_widths = st.lists(st.integers(1, 6), min_size=4, max_size=4)


class TestMatchesPerLayerReference:
    """The flat buffers keep the per-layer arithmetic and checkpoint bytes
    bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(layer_widths, st.integers(0, 2**32 - 1))
    def test_adam_200_steps(self, dims, seed):
        p = network.init_params(dims, seed=seed)
        weights, biases, m, v = per_layer(p)
        cfg = network.OptimizerConfig(learning_rate=0.01)
        rng = np.random.default_rng(seed)
        for s in range(200):
            grad = rng.normal(size=p.flat.size) * 10.0 ** rng.integers(-6, 3)
            dW, db = p.views(grad)
            # epochs 1..40: the steps after epoch 25 take the dropped rate
            network.adam_step(p, grad, cfg, epoch=s // 5 + 1)
            reference_adam_step(weights, biases, m, v, s + 1,
                                list(zip(dW, db)), cfg, s // 5 + 1)
        ref_m = flat_of(*zip(*m))
        ref_v = flat_of(*zip(*v))
        assert p.step == 200
        assert p.flat.tobytes() == flat_of(weights, biases).tobytes()
        assert p.m.tobytes() == ref_m.tobytes()
        assert p.v.tobytes() == ref_v.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(layer_widths, st.integers(0, 2**32 - 1), st.integers(0, 5))
    def test_checkpoint_bytes(self, dims, seed, steps):
        p = network.init_params(dims, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            network.adam_step(p, rng.normal(size=p.flat.size),
                              network.OptimizerConfig(), epoch=1)
        ours, ref = io.BytesIO(), io.BytesIO()
        network.write_params(ours, p)
        reference_write_params(ref, *per_layer(p), p.step)
        assert ours.getvalue() == ref.getvalue()
        loaded = network.read_params(io.BytesIO(ref.getvalue()))
        assert params_equal(loaded, p)


class TestGradientCheck:
    def test_linear_squared_norm(self):
        p = network.init_params([4, 3], seed=20)
        x = np.random.default_rng(20).normal(size=(5, 4))

        def loss_fn(emb):
            return float(np.sum(emb * emb)), 2 * emb

        assert network.gradient_check(loss_fn, p, x) < 1e-6

    def test_prototype_3way_2shot(self):
        # seed chosen so no relu pre-activation sits within the probe step
        # of its kink; a central difference across a kink is meaningless
        p = network.init_params([4, 8, 8, 3], seed=27)
        x = np.random.default_rng(27).normal(size=(12, 4))
        fn, _ = losses.episode_objective(losses.PROTOTYPE_KIND, 3, 4, 2)

        def loss_fn(emb):
            return fn(emb, ())

        assert network.gradient_check(loss_fn, p, x) < 1e-4

    def test_soft_margin_triplet(self):
        # seed chosen away from relu kinks, as above
        p = network.init_params([4, 8, 8, 3], seed=30)
        x = np.random.default_rng(30).normal(size=(8, 4))
        emb0, _ = network.forward(p, x)
        _, pos, neg, _ = losses.mine_hard_triplets(emb0.reshape(2, 4, 3))

        def loss_fn(emb):
            return losses.triplet_loss(emb, pos, neg, soft=True)

        assert network.gradient_check(loss_fn, p, x) < 1e-4

    def test_infeasible_batch(self):
        p = network.init_params([4, 3], seed=23)
        x = np.random.default_rng(23).normal(size=(4, 4))

        def loss_fn(emb):
            # a single class: no valid triplet
            a, pos, neg, _ = losses.mine_hard_triplets(emb.reshape(1, 4, 3))
            raise AssertionError("unreachable")

        with pytest.raises(InfeasibleCheckError):
            network.gradient_check(loss_fn, p, x)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        p = network.init_params([4, 8, 3], seed=30)
        # give the optimizer state some content
        x = np.random.default_rng(30).normal(size=(5, 4))
        emb, cache = network.forward(p, x)
        grad = network.backward(p, cache, emb)
        network.adam_step(p, grad, network.OptimizerConfig(), epoch=1)
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as f:
            network.write_params(f, p)
        with open(path, "rb") as f:
            loaded = network.read_params(f)
        assert params_equal(p, loaded)
        # a second save must produce identical bytes
        path2 = tmp_path / "model2.ckpt"
        with open(path2, "wb") as f:
            network.write_params(f, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_unchained_layer_dims_rejected(self):
        # a complete file whose second layer takes 5 inputs from 3 outputs
        weights = [np.zeros((3, 4)), np.zeros((2, 5))]
        biases = [np.zeros(3), np.zeros(2)]
        adam = list(zip(weights, biases))
        f = io.BytesIO()
        reference_write_params(f, weights, biases, adam, adam, 0)
        with pytest.raises(CheckpointFormatError):
            network.read_params(io.BytesIO(f.getvalue()))

    def test_bad_magic(self, tmp_path):
        p = network.init_params([4, 3], seed=31)
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as f:
            network.write_params(f, p)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with open(path, "rb") as f, pytest.raises(CheckpointFormatError):
            network.read_params(f)

    def test_truncated(self, tmp_path):
        p = network.init_params([4, 3], seed=32)
        path = tmp_path / "model.ckpt"
        with open(path, "wb") as f:
            network.write_params(f, p)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with open(path, "rb") as f, pytest.raises(CheckpointFormatError):
            network.read_params(f)
