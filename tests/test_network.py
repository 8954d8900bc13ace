import numpy as np
import pytest

from uflst import losses, network
from uflst.errors import (
    CheckpointFormatError,
    ContractViolationError,
    InfeasibleCheckError,
    InputError,
    InvalidArchitectureError,
)


def params_equal(a, b):
    if len(a.weights) != len(b.weights) or a.adam.step != b.adam.step:
        return False
    for wa, wb in zip(a.weights, b.weights):
        if not np.array_equal(wa, wb):
            return False
    for ba, bb in zip(a.biases, b.biases):
        if not np.array_equal(ba, bb):
            return False
    for (mwa, mba), (mwb, mbb) in zip(a.adam.m, b.adam.m):
        if not (np.array_equal(mwa, mwb) and np.array_equal(mba, mbb)):
            return False
    for (vwa, vba), (vwb, vbb) in zip(a.adam.v, b.adam.v):
        if not (np.array_equal(vwa, vwb) and np.array_equal(vba, vbb)):
            return False
    return True


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
        p.weights[0] = np.eye(3)
        p.biases[0] = np.zeros(3)
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


class TestBackward:
    def test_zero_output_grad(self):
        p = network.init_params([4, 6, 2], seed=1)
        x = np.random.default_rng(1).normal(size=(5, 4))
        _, cache = network.forward(p, x)
        grads, _ = network.backward(p, cache, np.zeros((5, 2)))
        for dW, db in grads:
            assert np.all(dW == 0.0) and np.all(db == 0.0)

    def test_linear_layer_sum_loss(self):
        # loss = sum of outputs -> dW[j, i] = sum_b x[b, i], db[j] = B
        p = network.init_params([4, 3], seed=2)
        x = np.random.default_rng(2).normal(size=(6, 4))
        _, cache = network.forward(p, x)
        grads, _ = network.backward(p, cache, np.ones((6, 3)))
        dW, db = grads[0]
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
        labels = np.repeat(np.arange(3), 2)
        support = np.array([True, False] * 3)

        def loss_of(params):
            emb, _ = network.forward(params, x)
            return losses.prototype_loss(emb, labels, support)[0]

        emb, cache = network.forward(p, x)
        _, demb = losses.prototype_loss(emb, labels, support)
        grads, _ = network.backward(p, cache, demb)
        analytic = np.concatenate([g.ravel() for dW, db in grads
                                   for g in (dW, db)])

        step = 1e-4
        numeric = []
        work = p.copy()
        for l in range(len(p.weights)):
            for arr in (work.weights[l], work.biases[l]):
                flat = arr.ravel()
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
        grads = [(np.zeros((2, 3)), np.zeros(2))]
        network.adam_step(p, grads, network.OptimizerConfig(), epoch=1)
        assert params_equal(
            network.ModelParams(p.weights, p.biases, before.adam),
            before,
        ) or np.allclose(p.weights[0], before.weights[0])
        assert np.array_equal(p.weights[0], before.weights[0])
        assert p.adam.step == 1

    def test_constant_gradient_sign_limit(self):
        p = network.init_params([2, 1], seed=5)
        cfg = network.OptimizerConfig(learning_rate=0.01)
        g = np.array([[0.3, -0.7]])
        before = p.weights[0].copy()
        for _ in range(200):
            network.adam_step(p, [(g, np.zeros(1))], cfg, epoch=1)
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
            network.adam_step(p, [(g.reshape(1, 3), np.zeros(1))], cfg, epoch=1)
            go = w_oracle.copy()
            m = cfg.beta1 * m + (1 - cfg.beta1) * go
            v = cfg.beta2 * v + (1 - cfg.beta2) * go * go
            mhat = m / (1 - cfg.beta1**t)
            vhat = v / (1 - cfg.beta2**t)
            w_oracle -= cfg.learning_rate * mhat / (np.sqrt(vhat) + cfg.epsilon_adam)
            assert np.allclose(p.weights[0].ravel(), w_oracle, atol=1e-10)
        assert 0.5 * np.sum(w_oracle**2) < loss0

    def test_lr_schedule_exact(self):
        cfg = network.OptimizerConfig(learning_rate=0.005, decay_factor=0.1,
                                      decay_after_epoch=25)
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
            grads, _ = network.backward(p, cache, 2 * emb)
            network.adam_step(p, grads, cfg, epoch=1)
        for W, b in zip(p.weights, p.biases):
            assert np.all(np.isfinite(W)) and np.all(np.isfinite(b))

    def test_training_determinism(self):
        def run():
            p = network.init_params([4, 8, 3], seed=12)
            cfg = network.OptimizerConfig()
            rng = np.random.default_rng(12)
            for _ in range(20):
                x = rng.normal(size=(5, 4))
                emb, cache = network.forward(p, x)
                grads, _ = network.backward(p, cache, emb)
                network.adam_step(p, grads, cfg, epoch=1)
            return p

        assert params_equal(run(), run())


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
        labels = np.repeat(np.arange(3), 4)
        support = np.tile([True, True, False, False], 3)

        def loss_fn(emb):
            return losses.prototype_loss(emb, labels, support)

        assert network.gradient_check(loss_fn, p, x) < 1e-4

    def test_soft_margin_triplet(self):
        # seed chosen away from relu kinks, as above
        p = network.init_params([4, 8, 8, 3], seed=30)
        x = np.random.default_rng(30).normal(size=(8, 4))
        labels = np.repeat(np.arange(2), 4)
        emb0, _ = network.forward(p, x)
        a, pos, neg, _ = losses.mine_hard_triplets(emb0, labels)

        def loss_fn(emb):
            loss, (ga, gp, gn) = losses.triplet_soft_margin_loss(
                emb[a], emb[pos], emb[neg], 0.5
            )
            grad = np.zeros_like(emb)
            np.add.at(grad, a, ga)
            np.add.at(grad, pos, gp)
            np.add.at(grad, neg, gn)
            return loss, grad

        assert network.gradient_check(loss_fn, p, x) < 1e-4

    def test_infeasible_batch(self):
        p = network.init_params([4, 3], seed=23)
        x = np.random.default_rng(23).normal(size=(4, 4))
        labels = np.zeros(4, dtype=int)  # single class: no valid triplet

        def loss_fn(emb):
            a, pos, neg, _ = losses.mine_hard_triplets(emb, labels)
            raise AssertionError("unreachable")

        with pytest.raises(InfeasibleCheckError):
            network.gradient_check(loss_fn, p, x)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        p = network.init_params([4, 8, 3], seed=30)
        # give the optimizer state some content
        x = np.random.default_rng(30).normal(size=(5, 4))
        emb, cache = network.forward(p, x)
        grads, _ = network.backward(p, cache, emb)
        network.adam_step(p, grads, network.OptimizerConfig(), epoch=1)
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
