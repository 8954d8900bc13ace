"""Dense MLP encoder with hand-written forward/backward and Adam.

Everything is float64 and fully deterministic for a fixed seed.  The
parameter container also carries the Adam state so that checkpoints
capture the whole optimizer trajectory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CheckpointFormatError,
    ConfigError,
    ContractViolationError,
    InfeasibleCheckError,
    InputError,
    InvalidArchitectureError,
    UflstError,
)

CHECKPOINT_MAGIC = b"UFLST\0"
CHECKPOINT_VERSION = 1


@dataclass
class AdamState:
    m: list  # first-moment arrays, one pair (mW, mb) per layer
    v: list  # second-moment arrays, same layout
    step: int = 0


@dataclass
class ModelParams:
    weights: list  # per layer: (out_dim, in_dim) float64
    biases: list   # per layer: (out_dim,) float64
    adam: AdamState = field(default=None)

    @property
    def layer_dims(self):
        dims = [self.weights[0].shape[1]]
        dims += [w.shape[0] for w in self.weights]
        return dims

    def copy(self):
        return ModelParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            adam=AdamState(
                m=[(mw.copy(), mb.copy()) for mw, mb in self.adam.m],
                v=[(vw.copy(), vb.copy()) for vw, vb in self.adam.v],
                step=self.adam.step,
            ),
        )


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.005
    decay_factor: float = 0.1
    decay_after_epoch: int = 25
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_adam: float = 1e-8

    def validate(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0 < self.decay_factor <= 1):
            raise ConfigError("decay_factor must lie in (0, 1]")
        if self.decay_after_epoch < 1:
            raise ConfigError("decay_after_epoch must be a positive integer")

    def effective_lr(self, epoch):
        """Step size for a given 1-based epoch: a single multiplicative drop
        once the epoch counter passes decay_after_epoch."""
        if epoch > self.decay_after_epoch:
            return self.learning_rate * self.decay_factor
        return self.learning_rate


def init_params(layer_dims, seed):
    """Fan-in-scaled uniform weights, zero biases, zeroed Adam state.

    Weights are U(-sqrt(3/fan_in), sqrt(3/fan_in)), i.e. std exactly
    1/sqrt(fan_in).
    """
    if len(layer_dims) < 2:
        raise InvalidArchitectureError("need at least an input and an output dim")
    if any(d <= 0 for d in layer_dims):
        raise InvalidArchitectureError(f"zero or negative layer dim in {layer_dims}")
    rng = np.random.default_rng(seed)
    weights, biases, m, v = [], [], [], []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(3.0 / d_in)
        W = rng.uniform(-bound, bound, size=(d_out, d_in))
        b = np.zeros(d_out)
        weights.append(W)
        biases.append(b)
        m.append((np.zeros_like(W), np.zeros_like(b)))
        v.append((np.zeros_like(W), np.zeros_like(b)))
    return ModelParams(weights, biases, AdamState(m, v, 0))


def forward(params, batch):
    """Run the encoder on a (B, D_in) batch.

    Returns (embeddings, cache).  The cache holds the layer inputs and
    pre-activations needed by backward().  Hidden layers apply relu; the
    final layer is linear.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.weights[0].shape[1]:
        raise InputError(
            f"batch shape {batch.shape} does not match input dim "
            f"{params.weights[0].shape[1]}"
        )
    if not np.all(np.isfinite(batch)):
        raise InputError("batch contains non-finite values")
    n_layers = len(params.weights)
    layer_inputs = []
    pre_acts = []
    h = batch
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        layer_inputs.append(h)
        z = h @ W.T + b
        pre_acts.append(z)
        if l < n_layers - 1:
            h = np.maximum(z, 0.0)
        else:
            h = z
    cache = {"inputs": layer_inputs, "pre_acts": pre_acts, "batch_shape": batch.shape}
    return h, cache


def backward(params, cache, output_grad):
    """Backpropagate d(loss)/d(embeddings) into parameter gradients.

    Returns (grads, input_grad) where grads is a list of (dW, db) pairs
    mirroring the parameter layout.
    """
    output_grad = np.asarray(output_grad, dtype=np.float64)
    expected = (cache["batch_shape"][0], params.weights[-1].shape[0])
    if output_grad.shape != expected:
        raise ContractViolationError(
            f"output_grad shape {output_grad.shape}, expected {expected}"
        )
    n_layers = len(params.weights)
    grads = [None] * n_layers
    delta = output_grad
    for l in range(n_layers - 1, -1, -1):
        if l < n_layers - 1:
            delta = delta * (cache["pre_acts"][l] > 0)
        x = cache["inputs"][l]
        dW = delta.T @ x
        db = delta.sum(axis=0)
        grads[l] = (dW, db)
        delta = delta @ params.weights[l]
    return grads, delta


def adam_step(params, grads, config, epoch):
    """One in-place Adam update with bias correction.

    `epoch` is the 1-based epoch counter driving the learning-rate drop.
    """
    lr = config.effective_lr(epoch)
    b1, b2, eps = config.beta1, config.beta2, config.epsilon_adam
    st = params.adam
    st.step += 1
    t = st.step
    for l, (dW, db) in enumerate(grads):
        if dW.shape != params.weights[l].shape or db.shape != params.biases[l].shape:
            raise ContractViolationError(f"gradient shape mismatch at layer {l}")
        mW, mb = st.m[l]
        vW, vb = st.v[l]
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
        params.weights[l] -= lr * (mW / corr1) / (np.sqrt(vW / corr2) + eps)
        params.biases[l] -= lr * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
    return params


def gradient_check(loss_fn, params, batch, step=4e-3):
    """Max relative error between analytic and central-difference gradients.

    `loss_fn(embeddings) -> (scalar, d_loss/d_embeddings)` must be a fixed
    function of the embeddings (any triplet selection frozen beforehand).
    Uses the 5-point central stencil (Richardson over steps h and h/2) at
    two base steps, keeping the better-conditioned estimate per parameter,
    so truncation stays below float64 cancellation even on parameters with
    tiny gradients.
    """
    emb, cache = forward(params, batch)
    try:
        _, demb = loss_fn(emb)
    except UflstError as exc:
        raise InfeasibleCheckError(f"loss undefined on this batch: {exc}") from exc
    grads, _ = backward(params, cache, demb)

    def loss_at(p):
        e, _ = forward(p, batch)
        return loss_fn(e)[0]

    def central(flat, i, h):
        orig = flat[i]
        flat[i] = orig + h
        hi = loss_at(work)
        flat[i] = orig - h
        lo = loss_at(work)
        flat[i] = orig
        return (hi - lo) / (2 * h)

    def richardson(flat, i, h):
        return (4.0 * central(flat, i, h / 2) - central(flat, i, h)) / 3.0

    max_err = 0.0
    work = params.copy()
    for l in range(len(params.weights)):
        for arr, ganalytic in ((work.weights[l], grads[l][0]),
                               (work.biases[l], grads[l][1])):
            flat = arr.ravel()
            gflat = ganalytic.ravel()
            for i in range(flat.size):
                analytic = gflat[i]
                err = None
                for h in (step, 2 * step):
                    numeric = richardson(flat, i, h)
                    denom = max(abs(analytic), abs(numeric), 1e-8)
                    e = abs(analytic - numeric) / denom
                    err = e if err is None else min(err, e)
                max_err = max(max_err, err)
    return max_err


def write_params(f, params):
    """Versioned binary checkpoint of weights, biases and Adam state."""
    f.write(CHECKPOINT_MAGIC)
    f.write(struct.pack("<I", CHECKPOINT_VERSION))
    f.write(struct.pack("<I", len(params.weights)))
    for W in params.weights:
        f.write(struct.pack("<II", W.shape[1], W.shape[0]))
    for W, b in zip(params.weights, params.biases):
        f.write(W.astype("<f8").tobytes())
        f.write(b.astype("<f8").tobytes())
    st = params.adam
    for (mW, mb), (vW, vb) in zip(st.m, st.v):
        f.write(mW.astype("<f8").tobytes())
        f.write(mb.astype("<f8").tobytes())
        f.write(vW.astype("<f8").tobytes())
        f.write(vb.astype("<f8").tobytes())
    f.write(struct.pack("<Q", st.step))


def _read_exact(f, n, what):
    data = f.read(n)
    if len(data) != n:
        raise CheckpointFormatError(f"truncated checkpoint while reading {what}")
    return data


def read_params(f):
    magic = f.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic bytes {magic!r}")
    (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    (n_layers,) = struct.unpack("<I", _read_exact(f, 4, "layer count"))
    shapes = []
    for l in range(n_layers):
        d_in, d_out = struct.unpack("<II", _read_exact(f, 8, f"layer {l} dims"))
        shapes.append((d_out, d_in))

    def read_array(shape, what):
        n = int(np.prod(shape))
        raw = _read_exact(f, 8 * n, what)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)

    weights, biases = [], []
    for l, (d_out, d_in) in enumerate(shapes):
        weights.append(read_array((d_out, d_in), f"layer {l} weights"))
        biases.append(read_array((d_out,), f"layer {l} bias"))
    m, v = [], []
    for l, (d_out, d_in) in enumerate(shapes):
        mW = read_array((d_out, d_in), f"layer {l} adam m")
        mb = read_array((d_out,), f"layer {l} adam m bias")
        vW = read_array((d_out, d_in), f"layer {l} adam v")
        vb = read_array((d_out,), f"layer {l} adam v bias")
        m.append((mW, mb))
        v.append((vW, vb))
    (step,) = struct.unpack("<Q", _read_exact(f, 8, "step counter"))
    return ModelParams(weights, biases, AdamState(m, v, step))
