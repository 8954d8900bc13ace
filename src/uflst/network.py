"""Dense MLP encoder with hand-written forward/backward and Adam.

Everything is float64 and fully deterministic for a fixed seed.  The
parameter container also carries the Adam state so that checkpoints
capture the whole optimizer trajectory.

`forward`, `backward` and `adam_step` write their layer outputs,
gradients and temporaries into a `Workspace`: the one they are given, or
a fresh one.  Training builds one workspace per round for the round's
batch size and passes it to every step, so the steps of a round reuse one
set of buffers; clustering, evaluation and the gradient check pass none,
so what they get back is theirs to keep.  An array returned from a given
workspace is valid until the next call of the same function on it: the
embeddings and cache of `forward` until the next `forward`, the gradient
of `backward` until the next `backward`.  Passing a workspace changes no
output bit.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass

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
class ModelParams:
    """Weights, biases and Adam moments in three buffers of one layout.

    `flat`, `m` and `v` each hold W1, b1, W2, b2, ... back to back, every
    W row-major (out_dim, in_dim); `weights` and `biases` are views into
    `flat`.  `dims` lists the layer widths, input first.
    """
    dims: tuple
    flat: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self):
        self.weights, self.biases = self.views(self.flat)

    def views(self, buf):
        """Per-layer (weights, biases) views into a buffer of `flat`'s layout."""
        return _layer_views(self.dims, buf)

    @classmethod
    def zeros(cls, dims):
        """All-zero parameters and Adam state for the layer widths `dims`."""
        dims = tuple(int(d) for d in dims)
        size = _flat_size(dims)
        return cls(dims, np.zeros(size), np.zeros(size), np.zeros(size))

    def copy(self):
        return ModelParams(self.dims, self.flat.copy(), self.m.copy(),
                           self.v.copy(), self.step)


def _flat_size(dims):
    """Floats in a buffer of `flat`'s layout for the layer widths `dims`."""
    return sum(d_out * (d_in + 1) for d_in, d_out in zip(dims[:-1], dims[1:]))


def _layer_views(dims, buf):
    """Per-layer (weights, biases) views into a buffer of `flat`'s layout
    for the layer widths `dims`."""
    weights, biases, end = [], [], 0
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        start, end = end, end + d_out * (d_in + 1)
        weights.append(buf[start:end - d_out].reshape(d_out, d_in))
        biases.append(buf[end - d_out:end])
    return tuple(weights), tuple(biases)


class Workspace:
    """The buffers of one training step on `rows`-row batches of an encoder
    with layer widths `dims`, in three groups, each allocated when its
    function first asks for it: a fresh workspace holds only what its one
    call needs.
    """

    def __init__(self, dims, rows):
        self.dims, self.rows = tuple(int(d) for d in dims), int(rows)

    def _rows(self, widths, dtype=np.float64):
        return [np.empty((self.rows, d), dtype) for d in widths]

    @functools.cached_property
    def for_forward(self):
        """Every layer's pre-activations and every hidden layer's relu
        outputs."""
        return self._rows(self.dims[1:]), self._rows(self.dims[1:-1])

    @functools.cached_property
    def for_backward(self):
        """The gradient, its per-layer (weights, biases) views, and every
        hidden layer's deltas and relu masks."""
        grad = np.empty(_flat_size(self.dims))
        return (grad, _layer_views(self.dims, grad),
                self._rows(self.dims[1:-1]), self._rows(self.dims[1:-1], bool))

    @functools.cached_property
    def for_adam(self):
        """Two temporaries of `flat`'s size."""
        return np.empty(_flat_size(self.dims)), np.empty(_flat_size(self.dims))


def _workspace(workspace, params, rows=None):
    """`workspace`, checked against `params` and (unless None) the batch
    rows, or a fresh one when it is None."""
    if workspace is None:
        return Workspace(params.dims, rows or 0)
    if (workspace.dims != tuple(params.dims)
            or rows not in (None, workspace.rows)):
        raise ContractViolationError(
            f"workspace for {workspace.rows} rows of layers {workspace.dims} "
            f"used for {rows} rows of layers {tuple(params.dims)}")
    return workspace


# Adam's published defaults (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
# `adam_step` gets the epoch within the round, so the rate drops once a round
LR_DROP_FACTOR = 0.1
LR_DROP_AFTER_EPOCH = 25


@dataclass
class OptimizerConfig:
    learning_rate: float = 0.005

    def validate(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")

    def effective_lr(self, epoch):
        """Step size for a given 1-based epoch: a single multiplicative drop
        once the epoch counter passes LR_DROP_AFTER_EPOCH."""
        if epoch > LR_DROP_AFTER_EPOCH:
            return self.learning_rate * LR_DROP_FACTOR
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
    params = ModelParams.zeros(layer_dims)
    rng = np.random.default_rng(seed)
    for W in params.weights:
        bound = np.sqrt(3.0 / W.shape[1])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return params


def forward(params, batch, workspace=None):
    """Run the encoder on a (B, D_in) batch.

    Returns (embeddings, cache).  The cache holds the layer inputs and
    pre-activations needed by backward().  Hidden layers apply relu; the
    final layer is linear.  Both are written into `workspace` (a fresh one
    when None), so with a given workspace they hold until the next
    `forward` into it; the cache also reads `batch`, which must not change
    before `backward` has run.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.weights[0].shape[1]:
        raise InputError(
            f"batch shape {batch.shape} does not match input dim "
            f"{params.weights[0].shape[1]}"
        )
    if not np.all(np.isfinite(batch)):
        raise InputError("batch contains non-finite values")
    pre_acts, acts = _workspace(workspace, params, batch.shape[0]).for_forward
    h = batch
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        h = np.matmul(h, W.T, out=pre_acts[l])
        h += b
        if l < len(acts):
            h = np.maximum(h, 0.0, out=acts[l])
    cache = {"inputs": [batch, *acts], "pre_acts": list(pre_acts),
             "batch_shape": batch.shape}
    return h, cache


def backward(params, cache, output_grad, workspace=None):
    """Backpropagate d(loss)/d(embeddings) into parameter gradients.

    Returns the gradient in the layout of `params.flat`, written into
    `workspace` (a fresh one when None).
    """
    output_grad = np.asarray(output_grad, dtype=np.float64)
    expected = (cache["batch_shape"][0], params.weights[-1].shape[0])
    if output_grad.shape != expected:
        raise ContractViolationError(
            f"output_grad shape {output_grad.shape}, expected {expected}"
        )
    grad, (dWs, dbs), deltas, masks = _workspace(
        workspace, params, expected[0]).for_backward
    delta = output_grad
    for l in range(len(dWs) - 1, -1, -1):
        np.matmul(delta.T, cache["inputs"][l], out=dWs[l])
        np.sum(delta, axis=0, out=dbs[l])
        if l > 0:
            delta = np.matmul(delta, params.weights[l], out=deltas[l - 1])
            delta *= np.greater(cache["pre_acts"][l - 1], 0, out=masks[l - 1])
    return grad


def adam_step(params, grad, config, epoch, workspace=None):
    """One in-place Adam update with bias correction.

    `grad` has the layout of `params.flat`; `epoch` is the 1-based epoch
    counter driving the learning-rate drop.  The temporaries live in
    `workspace` (a fresh one when None); the order of operations is that
    of `lr (m / c1) / (sqrt(v / c2) + eps)` with `v += ((1 - b2) g) g`.
    """
    if grad.shape != params.flat.shape:
        raise ContractViolationError(
            f"gradient shape {grad.shape}, expected {params.flat.shape}"
        )
    t1, t2 = _workspace(workspace, params).for_adam
    lr = config.effective_lr(epoch)
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    params.step += 1
    params.m *= b1
    params.m += np.multiply(1 - b1, grad, out=t1)
    params.v *= b2
    np.multiply(1 - b2, grad, out=t1)
    params.v += np.multiply(t1, grad, out=t1)
    corr1 = 1 - b1 ** params.step
    corr2 = 1 - b2 ** params.step
    np.divide(params.m, corr1, out=t1)
    np.multiply(lr, t1, out=t1)
    np.sqrt(np.divide(params.v, corr2, out=t2), out=t2)
    t2 += eps
    params.flat -= np.divide(t1, t2, out=t1)
    return params


# Base step of `gradient_check`'s central differences
GRADCHECK_STEP = 4e-3


def gradient_check(loss_fn, params, batch):
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
    grad = backward(params, cache, demb)
    work = params.copy()
    flat = work.flat

    def loss_at(i, value):
        flat[i] = value
        return loss_fn(forward(work, batch)[0])[0]

    def central(i, h):
        orig = flat[i]
        diff = loss_at(i, orig + h) - loss_at(i, orig - h)
        flat[i] = orig
        return diff / (2 * h)

    def richardson(i, h):
        return (4.0 * central(i, h / 2) - central(i, h)) / 3.0

    max_err = 0.0
    for i, analytic in enumerate(grad):
        errs = []
        for h in (GRADCHECK_STEP, 2 * GRADCHECK_STEP):
            numeric = richardson(i, h)
            errs.append(abs(analytic - numeric)
                        / max(abs(analytic), abs(numeric), 1e-8))
        max_err = max(max_err, min(errs))
    return max_err


def write_params(f, params):
    """Versioned binary checkpoint of weights, biases and Adam state.

    Layout (little-endian): magic, version, layer count, (in, out) per
    layer, `flat`, then per layer the Adam quadruple (mW, mb, vW, vb), and
    the step counter.
    """
    f.write(CHECKPOINT_MAGIC)
    f.write(struct.pack("<I", CHECKPOINT_VERSION))
    f.write(struct.pack("<I", len(params.dims) - 1))
    for d_in, d_out in zip(params.dims[:-1], params.dims[1:]):
        f.write(struct.pack("<II", d_in, d_out))
    for a in _float_sections(params):
        f.write(a.astype("<f8").tobytes())
    f.write(struct.pack("<Q", params.step))


def _float_sections(params):
    """The float arrays of a checkpoint, in file order."""
    adam = zip(*params.views(params.m), *params.views(params.v))
    return [params.flat, *(a for quadruple in adam for a in quadruple)]


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
    pairs = [struct.unpack("<II", _read_exact(f, 8, f"layer {l} dims"))
             for l in range(n_layers)]
    if not pairs or any(prev[1] != d_in for prev, (d_in, _) in zip(pairs, pairs[1:])):
        raise CheckpointFormatError(f"layer (in, out) dims {pairs} do not chain")
    dims = [pairs[0][0], *(d_out for _, d_out in pairs)]
    # parameters, both Adam moments and the step counter, checked against
    # the bytes left before anything of that size is allocated
    needed = 8 * (3 * _flat_size(dims) + 1)
    here = f.tell()
    left = f.seek(0, os.SEEK_END) - here
    f.seek(here)
    if left < needed:
        raise CheckpointFormatError(f"layer dims {pairs} need {needed} more "
                                    f"bytes, the file has {left}")
    params = ModelParams.zeros(dims)
    for a in _float_sections(params):
        raw = _read_exact(f, 8 * a.size, "parameters")
        a[...] = np.frombuffer(raw, dtype="<f8").reshape(a.shape)
    (params.step,) = struct.unpack("<Q", _read_exact(f, 8, "step counter"))
    return params
