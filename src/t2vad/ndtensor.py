"""Minimal dense numeric core for the window autoencoders and Deep SVDD.

Tensors are plain numpy arrays, row-major: float64 by default, float32 in
:func:`train_adam`, the one training loop, which runs on a float32 copy of a
stack (:meth:`LayerStack.astype`). Every buffer a layer or the optimizer
makes follows the dtype of its input or parameters. The layer vocabulary is
fixed: conv1d, dense, relu and upsample here, plus the t2v layer in
:mod:`t2vad.t2v`. Each layer implements an explicit forward that returns a
cache and a backward that consumes it, so a :class:`LayerStack` can record a
tape and replay it in exact reverse order. Gradients are checked against
central finite differences by :func:`grad_check`.

Layers operate on batches only: time-series layers take ``(B, N, C)``,
dense layers take ``(B, D)``. A single window is a batch with B=1.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

import numpy as np

Tensor = np.ndarray


class NonFiniteError(FloatingPointError):
    """A tensor left the finite domain (NaN or Inf)."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch/batch where it happened."""


# ---------------------------------------------------------------------------
# batched conv kernels
# ---------------------------------------------------------------------------

def _im2col(x: Tensor, k: int, stride: int) -> Tensor:
    """(B, N, C) -> (B, N_out, k, C) sliding windows over zero-padded time axis."""
    b, n, c = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((b, n + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:pad + n, :] = x
    n_out = n // stride
    s0, s1, s2 = xp.strides
    cols = np.lib.stride_tricks.as_strided(
        xp, shape=(b, n_out, k, c), strides=(s0, s1 * stride, s1, s2), writeable=False
    )
    return np.ascontiguousarray(cols)


def _conv1d_batch(x: Tensor, kernels: Tensor, bias: Tensor, stride: int):
    c_out, c_in, k = kernels.shape
    if stride < 1 or x.shape[1] % stride != 0:
        raise ValueError(f"time axis {x.shape[1]} not divisible by stride {stride}")
    cols = _im2col(x, k, stride)                      # (B, N_out, k, C_in)
    kmat = kernels.transpose(2, 1, 0).reshape(k * c_in, c_out)
    y = cols.reshape(cols.shape[0], cols.shape[1], k * c_in) @ kmat + bias
    return y, cols


def _conv1d_batch_backward(grad_y, cols, kernels, stride, in_len, input_grad=True):
    """Gradients of the batched conv. Returns (grad_x, grad_kernels, grad_bias).

    grad_x is None when input_grad is False. Otherwise it is the "same"
    convolution of grad_y, zero-dilated back to the input length when the
    stride is above 1, with the kernels flipped in time and with input and
    output channels swapped: one im2col and one matmul.

    grad_bias is `np.einsum('ij->j', flat_gy)`, a few times faster than
    `flat_gy.sum(axis=0)` and bitwise equal to it when C_out >= 2: both then
    add the rows in order. At C_out = 1 `sum` adds pairwise and the two can
    differ, so a one-channel conv (no default or searched model has one)
    keeps `sum`.
    """
    c_out, c_in, k = kernels.shape
    b, n_out, _ = grad_y.shape
    flat_cols = cols.reshape(b * n_out, k * c_in)
    flat_gy = grad_y.reshape(b * n_out, c_out)
    grad_kmat = flat_cols.T @ flat_gy                  # (k*C_in, C_out)
    grad_kernels = grad_kmat.reshape(k, c_in, c_out).transpose(2, 1, 0)
    grad_bias = np.einsum("ij->j", flat_gy) if c_out > 1 else flat_gy.sum(axis=0)
    if not input_grad:
        return None, grad_kernels, grad_bias
    if stride > 1:
        dilated = np.zeros((b, in_len, c_out), dtype=grad_y.dtype)
        dilated[:, ::stride] = grad_y
        grad_y = dilated
    kflip = kernels[:, :, ::-1].transpose(2, 0, 1).reshape(k * c_out, c_in)
    grad_x = _im2col(grad_y, k, 1).reshape(b, in_len, k * c_out) @ kflip
    return grad_x, grad_kernels, grad_bias


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class Layer:
    """Forward/backward contract shared by the fixed layer vocabulary.

    ``backward(cache, grad_out)`` returns ``(grad_in, param_grads)``. With
    ``input_grad=False`` a layer with parameters skips ``grad_in`` and
    returns None in its place.
    """

    kind: str = ""

    def params(self) -> dict[str, Tensor]:
        return {}

    def forward(self, x: Tensor):
        raise NotImplementedError

    def backward(self, cache, grad_out: Tensor, input_grad: bool = True):
        raise NotImplementedError

    def hyperparams(self) -> dict[str, Any]:
        return {}


class Conv1d(Layer):
    kind = "conv1d"

    def __init__(self, c_in: int, c_out: int, k: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        if k % 2 == 0:
            raise ValueError(f"kernel size must be odd for same padding, got {k}")
        self.c_in, self.c_out, self.k, self.stride = c_in, c_out, k, stride
        scale = 1.0 / np.sqrt(c_in * k)
        self.kernels = (np.zeros((c_out, c_in, k)) if rng is None
                        else rng.uniform(-scale, scale, size=(c_out, c_in, k)))
        self.bias = np.zeros(c_out)

    def params(self):
        return {"kernels": self.kernels, "bias": self.bias}

    def forward(self, x):
        if x.ndim != 3 or x.shape[2] != self.c_in:
            raise ValueError(f"conv1d expects (B,N,{self.c_in}), got {x.shape}")
        y, cols = _conv1d_batch(x, self.kernels, self.bias, self.stride)
        return y, (cols, x.shape[1])

    def backward(self, cache, grad_out, input_grad=True):
        cols, in_len = cache
        gx, gk, gb = _conv1d_batch_backward(grad_out, cols, self.kernels, self.stride,
                                            in_len, input_grad)
        return gx, {"kernels": gk, "bias": gb}

    def hyperparams(self):
        return {"c_in": self.c_in, "c_out": self.c_out, "k": self.k, "stride": self.stride}


class Dense(Layer):
    """Bias-free x @ weight (Deep SVDD's layer)."""

    kind = "dense"

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None = None):
        self.d_in, self.d_out = d_in, d_out
        scale = 1.0 / np.sqrt(d_in)
        self.weight = (np.zeros((d_in, d_out)) if rng is None
                       else rng.uniform(-scale, scale, size=(d_in, d_out)))

    def params(self):
        return {"weight": self.weight}

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ValueError(f"dense expects (B,{self.d_in}), got {x.shape}")
        return x @ self.weight, x

    def backward(self, cache, grad_out, input_grad=True):
        x = cache
        return (grad_out @ self.weight.T if input_grad else None), {"weight": x.T @ grad_out}

    def hyperparams(self):
        return {"d_in": self.d_in, "d_out": self.d_out}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, cache, grad_out, input_grad=True):
        return grad_out * (cache > 0), {}


class Upsample(Layer):
    """Nearest-neighbor repetition along the time axis by an integer factor."""

    kind = "upsample"

    def __init__(self, factor: int):
        if factor < 1:
            raise ValueError("upsample factor must be >= 1")
        self.factor = factor

    def forward(self, x):
        return np.repeat(x, self.factor, axis=1), None

    def backward(self, cache, grad_out, input_grad=True):
        # bitwise the sum over each group of `factor` rows, and faster than
        # reshaping and summing: numpy's sum also starts at +0.0 (so -0.0
        # sums to +0.0) and adds the rows in order
        grad_in = grad_out[:, ::self.factor] + 0.0
        for j in range(1, self.factor):
            grad_in += grad_out[:, j::self.factor]
        return grad_in, {}

    def hyperparams(self):
        return {"factor": self.factor}


# ---------------------------------------------------------------------------
# stack, tape, optimizer
# ---------------------------------------------------------------------------

class LayerStack:
    """Ordered layer pipeline with explicit tape-based backprop.

    The stack owns one flat parameter vector ``params`` and one flat
    gradient vector ``grads``. Every layer parameter becomes a view into
    ``params`` (its current values are copied in), so an optimizer step on
    the vector updates the layers, and ``backward`` fills ``grads`` in the
    same order. Both vectors, and so every parameter view, have ``dtype``.
    """

    def __init__(self, layers: list[Layer], dtype=np.float64):
        self.layers = list(layers)
        size = sum(arr.size for layer in self.layers for arr in layer.params().values())
        self.params = np.empty(size, dtype=dtype)
        self.grads = np.zeros(size, dtype=dtype)
        self._grad_views: list[dict[str, Tensor]] = []
        offset = 0
        for layer in self.layers:
            views = {}
            for name, arr in layer.params().items():
                span = slice(offset, offset + arr.size)
                self.params[span] = arr.ravel()
                setattr(layer, name, self.params[span].reshape(arr.shape))
                views[name] = self.grads[span].reshape(arr.shape)
                offset += arr.size
            self._grad_views.append(views)

    def astype(self, dtype) -> "LayerStack":
        """An independent stack of deep-copied layers whose parameters have
        `dtype` (values rounded to it)."""
        return LayerStack(copy.deepcopy(self.layers), dtype)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x, _ = layer.forward(x)
        return x

    def forward_tape(self, x: Tensor):
        """Forward pass recording (layer, cache) in execution order."""
        tape = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            tape.append(cache)
        return x, tape

    def backward(self, tape, grad_out: Tensor) -> Tensor:
        """Reverse traversal of the tape into ``grads``, which it returns.

        The first layer's input gradient is never computed: nothing reads it.
        """
        if len(tape) != len(self.layers):
            raise ValueError("tape does not match layer stack")
        g = grad_out
        for idx in range(len(self.layers) - 1, -1, -1):
            g, pgrads = self.layers[idx].backward(tape[idx], g, input_grad=idx > 0)
            for name, view in self._grad_views[idx].items():
                view[...] = pgrads[name]
        return self.grads


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8     # Adam's decay rates and denominator floor


@dataclass
class AdamState:
    """Adam moments over a flat parameter vector plus the step counter.

    The first step allocates m, v and scratch in the parameters' dtype.
    """

    lr: float = 1e-3
    step_count: int = 0
    m: Tensor | None = None
    v: Tensor | None = None
    scratch: Tensor | None = None     # two preallocated temporaries


def adam_step(state: AdamState, params: Tensor, grads: Tensor) -> None:
    """One Adam update with bias correction (Kingma & Ba 2015).

    params and grads are flat vectors; params is updated in place. The
    arithmetic is m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p -= lr m_hat / (sqrt(v_hat) + eps) with (b1, b2, eps) = (BETA1, BETA2,
    EPS), written as in-place operations on preallocated temporaries.
    """
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} != param shape {params.shape}")
    if not np.isfinite(grads).all():
        raise NonFiniteError("non-finite gradient")
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
        state.scratch = np.empty((2, *params.shape), dtype=params.dtype)
    state.step_count += 1
    t = state.step_count
    m, v, (a, b) = state.m, state.v, state.scratch
    m *= BETA1
    np.multiply(grads, 1 - BETA1, out=a)
    m += a
    v *= BETA2
    np.multiply(grads, 1 - BETA2, out=a)
    a *= grads
    v += a
    np.divide(m, 1 - BETA1 ** t, out=a)       # m_hat
    a *= state.lr
    np.divide(v, 1 - BETA2 ** t, out=b)       # v_hat
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    params -= a


def train_adam(stack: LayerStack, data: Tensor, loss_grad, epochs: int, batch: int,
               lr: float, rng: np.random.Generator, weight_decay: float = 0.0) -> list[float]:
    """Minibatch Adam on a float32 copy of `stack` (both autoencoders, Deep
    SVDD), one `rng.permutation` of the rows of `data` per epoch; returns
    each epoch's mean loss.

    `loss_grad(y, xb)` gives a batch's loss summed over its rows (a non-finite
    one raises TrainingDiverged naming epoch and batch) and its gradient
    w.r.t. `y`. A nonzero `weight_decay` adds 2 * weight_decay * params to
    the gradient. The trained parameters are written back into `stack`.
    Overflow warnings are silenced: the loss and gradient checks raise."""
    if epochs < 1 or batch < 1:
        raise ValueError(f"epochs and batch size must be >= 1, got {epochs} and {batch}")
    work, data = stack.astype(np.float32), np.asarray(data, dtype=np.float32)
    n, adam, curve = len(data), AdamState(lr=lr), []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order, epoch_loss = rng.permutation(n), 0.0
            for start in range(0, n, batch):
                xb = data[order[start:start + batch]]
                y, tape = work.forward_tape(xb)
                loss, dy = loss_grad(y, xb)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch {start // batch}")
                grads = work.backward(tape, dy)
                if weight_decay:
                    grads += 2.0 * weight_decay * work.params
                adam_step(adam, work.params, grads)
                epoch_loss += loss
            curve.append(epoch_loss / n)
    stack.params[...] = work.params
    return curve


def mse_loss_grad(y: Tensor, target: Tensor):
    """Mean squared error over all elements and its gradient w.r.t. y."""
    diff = y - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def grad_check(stack: LayerStack, x: Tensor, target: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central finite-difference grads.

    Loss is the elementwise MSE against `target`. Intended for small stacks
    (< 1e4 parameters); returns the worst relative error over every
    parameter entry, |a - n| / (|a| + |n| + 1e-12).
    """
    y, tape = stack.forward_tape(x)
    _, dy = mse_loss_grad(y, target)
    analytic = stack.backward(tape, dy).copy()

    worst = 0.0
    flat = stack.params
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        lp, _ = mse_loss_grad(stack.forward(x), target)
        flat[j] = orig - h
        lm, _ = mse_loss_grad(stack.forward(x), target)
        flat[j] = orig
        numeric = (lp - lm) / (2 * h)
        a = analytic[j]
        rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
        worst = max(worst, rel)
    return worst
