"""Minimal dense numeric core for the window autoencoders and Deep SVDD.

Tensors are plain numpy arrays, row-major: float64 by default, float32 in
:func:`train_adam`, the one training loop, which runs on a float32 copy of a
stack (:meth:`LayerStack.astype`). Every buffer a layer or the optimizer
makes follows the dtype of its input or parameters. The layer vocabulary is
fixed: conv1d (k shifted matmuls over one padded buffer, no im2col), dense,
relu and upsample here, plus the t2v layer in :mod:`t2vad.t2v`. Each layer's
forward returns a cache and its backward consumes it, so a
:class:`LayerStack` can record a tape and replay it in exact reverse order.
Gradients are checked against central finite differences by :func:`grad_check`.
A layer carries no description of itself for storage: a saved network is its
stack's flat ``params`` vector, and the builders in :mod:`t2vad.autoenc` and
:mod:`t2vad.detect.deepsvdd` rebuild its layers from their settings.

Layers operate on batches only: time-series layers take ``(B, N, C)``,
dense layers take ``(B, D)``. A single window is a batch with B=1.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

Tensor = np.ndarray


class NonFiniteError(FloatingPointError):
    """A tensor left the finite domain (NaN or Inf)."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch/batch where it happened."""


# ---------------------------------------------------------------------------
# batched conv kernels
# ---------------------------------------------------------------------------

def _conv1d_batch(x: Tensor, kernels: Tensor, bias: Tensor, stride: int):
    """"Same" conv of (B, N, C_in) as a sum of k shifted GEMMs; returns (y, xp).

    xp is x zero-padded to P rows per window (N + 2 pad rounded up to a stride
    multiple), so tap j's input for all windows is one strided view of the
    flat (B*P, C_in) buffer: y = bias + sum_j xp[j::stride] @ W_j, with no
    (B, N_out, k*C_in) array. The P/stride - N_out rows after each window's
    output read the next window and are cut off, so y is a view.
    """
    (c_out, c_in, k), (b, n, _) = kernels.shape, x.shape
    if stride < 1 or n % stride != 0:
        raise ValueError(f"time axis {n} not divisible by stride {stride}")
    pad, q = (k - 1) // 2, -(-(n + k - 1) // stride)   # q: output rows per window, cut-off too
    xp = np.zeros((b, q * stride, c_in), dtype=x.dtype)
    xp[:, pad:pad + n] = x
    flat, rows = xp.reshape(-1, c_in), b * q - (q - n // stride)
    w = np.ascontiguousarray(kernels.transpose(2, 1, 0))   # W_j = w[j], (C_in, C_out): BLAS-ready
    y = np.empty((b, q, c_out), dtype=np.result_type(x, kernels, bias))
    out, tmp = y.reshape(-1, c_out)[:rows], np.empty((rows, c_out), dtype=y.dtype)
    out[...] = bias
    for j in range(k):
        out += np.matmul(flat[j::stride][:rows], w[j], out=tmp)
    return y[:, :n // stride], xp


def _conv1d_batch_backward(grad_y, xp, kernels, stride, in_len, input_grad=True):
    """Conv gradients (grad_x, grad_kernels, grad_bias) from the padded input xp.

    gy is grad_y in the forward's row layout, zero in the cut-off rows: tap j's
    kernel gradient is xp[j::stride].T @ gy, and grad_x adds gy @ W_j.T into a
    zeroed padded buffer at offset j (stride 2 needs no zero-dilated copy).
    grad_bias is `np.einsum('ij->j')` of the real grad_y rows, faster than
    `.sum(axis=0)` and bitwise equal to it when C_out >= 2 (both add rows in
    order); at C_out = 1 `sum` adds pairwise, so it stays.
    """
    (c_out, c_in, k), (b, n_out, _) = kernels.shape, grad_y.shape
    q, pad = xp.shape[1] // stride, (k - 1) // 2
    rows, flat = b * q - (q - n_out), xp.reshape(-1, c_in)
    gyp = np.zeros((b, q, c_out), dtype=grad_y.dtype)
    gyp[:, :n_out] = grad_y
    gy = gyp.reshape(-1, c_out)[:rows]
    grad_w = np.empty((k, c_in, c_out), dtype=np.result_type(xp, grad_y))
    for j in range(k):
        np.matmul(flat[j::stride][:rows].T, gy, out=grad_w[j])
    flat_gy = grad_y.reshape(b * n_out, c_out)
    grad_bias = np.einsum("ij->j", flat_gy) if c_out > 1 else flat_gy.sum(axis=0)
    if not input_grad:
        return None, grad_w.transpose(2, 1, 0), grad_bias
    wt = np.ascontiguousarray(kernels.transpose(2, 0, 1))  # W_j.T = wt[j], (C_out, C_in)
    gxp = np.zeros((len(flat), c_in), dtype=np.result_type(grad_y, kernels))
    tmp = np.empty((rows, c_in), dtype=gxp.dtype)
    for j in range(k):
        gxp[j::stride][:rows] += np.matmul(gy, wt[j], out=tmp)
    return gxp.reshape(b, -1, c_in)[:, pad:pad + in_len], grad_w.transpose(2, 1, 0), grad_bias


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class Layer:
    """Forward/backward contract shared by the fixed layer vocabulary.

    ``backward(cache, grad_out)`` returns ``(grad_in, param_grads)``. With
    ``input_grad=False`` a layer with parameters skips ``grad_in`` and
    returns None in its place.
    """

    def params(self) -> dict[str, Tensor]:
        return {}

    def forward(self, x: Tensor):
        raise NotImplementedError

    def backward(self, cache, grad_out: Tensor, input_grad: bool = True):
        raise NotImplementedError


class Conv1d(Layer):
    def __init__(self, c_in: int, c_out: int, k: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        if k % 2 == 0:
            raise ValueError(f"kernel size must be odd for same padding, got {k}")
        self.c_in, self.stride = c_in, stride
        scale = 1.0 / np.sqrt(c_in * k)
        self.kernels = (np.zeros((c_out, c_in, k)) if rng is None
                        else rng.uniform(-scale, scale, size=(c_out, c_in, k)))
        self.bias = np.zeros(c_out)

    def params(self):
        return {"kernels": self.kernels, "bias": self.bias}

    def forward(self, x):
        if x.ndim != 3 or x.shape[2] != self.c_in:
            raise ValueError(f"conv1d expects (B,N,{self.c_in}), got {x.shape}")
        y, xp = _conv1d_batch(x, self.kernels, self.bias, self.stride)
        return y, (xp, x.shape[1])

    def backward(self, cache, grad_out, input_grad=True):
        xp, in_len = cache
        gx, gk, gb = _conv1d_batch_backward(grad_out, xp, self.kernels, self.stride,
                                            in_len, input_grad)
        return gx, {"kernels": gk, "bias": gb}


class Dense(Layer):
    """Bias-free x @ weight (Deep SVDD's layer)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None = None):
        self.d_in = d_in
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


class ReLU(Layer):
    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, cache, grad_out, input_grad=True):
        return grad_out * (cache > 0), {}


class Upsample(Layer):
    """Nearest-neighbor repetition along the time axis by an integer factor."""

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
