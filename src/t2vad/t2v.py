"""Time-embedding layer for fixed-length multivariate windows.

Maps an N x F window X to an N x K matrix: column 0 is the affine map
X w0 + b0 (non-periodic part), columns 1..K-1 are sin(X w + b) elementwise
(periodic part), with w0 (F x 1), b0 (N x 1), w (F x (K-1)) and b
(N x (K-1)). Flattened row-major, the matrix becomes the N*K embedding
vector consumed by the one-class detectors: the embedding AE's window
embedding is this layer's output reshaped, with nothing in between.

Biases are timestep-dependent (one row per step); that is what makes the
embedding sensitive to where in the window a pattern occurs.
"""

from __future__ import annotations

import math

import numpy as np

from .ndtensor import Layer, Tensor


class T2VLayer(Layer):
    """Batched time-embedding layer: (B, N, F) windows -> (B, N, K) matrices.

    A single window is the B=1 case; `t2v_forward_reference` is the
    entrywise oracle for one window.
    """

    def __init__(self, n: int, f: int, k: int, rng: np.random.Generator | None = None):
        if k < 2:
            raise ValueError(f"embedding width K must be >= 2, got {k}")
        self.n, self.f, self.k = n, f, k
        scale = 1.0 / np.sqrt(f)
        if rng is None:
            self.w0 = np.zeros((f, 1))
            self.w = np.zeros((f, k - 1))
        else:
            self.w0 = rng.uniform(-scale, scale, size=(f, 1))
            self.w = rng.uniform(-scale, scale, size=(f, k - 1))
        self.b0 = np.zeros((n, 1))
        self.b = np.zeros((n, k - 1))

    def params(self):
        return {"w0": self.w0, "b0": self.b0, "w": self.w, "b": self.b}

    def forward(self, x: Tensor):
        if x.ndim != 3 or x.shape[1:] != (self.n, self.f):
            raise ValueError(f"t2v expects (B,{self.n},{self.f}), got {x.shape}")
        linear = x @ self.w0 + self.b0           # (B, N, 1)
        pre = x @ self.w + self.b                # (B, N, K-1), cached pre-activation
        y = np.concatenate([linear, np.sin(pre)], axis=2)
        return y, (x, pre)

    def backward(self, cache, grad_out: Tensor, input_grad: bool = True):
        x, pre = cache
        g_lin = grad_out[:, :, :1]               # (B, N, 1)
        g_pre = grad_out[:, :, 1:] * np.cos(pre)  # chain through the sine
        rows_t = x.reshape(-1, self.f).T          # (F, B*N)
        grads = {
            "w0": rows_t @ g_lin.reshape(-1, 1),
            "b0": g_lin.sum(axis=0),
            "w": rows_t @ g_pre.reshape(-1, self.k - 1),
            "b": g_pre.sum(axis=0),
        }
        if not input_grad:
            return None, grads
        return g_lin @ self.w0.T + g_pre @ self.w.T, grads


def t2v_forward_reference(layer: T2VLayer, x: Tensor) -> Tensor:
    """Entrywise scalar-loop evaluation of the embedding definition.

    Independent oracle for tests: no matrix products, plain Python loops.
    """
    n, f, k = layer.n, layer.f, layer.k
    out = np.empty((n, k))
    for row in range(n):
        acc = 0.0
        for j in range(f):
            acc += x[row, j] * layer.w0[j, 0]
        out[row, 0] = acc + layer.b0[row, 0]
        for col in range(k - 1):
            acc = 0.0
            for j in range(f):
                acc += x[row, j] * layer.w[j, col]
            out[row, col + 1] = math.sin(acc + layer.b[row, col])
    return out
