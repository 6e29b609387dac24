"""One-class network: map training points near a fixed center, score by
squared distance to it.

Bias-free feed-forward net (ReLU hidden, linear output) trained with Adam
to minimize mean ||phi(x) - c||^2 plus L2 weight decay. The center is the
mean of the initial float64 forward pass and stays frozen; bias-free layers
rule out the trivial constant-map solution, and a collapse guard shifts a
center that lands on the origin. Training runs on a float32 copy of the
net; the fitted state holds the float64 net, the center and the mean
objective of each epoch (`loss_curve`).
"""

from __future__ import annotations

import numpy as np

from .. import ndtensor as nd
from ..rng import make_rng

WIDTHS = (128, 32)     # hidden and output widths of the fitted net
BATCH = 64
LR = 1e-3
WEIGHT_DECAY = 1e-4


def build_network(d_in: int, widths, rng) -> nd.LayerStack:
    layers: list[nd.Layer] = []
    dims = [d_in, *widths]
    for i in range(len(dims) - 1):
        layers.append(nd.Dense(dims[i], dims[i + 1], use_bias=False, rng=rng))
        if i < len(dims) - 2:
            layers.append(nd.ReLU())
    return nd.LayerStack(layers)


def fit_deep_svdd(x: np.ndarray, widths, epochs: int, batch: int, lr: float,
                  weight_decay: float, seed: int) -> dict:
    n, d = x.shape
    if n < 32:
        raise ValueError(f"need at least 32 training points, got {n}")
    if list(widths) != sorted(widths, reverse=True):
        raise ValueError(f"widths must be decreasing, got {list(widths)}")
    rng = make_rng(seed)
    net = build_network(d, widths, rng)

    center = net.forward(x).mean(axis=0)
    if float(np.linalg.norm(center)) < 1e-6:
        center = center + 0.1     # collapse guard: keep the target off the origin

    work, x32, center32 = net.astype(np.float32), x.astype(np.float32), center.astype(np.float32)
    adam = nd.AdamState(lr=lr)
    order_rng = make_rng(seed + 1)
    loss_curve = []
    for _ in range(epochs):
        order = order_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            xb = x32[order[start:start + batch]]
            y, tape = work.forward_tape(xb)
            diff = y - center32
            epoch_loss += float((diff * diff).sum())      # batch objective times batch size
            grads = work.backward(tape, 2.0 * diff / len(xb))
            grads += 2.0 * weight_decay * work.params     # bias-free: every parameter is a weight
            nd.adam_step(adam, work.params, grads)
        loss_curve.append(epoch_loss / n)
    net.params[...] = work.params
    return {"layers": net, "center": center, "widths": list(widths), "loss_curve": loss_curve}


def checked_state(state: dict, dim: int) -> dict:
    """A one-class network read from a file; ValueError unless its `layers`
    map (B, dim) inputs to (B, w) outputs for a (w,) `center`."""
    layers, center = state.get("layers"), state.get("center")
    if not (isinstance(layers, nd.LayerStack) and isinstance(center, np.ndarray)
            and center.ndim == 1
            and layers.forward(np.zeros((1, dim))).shape == (1, len(center))):
        raise ValueError(f"deep_svdd state needs layers mapping (B, {dim}) inputs "
                         "to the width of a 1-D center")
    return state


def score_deep_svdd(state: dict, x: np.ndarray) -> np.ndarray:
    diff = state["layers"].forward(x) - state["center"]
    return (diff * diff).sum(axis=1)
