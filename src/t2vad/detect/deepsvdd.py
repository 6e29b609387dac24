"""One-class network: map training points near a fixed center, score by
squared distance to it.

Feed-forward net of bias-free `nd.Dense` layers (ReLU hidden, linear
output) trained for EPOCHS epochs by the shared minibatch-Adam loop
`ndtensor.train_adam` to minimize mean ||phi(x) - c||^2 plus L2 weight
decay; a non-finite objective raises `TrainingDiverged`. The center is the
mean of the initial float64 forward pass and stays frozen; bias-free
layers rule out the trivial constant-map solution, and a collapse guard
shifts a center that lands on the origin.
The fitted state holds the float64 net, the center and the mean objective
of each epoch (`loss_curve`). A file stores the net as its flat parameter
vector; its kind's `check`, `checked_state`, rebuilds the WIDTHS net and
fills the vector in.

EPOCHS is 30 because at this learning rate Adam turns unstable late in
training. Over 100 epochs the objective rises for whole stretches and ends
1.13-2.28 times its own minimum (default scale, seeds 123, 1, 2, 3); over
30 epochs each of those curves ends at its minimum and is non-increasing
in blocks of 5 epochs. Pooled over those seeds, the 30-epoch net flags
580 of the 592 A-6F anomalies against 516, with 16 clean false alarms
against 18, in 30% of the Adam steps. It also flags more of the
noise-tagged normal windows of AN-6F: 30 of 58 against 14.
"""

from __future__ import annotations

import numpy as np

from .. import ndtensor as nd
from ..rng import make_rng

WIDTHS = (128, 32)     # hidden and output widths of the fitted net
EPOCHS = 30
BATCH = 64
LR = 1e-3
WEIGHT_DECAY = 1e-4


def build_network(d_in: int, widths, rng) -> nd.LayerStack:
    layers: list[nd.Layer] = []
    dims = [d_in, *widths]
    for i in range(len(dims) - 1):
        layers.append(nd.Dense(dims[i], dims[i + 1], rng=rng))
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
    net = build_network(d, widths, make_rng(seed))

    center = net.forward(x).mean(axis=0)
    if float(np.linalg.norm(center)) < 1e-6:
        center = center + 0.1     # collapse guard: keep the target off the origin

    center32 = center.astype(np.float32)

    def objective(y, xb):      # the batch objective times the batch size, and its gradient
        diff = y - center32
        return float((diff * diff).sum()), 2.0 * diff / len(xb)

    # bias-free: every parameter is a weight, so weight decay covers them all
    loss_curve = nd.train_adam(net, x, objective, epochs, batch, lr, make_rng(seed + 1),
                               weight_decay)
    return {"layers": net, "center": center, "loss_curve": loss_curve}


def checked_state(state: dict, sizes: dict) -> dict:
    """A one-class network read from a file: `state` with its `layers`, the
    parameter vector of `build_network(dim, WIDTHS)`, filled into that net.
    ValueError unless the vector fits the net and `center` is (WIDTHS[-1],)."""
    net = build_network(sizes["dim"], WIDTHS, None)
    if (sizes["params"], sizes["out"]) != (net.params.size, WIDTHS[-1]):
        raise ValueError(f"deep_svdd state needs the {net.params.size} parameters of a "
                         f"{sizes['dim']} -> {' -> '.join(map(str, WIDTHS))} net and a "
                         f"({WIDTHS[-1]},) center")
    net.params[...] = state["layers"]
    return {**state, "layers": net}


def score_deep_svdd(state: dict, x: np.ndarray) -> np.ndarray:
    diff = state["layers"].forward(x) - state["center"]
    return (diff * diff).sum(axis=1)
