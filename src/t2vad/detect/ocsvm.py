"""One-class SVM trained by SMO-style two-coordinate ascent.

Dual problem (RBF kernel K):

    minimize   1/2 a' K a
    subject to 0 <= a_i <= 1/(nu n),  sum a_i = 1

Each iteration picks the max-violating pair under the KKT conditions and
moves mass between the two coordinates; feasibility is preserved by
construction, so the box and simplex constraints hold at any stopping
point. The decision offset rho is the average gradient over free support
vectors, and the anomaly score of x is rho - sum_i a_i k(x_i, x). The
kernel width is `default_gamma` of the training data; the ascent stops at
a KKT violation of at most TOL or after MAX_PASSES pair updates. The
kernel matrix is built in place in the one distance matrix, so a fit
holds one (n, n) array.
"""

from __future__ import annotations

import numpy as np

from .lof import BLOCK, _cross_distances

NU = 0.05      # upper bound on the training outlier fraction
TOL = 1e-4
MAX_PASSES = 10_000


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp((-gamma * d) * d) of the distance matrix d, computed in place in d,
    BLOCK rows at a time."""
    d = _cross_distances(a, b)
    for start in range(0, len(d), BLOCK):
        rows = d[start:start + BLOCK]
        np.multiply(-gamma * rows, rows, out=rows)
    return np.exp(d, out=d)


def default_gamma(x: np.ndarray) -> float:
    """1 / (d * var) with var taken over all entries."""
    var = float(x.var())
    return 1.0 / (x.shape[1] * max(var, 1e-12))


def fit_ocsvm(x: np.ndarray, nu: float) -> dict:
    if not 0 < nu < 1:
        raise ValueError(f"nu must be in (0, 1), got {nu}")
    n = len(x)
    gamma = default_gamma(x)
    c = 1.0 / (nu * n)
    k = rbf_kernel(x, x, gamma)

    # feasible start: fill coordinates up to the box until the simplex is met
    alpha = np.zeros(n)
    remaining = 1.0
    i = 0
    while remaining > 1e-15 and i < n:
        alpha[i] = min(c, remaining)
        remaining -= alpha[i]
        i += 1
    grad = k @ alpha
    eps = 1e-12

    iterations = 0
    while iterations < MAX_PASSES:
        can_up = alpha < c - eps
        can_down = alpha > eps
        if not can_up.any() or not can_down.any():
            break
        i = int(np.flatnonzero(can_up)[np.argmin(grad[can_up])])
        j = int(np.flatnonzero(can_down)[np.argmax(grad[can_down])])
        violation = grad[j] - grad[i]
        if violation <= TOL:
            break
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        delta = violation / max(eta, 1e-12)
        delta = min(delta, c - alpha[i], alpha[j])
        alpha[i] += delta
        alpha[j] -= delta
        grad += delta * (k[:, i] - k[:, j])
        iterations += 1

    free = (alpha > eps) & (alpha < c - eps)
    if free.any():
        rho = float(grad[free].mean())
    elif (alpha > eps).any() and (alpha < c - eps).any():
        rho = float((grad[alpha > eps].max() + grad[alpha < c - eps].min()) / 2.0)
    else:
        rho = float(grad.mean())

    support = alpha > eps
    return {
        "sv": x[support].copy(),
        "alpha": alpha[support].copy(),
        "rho": rho,
        "gamma": gamma,
        "iterations": iterations,
    }


def score_ocsvm(state: dict, x: np.ndarray) -> np.ndarray:
    k = rbf_kernel(x, state["sv"], state["gamma"])
    return state["rho"] - k @ state["alpha"]
