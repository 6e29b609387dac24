"""Local outlier factor with exact k-nearest neighbors.

LOF near 1 means the point sits at the local density of its neighbors;
larger values mean locally sparser than the neighborhood. Query points are
scored against the fitted training set (novelty style).
"""

from __future__ import annotations

import numpy as np

K = 20                  # neighbors per point


def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix (len(a), len(b)) via the gram expansion."""
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.sqrt(np.maximum(d2, 0.0))


def fit_lof(x: np.ndarray, k: int) -> dict:
    n = len(x)
    if n <= k:
        raise ValueError(f"LOF needs more than k={k} training points, got {n}")
    d = _cross_distances(x, x)
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")
    neighbors = order[:, :k]                       # (n, k)
    kdist = np.take_along_axis(d, order[:, k - 1:k], axis=1)[:, 0]
    reach = np.maximum(kdist[neighbors], np.take_along_axis(d, neighbors, axis=1))
    lrd = 1.0 / np.maximum(reach.mean(axis=1), 1e-10)
    train_lof = lrd[neighbors].mean(axis=1) / lrd
    return {"x": x, "k": k, "kdist": kdist, "lrd": lrd, "train_lof": train_lof}


def checked_state(state: dict, dim: int) -> dict:
    """A LOF model read from a file; ValueError unless it holds n training
    rows `x` (n, dim), their (n,) k-distances `kdist` and densities `lrd`,
    and an integer k in [1, n)."""
    x = state.get("x")
    n = len(x) if isinstance(x, np.ndarray) and x.ndim == 2 else -1
    shapes = {"x": (n, dim), "kdist": (n,), "lrd": (n,)}
    bad = [key for key, shape in shapes.items()
           if not (isinstance(state.get(key), np.ndarray) and state[key].shape == shape)]
    k = state.get("k")
    if not (type(k) is int and 1 <= k < n):
        bad.append("k")
    if bad:
        raise ValueError(f"lof state entries {bad} are missing or misshapen "
                         f"(want x (n, {dim}), kdist (n,), lrd (n,), k in [1, n))")
    return state


def score_lof(state: dict, x: np.ndarray) -> np.ndarray:
    k = state["k"]
    d = _cross_distances(x, state["x"])
    order = np.argsort(d, axis=1, kind="stable")
    neighbors = order[:, :k]
    reach = np.maximum(state["kdist"][neighbors], np.take_along_axis(d, neighbors, axis=1))
    lrd_q = 1.0 / np.maximum(reach.mean(axis=1), 1e-10)
    return state["lrd"][neighbors].mean(axis=1) / lrd_q
