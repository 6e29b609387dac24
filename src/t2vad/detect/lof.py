"""Local outlier factor with exact k-nearest neighbors.

LOF near 1 means the point sits at the local density of its neighbors;
larger values mean locally sparser than the neighborhood. Query points are
scored against the fitted training set (novelty style).

The one (n, m) distance matrix is the only full-size array a fit or a score
builds: the row norms are squared and the gram expansion is finished in
place, BLOCK rows at a time, and each row's k nearest neighbors are picked
one block of rows at a time, by partition rather than a full sort.
"""

from __future__ import annotations

import numpy as np

K = 20                  # neighbors per point
BLOCK = 256             # rows per block of in-place arithmetic and neighbor selection


def _row_norms(a: np.ndarray) -> np.ndarray:
    """(a * a).sum(axis=1), bitwise, squaring BLOCK rows at a time."""
    out = np.empty(len(a))
    for start in range(0, len(a), BLOCK):
        rows = a[start:start + BLOCK]
        out[start:start + BLOCK] = (rows * rows).sum(axis=1)
    return out


def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix (len(a), len(b)) via the gram expansion
    (aa + bb) - 2ab, finished in place in the one `a @ b.T` product; the
    row norms are taken once when `b is a`."""
    aa = _row_norms(a)[:, None]
    bb = aa.T if b is a else _row_norms(b)[None, :]
    d = a @ b.T
    for start in range(0, len(d), BLOCK):
        rows = d[start:start + BLOCK]
        np.multiply(rows, 2.0, out=rows)
        np.subtract(aa[start:start + BLOCK] + bb, rows, out=rows)
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


def _nearest(d: np.ndarray, k: int) -> np.ndarray:
    """(len(d), k) column indices: each row's first k in a stable argsort.

    Per block of rows: the k-th smallest value by `np.partition`, then a
    stable sort of only the columns at or below it, in index order. Every
    column left out lies above the k-th value, so ties fall as in the full
    stable sort.
    """
    out = np.empty((len(d), k), dtype=np.intp)
    for start in range(0, len(d), BLOCK):
        block = d[start:start + BLOCK]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1:k]
        rows, cols = np.nonzero(block <= kth)             # row-major: cols in index order
        order = np.lexsort((block[rows, cols], rows))     # stable: by row, then by value
        first = np.searchsorted(rows, np.arange(len(block)))
        out[start:start + len(block)] = cols[order][first[:, None] + np.arange(k)]
    return out


def fit_lof(x: np.ndarray, k: int) -> dict:
    n = len(x)
    if n <= k:
        raise ValueError(f"LOF needs more than k={k} training points, got {n}")
    d = _cross_distances(x, x)
    np.fill_diagonal(d, np.inf)
    neighbors = _nearest(d, k)                     # (n, k)
    kdist = np.take_along_axis(d, neighbors[:, k - 1:k], axis=1)[:, 0]
    reach = np.maximum(kdist[neighbors], np.take_along_axis(d, neighbors, axis=1))
    lrd = 1.0 / np.maximum(reach.mean(axis=1), 1e-10)
    train_lof = lrd[neighbors].mean(axis=1) / lrd
    return {"x": x, "k": k, "kdist": kdist, "lrd": lrd, "train_lof": train_lof}


def score_lof(state: dict, x: np.ndarray) -> np.ndarray:
    k = state["k"]
    d = _cross_distances(x, state["x"])
    neighbors = _nearest(d, k)
    reach = np.maximum(state["kdist"][neighbors], np.take_along_axis(d, neighbors, axis=1))
    lrd_q = 1.0 / np.maximum(reach.mean(axis=1), 1e-10)
    return state["lrd"][neighbors].mean(axis=1) / lrd_q
