"""Multivariate dynamic time warping.

Dependent DTW: one alignment over the full feature vector with Euclidean
local cost. Used as the hyperparameter-search objective and as one
component of the baseline anomaly score. `dtw_bruteforce` enumerates every
monotone alignment path and exists purely as a test oracle.

`dtw_batch` is the one dynamic program: it walks the anti-diagonals of the
(Na+1, Nb+1) recurrence once for a whole batch of pairs, keeping only three
rolling (B, Na+1) diagonals. Each step reads `a[:, lo-1:hi]` and a reversed
view of `b` as slices (views, no gathered copies), so working memory is
O(B·N·F) rather than the O(B·Na·Nb) of a full cost matrix. The local cost is
the direct difference norm; the gram expansion |a|²+|b|²-2ab would lose
~1e-8 near zero. One pair is the batch `a[None], b[None]`.
"""

from __future__ import annotations

import numpy as np


def _validate_pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("series must be (N, F) arrays")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("empty series")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature counts differ: {a.shape[1]} vs {b.shape[1]}")
    return a, b


def first_nonfinite(x: np.ndarray) -> int | None:
    """Index along axis 0 of the first entry holding a NaN or Inf, else None."""
    bad = ~np.isfinite(x.reshape(len(x), -1)).all(axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def dtw_batch(a, b) -> np.ndarray:
    """D(Na, Nb) of the dependent-DTW recurrence for each pair a[k], b[k].

    a is (B, Na, F), b is (B, Nb, F); returns (B,). D(i,j) = d(a_i, b_j) +
    min(D(i-1,j), D(i,j-1), D(i-1,j-1)), swept one anti-diagonal s = i + j
    at a time for the whole batch. Raises ValueError naming the first pair
    with a NaN or Inf, which would otherwise come out as a NaN distance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("batches must be (B, N, F) arrays")
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"batch sizes differ: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[1] == 0 or b.shape[1] == 0:
        raise ValueError("empty series")
    if a.shape[2] != b.shape[2]:
        raise ValueError(f"feature counts differ: {a.shape[2]} vs {b.shape[2]}")
    for name, x in (("a", a), ("b", b)):
        bad = first_nonfinite(x)
        if bad is not None:
            raise ValueError(f"{name}[{bad}] contains NaN/Inf")

    n_pairs, na, nb = a.shape[0], a.shape[1], b.shape[1]
    b_rev = b[:, ::-1]               # b_rev[:, nb - j] is b[:, j - 1]
    # diagonal s holds D(i, s - i) at column i; s = 0 and s = 1 seed the sweep
    prev2 = np.full((n_pairs, na + 1), np.inf)
    prev2[:, 0] = 0.0
    prev1 = np.full((n_pairs, na + 1), np.inf)
    cur = np.full((n_pairs, na + 1), np.inf)
    for s in range(2, na + nb + 1):
        lo = max(1, s - nb)
        hi = min(na, s - 1)
        diff = a[:, lo - 1:hi] - b_rev[:, nb - s + lo:nb - s + hi + 1]
        cost = np.sqrt(np.maximum((diff ** 2).sum(axis=-1), 0.0))
        cur.fill(np.inf)
        cur[:, lo:hi + 1] = cost + np.minimum(
            prev1[:, lo - 1:hi], np.minimum(prev1[:, lo:hi + 1], prev2[:, lo - 1:hi]))
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[:, na].copy()


def dtw_bruteforce(a, b) -> float:
    """Minimum total cost over an exhaustive enumeration of monotone paths.

    Exponential; refuses pairs with Na*Nb > 64. Oracle only.
    """
    a, b = _validate_pair(a, b)
    na, nb = a.shape[0], b.shape[0]
    if na * nb > 64:
        raise ValueError(f"bruteforce limited to Na*Nb <= 64, got {na * nb}")
    cost = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))   # (Na, Nb)

    best = np.inf
    # iterative DFS over (i, j, accumulated cost); moves: right, down, diagonal
    stack = [(0, 0, cost[0, 0])]
    while stack:
        i, j, acc = stack.pop()
        if i == na - 1 and j == nb - 1:
            if acc < best:
                best = acc
            continue
        if i + 1 < na:
            stack.append((i + 1, j, acc + cost[i + 1, j]))
        if j + 1 < nb:
            stack.append((i, j + 1, acc + cost[i, j + 1]))
        if i + 1 < na and j + 1 < nb:
            stack.append((i + 1, j + 1, acc + cost[i + 1, j + 1]))
    return float(best)
