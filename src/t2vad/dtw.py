"""Multivariate dynamic time warping.

Dependent DTW: one alignment over the full feature vector with Euclidean
local cost. Used as the hyperparameter-search objective and as one
component of the baseline anomaly score. `dtw_bruteforce` enumerates every
monotone alignment path and exists purely as a test oracle.

`dtw_batch` is the one dynamic program. It walks the anti-diagonals s = i + j
of the (Na+1, Nb+1) recurrence for a block of BLOCK_PAIRS pairs at once, in
a batch-innermost layout: `a` as (F, Na, B) and time-reversed `b` as
(F, Nb, B), so the cells (i, s - i) of every pair in the block are one
contiguous (L, B) slice of each. Each diagonal's local costs are formed on
the fly from those slices, and the step is two `np.minimum` calls and one
`np.add` into three rolling (Na+1, B) diagonals. No (B, Na, Nb) cost matrix
is built: the sweep's working memory is O(BLOCK_PAIRS·(Na+Nb)·F), about
1.7 MB for (100, 6) windows, whatever the batch size. The local cost is the
direct difference norm; the gram expansion |a|²+|b|²-2ab would lose ~1e-8
near zero. Its squares are added feature by feature in index order, which is
numpy's `sum(axis=-1)` order for F ≤ 7 (numpy 2.4), so distances are
bitwise those of a sweep that sums each diagonal's squared differences
with `sum(axis=-1)`; from F = 8 on numpy sums pairwise and the two differ
in the last bits. One pair is the batch `a[None], b[None]`.
"""

from __future__ import annotations

import numpy as np

BLOCK_PAIRS = 128   # pairs per sweep: bounds the working memory, not the batch


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
    bad = ~np.isfinite(x).all(axis=tuple(range(1, x.ndim)))
    return int(np.argmax(bad)) if bad.any() else None


def dtw_batch(a, b) -> np.ndarray:
    """D(Na, Nb) of the dependent-DTW recurrence for each pair a[k], b[k].

    a is (B, Na, F), b is (B, Nb, F); returns (B,). D(i,j) = d(a_i, b_j) +
    min(D(i-1,j), D(i,j-1), D(i-1,j-1)), swept one anti-diagonal s = i + j
    at a time for BLOCK_PAIRS pairs at once. Inputs of any dtype, order or
    strides are read as float64. Raises ValueError naming the first pair
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

    out = np.empty(a.shape[0])
    for k in range(0, len(out), BLOCK_PAIRS):
        out[k:k + BLOCK_PAIRS] = _sweep(a[k:k + BLOCK_PAIRS], b[k:k + BLOCK_PAIRS])
    return out


def _sweep(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dtw_batch of one block of validated float64 pairs."""
    n_pairs, na, nb = a.shape[0], a.shape[1], b.shape[1]
    at = np.ascontiguousarray(a.transpose(2, 1, 0))           # (F, Na, B)
    bt = np.ascontiguousarray(b[:, ::-1].transpose(2, 1, 0))  # (F, Nb, B), b_j at row nb-1-j
    cost = np.empty((min(na, nb), n_pairs))
    tmp = np.empty_like(cost)
    # diagonal s holds D(i, s - i) at row i; s = 0 and s = 1 seed the sweep.
    # A step writes only rows lo..hi. The only rows outside that range a later
    # step reads are row 0 (D(0, s)) and row s (D(s, 0)) of diagonal s, which
    # no step writes, so they stay inf once D(0, 0) has seeded D(1, 1).
    prev2, prev1, cur = np.full((3, na + 1, n_pairs), np.inf)
    prev2[0] = 0.0
    for s in range(2, na + nb + 1):
        lo = max(1, s - nb)
        hi = min(na, s - 1)
        rows = hi - lo + 1
        ai, bi = slice(lo - 1, hi), slice(nb - s + lo, nb - s + hi + 1)   # a_{i-1}, b_{s-i-1}
        c, t = cost[:rows], tmp[:rows]
        np.subtract(at[0, ai], bt[0, bi], out=c)
        np.multiply(c, c, out=c)
        for f in range(1, at.shape[0]):
            np.subtract(at[f, ai], bt[f, bi], out=t)
            np.multiply(t, t, out=t)
            np.add(c, t, out=c)
        np.sqrt(c, out=c)
        out = cur[lo:hi + 1]
        np.minimum(prev1[lo:hi + 1], prev2[lo - 1:hi], out=out)
        np.minimum(prev1[lo - 1:hi], out, out=out)
        np.add(c, out, out=out)
        if s == 2:
            prev2[0] = np.inf
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[na]


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
