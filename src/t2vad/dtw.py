"""Multivariate dynamic time warping.

Dependent DTW: one alignment over the full feature vector with Euclidean
local cost. Used as the hyperparameter-search objective and as one
component of the baseline anomaly score. `dtw_bruteforce` enumerates every
monotone alignment path and exists purely as a test oracle.

`dtw_batch` is the one dynamic program. It computes the (B, Na, Nb)
local-cost matrix of a batch of pairs once (`local_cost`), then walks the
anti-diagonals of the (Na+1, Nb+1) recurrence for all pairs at once, keeping
three rolling (B, Na+1) diagonals. Each step reads its diagonal of the cost
matrix as a strided view (step Nb-1 of the flattened pair) and is two
`np.minimum` calls and one `np.add`. Working memory is O(B·Na·Nb): about
5 MB for 64 pairs of (100, 6) windows. The local cost is the direct
difference norm; the gram expansion |a|²+|b|²-2ab would lose ~1e-8 near
zero. Its squares are added feature by feature in index order, which is
numpy's `sum(axis=-1)` order for F ≤ 7 (numpy 2.4), so distances are
bitwise those of a sweep that sums each diagonal's squared differences
with `sum(axis=-1)`; from F = 8 on numpy sums pairwise and the two differ
in the last bits. One pair is the batch `a[None], b[None]`.
"""

from __future__ import annotations

import numpy as np

_SCRATCH_CELLS = 1 << 16    # cells of local_cost's per-block difference buffer


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
    cost = local_cost(a, b).reshape(n_pairs, na * nb)
    step = max(nb - 1, 1)            # cell (i-1, j-1) of a diagonal is flat i*(nb-1) + s-nb-1
    # diagonal s holds D(i, s - i) at column i; s = 0 and s = 1 seed the sweep
    prev2 = np.full((n_pairs, na + 1), np.inf)
    prev2[:, 0] = 0.0
    prev1 = np.full((n_pairs, na + 1), np.inf)
    cur = np.full((n_pairs, na + 1), np.inf)
    for s in range(2, na + nb + 1):
        lo = max(1, s - nb)
        hi = min(na, s - 1)
        first = lo * (nb - 1) + s - nb - 1
        out = cur[:, lo:hi + 1]
        cur.fill(np.inf)
        np.minimum(prev1[:, lo:hi + 1], prev2[:, lo - 1:hi], out=out)
        np.minimum(prev1[:, lo - 1:hi], out, out=out)
        np.add(cost[:, first:first + (hi - lo) * step + 1:step], out, out=out)
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[:, na].copy()


def local_cost(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(B, Na, Nb) Euclidean distances |a[k, i] - b[k, j]| of two float64 batches.

    The squares are added one feature at a time in index order, the order in
    which numpy's `sum(axis=-1)` adds fewer than 8 terms, through a scratch
    buffer of about _SCRATCH_CELLS cells.
    """
    n_pairs, na, nb = a.shape[0], a.shape[1], b.shape[1]
    cost = np.empty((n_pairs, na, nb))
    block = max(1, _SCRATCH_CELLS // (na * nb))
    scratch = np.empty((min(block, n_pairs), na, nb))
    for k in range(0, n_pairs, block):
        out = cost[k:k + block]
        tmp = scratch[:len(out)]
        for f in range(a.shape[2]):
            np.subtract(a[k:k + block, :, None, f], b[k:k + block, None, :, f], out=tmp)
            if f == 0:
                np.multiply(tmp, tmp, out=out)
            else:
                np.multiply(tmp, tmp, out=tmp)
                out += tmp
    return np.sqrt(cost, out=cost)


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
