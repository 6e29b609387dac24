"""Principal-component pre-reduction (dimensionality guard for the
robust-covariance detector).

With fewer samples than dimensions (n < d), the basis comes from the n x n
Gram matrix, not the d x d covariance (the method of snapshots, Sirovich
1987): both share their nonzero spectrum, and an eigenvector u of the Gram
matrix maps to the covariance eigenvector Xc' u, normalised. Otherwise it
comes from the d x d covariance.

Either way only the kept eigenpairs are computed. `top_eigh` runs block
subspace iteration with Rayleigh-Ritz (Saad, "Numerical Methods for Large
Eigenvalue Problems", 2011, ch. 5) on BLOCK_EXTRA more columns than it
keeps, each round a Chebyshev filter of degree STEPS (as in Rutishauser's
RITZIT, 1970) and one QR. It holds a few (m, k + BLOCK_EXTRA) blocks where
a full `eigh` holds a copy of the matrix, its LAPACK workspace and all m
eigenvectors. A block that stops converging grows, up to the whole
matrix, where Rayleigh-Ritz is a full `eigh` and exact.
"""

from __future__ import annotations

import numpy as np

from ..rng import make_rng

TOL = 1e-13        # a kept pair is converged when ||A v - theta v|| <= TOL * theta_1
BLOCK_EXTRA = 32   # the block holds k + BLOCK_EXTRA columns
STEPS = 4          # products with A per round: the degree of its Chebyshev filter
STALL = 0.5        # a round that cuts the largest kept residual by less grows the block
START_SEED = 0     # the start block's own generator, so EE's rng draws nothing here


def top_eigh(a: np.ndarray, k: int):
    """(evals, evecs): the k largest eigenpairs of the symmetric PSD (m, m)
    matrix `a`, eigenvalues descending, evecs (m, k) with orthonormal columns.

    The block Q starts from Gaussian columns of a fixed seed. Each round
    takes the Ritz pairs (theta, v) of Q and returns the top k once every
    kept ||A v - theta v|| is at most TOL * theta_1; otherwise Q becomes the
    QR factor of a degree-STEPS Chebyshev polynomial in A applied to Q,
    which damps the eigenvalues in [0, theta_p]. A round that cuts the
    largest kept residual by less than STALL doubles the block and keeps
    the subspace found so far; a block of m columns or more is a full `eigh`.
    """
    m = len(a)
    rng = make_rng(START_SEED)
    p = k + BLOCK_EXTRA
    q = np.empty((m, 0))
    while p < m:
        q, _ = np.linalg.qr(np.hstack([q, rng.standard_normal((m, p - q.shape[1]))]))
        last = np.inf
        while True:
            y = a @ q
            theta, w = np.linalg.eigh(q.T @ y)
            theta, w = theta[::-1], w[:, :-k - 1:-1]      # descending; the top k
            v = q @ w
            residual = np.linalg.norm(y @ w - v * theta[:k], axis=0).max()
            if residual <= TOL * theta[0]:
                return theta[:k], v
            if not residual < STALL * last:
                break
            last = residual
            # y = T_STEPS(L) q, L = (A - half I) / half: the Chebyshev filter
            # of degree STEPS keeps [0, theta_p] within +-1 and grows fastest
            # above it; its three-term recurrence reuses y = A q. The floor
            # keeps half positive where a rank-deficient theta_p rounds to 0
            half = max(theta[-1], TOL * theta[0]) / 2
            prev, y = q, (y - half * q) / half
            for _ in range(STEPS - 1):
                prev, y = y, (a @ y - half * y) / (half / 2) - prev
            q, _ = np.linalg.qr(y)
        p = min(2 * p, m)
    evals, evecs = np.linalg.eigh(a)
    return evals[:-k - 1:-1], evecs[:, :-k - 1:-1]


def pca_fit(x: np.ndarray, n_dims: int):
    """Top-`n_dims` eigenvectors of the sample covariance.

    Returns (basis, mean): basis is (d, n_dims), columns ordered by
    explained variance (descending) with a deterministic sign convention.
    Raises when the covariance rank is below n_dims.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if n <= n_dims:
        raise ValueError(f"need more than {n_dims} samples, got {n}")
    mean = x.mean(axis=0)
    if n < d:
        centered = x - mean
        evals, evecs = top_eigh(centered @ centered.T / (n - 1), n_dims)
    else:
        evals, evecs = top_eigh(_covariance(x, mean), n_dims)
    scale = max(float(evals[0]), 1.0)
    rank = int(np.sum(evals > 1e-12 * scale))   # below n_dims only if the full count is
    if rank < n_dims:
        raise ValueError(f"covariance rank {rank} < requested dims {n_dims}")
    basis = np.ascontiguousarray(evecs)
    if n < d:
        basis = centered.T @ basis
        basis /= np.linalg.norm(basis, axis=0)
    for j in range(n_dims):  # sign convention: dominant entry positive
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis, mean


def _covariance(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """(d, d) `np.cov(x - mean, rowvar=False)` bit for bit, its re-centring
    included, from one centred copy of `x` that is freed on return."""
    centered = x - mean
    centered -= centered.mean(axis=0)
    return centered.T @ centered * (1 / (len(x) - 1))


def pca_transform(x: np.ndarray, basis: np.ndarray, mean: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - mean) @ basis
