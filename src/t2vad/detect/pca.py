"""Principal-component pre-reduction (dimensionality guard for the
robust-covariance detector).

With fewer samples than dimensions (n < d), the basis comes from the n x n
Gram matrix, not the d x d covariance (the method of snapshots, Sirovich
1987): both share their nonzero spectrum, and an eigenvector u of the Gram
matrix maps to the covariance eigenvector Xc' u, normalised. Otherwise the
covariance is eigendecomposed directly.
"""

from __future__ import annotations

import numpy as np


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
        evals, evecs = np.linalg.eigh(centered @ centered.T / (n - 1))
    else:
        evals, evecs = np.linalg.eigh(_covariance(x, mean))
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    scale = max(float(evals[0]), 1.0)
    rank = int(np.sum(evals > 1e-12 * scale))
    if rank < n_dims:
        raise ValueError(f"covariance rank {rank} < requested dims {n_dims}")
    basis = np.ascontiguousarray(evecs[:, order[:n_dims]])
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
