"""Robust location/scatter envelope via a FastMCD-style search.

The input is first reduced to its top principal components (at most
PCA_DIMS); the fitted state keeps that basis and mean, and scoring
applies the same projection. `pca.top_eigh` computes only the kept
components, by block subspace iteration from a start block of its own
fixed seed, so `rng` feeds the random starts alone. On the reduced data
it finds the h-point subset whose covariance has (approximately) minimum
determinant, with h = floor((n + d + 1) / 2): many random (d+1)-point
starts, two concentration steps each, then the best few iterated to
convergence. Scores are Mahalanobis distances under the robust (mu, Sigma).
"""

from __future__ import annotations

import numpy as np

from .pca import pca_fit, pca_transform

PCA_DIMS = 32     # at most this many principal components are kept
N_STARTS = 30     # random (d+1)-point starts


def _mean_cov(x: np.ndarray):
    mu = x.mean(axis=0)
    centered = x - mu
    cov = centered.T @ centered / len(x)
    return mu, cov


def _mahalanobis_sq(x: np.ndarray, mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    ridge = 0.0
    while True:
        try:
            inv = np.linalg.inv(cov + ridge * np.eye(d))
            break
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10, 1e-10)
    centered = x - mu
    return ((centered @ inv) * centered).sum(axis=1)


def _log_det(cov: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(cov)
    return logdet if sign > 0 else np.inf


def _c_step(x: np.ndarray, mu: np.ndarray, cov: np.ndarray, h: int):
    d2 = _mahalanobis_sq(x, mu, cov)
    subset = np.argsort(d2, kind="stable")[:h]
    mu, cov = _mean_cov(x[subset])
    return mu, cov, subset


def fit_ee(x: np.ndarray, pca_dims: int, n_starts: int, rng) -> dict:
    basis, mean = pca_fit(x, min(pca_dims, x.shape[1]))
    x = pca_transform(x, basis, mean)
    n, d = x.shape
    h = min(max(int(np.floor((n + d + 1) / 2)), d + 1), n)

    candidates = []
    for _ in range(n_starts):
        seed_idx = rng.choice(n, size=d + 1, replace=False)
        mu, cov = _mean_cov(x[seed_idx])
        for _ in range(2):
            mu, cov, subset = _c_step(x, mu, cov, h)
        candidates.append((_log_det(cov), mu, cov))
    candidates.sort(key=lambda t: t[0])

    best_logdet, best_mu, best_cov = np.inf, None, None
    for logdet, mu, cov in candidates[:max(1, n_starts // 3)]:
        for _ in range(100):
            new_mu, new_cov, subset = _c_step(x, mu, cov, h)
            new_logdet = _log_det(new_cov)
            if new_logdet >= logdet - 1e-12:
                break
            mu, cov, logdet = new_mu, new_cov, new_logdet
        if logdet < best_logdet:
            best_logdet, best_mu, best_cov = logdet, mu, cov

    cov = (best_cov + best_cov.T) / 2.0   # exact symmetry for PSD checks
    return {"pca_basis": basis, "pca_mean": mean, "mu": best_mu, "cov": cov}


def score_ee(state: dict, x: np.ndarray) -> np.ndarray:
    x = pca_transform(x, state["pca_basis"], state["pca_mean"])
    return np.sqrt(np.maximum(_mahalanobis_sq(x, state["mu"], state["cov"]), 0.0))
