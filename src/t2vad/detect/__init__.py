"""Five one-class detectors behind a uniform fit/score/threshold contract.

All detectors consume z-standardized embeddings (per-dimension training
statistics, stored with the model). Scores are oriented so that higher
means more anomalous, and the decision threshold is a quantile of the
training scores, the same rule for every kind, so comparisons between
methods are apples-to-apples. `predict_many` flags strictly
above-threshold scores of an (n, d) batch: True = anomalous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ..dtw import first_nonfinite
from ..rng import derive_seed, make_rng
from .deepsvdd import fit_deep_svdd, score_deep_svdd
from .ee import fit_ee, score_ee
from .iforest import average_path_length, checked_state, fit_iforest, score_iforest
from .lof import fit_lof, score_lof
from .ocsvm import default_gamma, fit_ocsvm, rbf_kernel, score_ocsvm
from .pca import pca_fit, pca_transform


class Kind(NamedTuple):
    """How one detector kind fits, scores and reports its training scores."""

    fit: Callable          # (z, cfg, rng, seed) -> state
    score: Callable        # (state, z) -> scores, higher = more anomalous
    train_scores: Callable | None = None   # (state, z) -> scores; None: score(state, z)
    pca_dims: Callable | None = None       # cfg -> PCA dimensions to reduce to first
    checked_state: Callable | None = None  # (state, dim) -> state read from a file, or ValueError


# The fit entries look `fit_<kind>` up in this module when called, so a
# wrapper later bound to that name (a profiler's, say) sees every fit.
KINDS = {
    "iforest": Kind(
        lambda z, cfg, rng, seed: fit_iforest(z, cfg.iforest_trees, cfg.iforest_subsample, rng),
        score_iforest, checked_state=checked_state),
    "lof": Kind(
        lambda z, cfg, rng, seed: fit_lof(z, cfg.lof_k),
        score_lof, train_scores=lambda state, z: state["train_lof"]),
    "ocsvm": Kind(
        lambda z, cfg, rng, seed: fit_ocsvm(z, cfg.ocsvm_nu, cfg.ocsvm_gamma, cfg.ocsvm_tol,
                                            cfg.ocsvm_max_passes),
        score_ocsvm),
    "ee": Kind(
        lambda z, cfg, rng, seed: fit_ee(z, cfg.ee_support_fraction, cfg.ee_n_starts, rng),
        score_ee, pca_dims=lambda cfg: cfg.ee_pca_dims),
    "deep_svdd": Kind(
        lambda z, cfg, rng, seed: fit_deep_svdd(z, cfg.svdd_widths, cfg.svdd_epochs,
                                                cfg.svdd_batch, cfg.svdd_lr,
                                                cfg.svdd_weight_decay, seed),
        score_deep_svdd),
}

__all__ = [
    "KINDS", "DetectorConfig", "DetectorModel", "fit", "score_many", "predict_many",
    "pca_fit", "pca_transform",
    "average_path_length", "fit_deep_svdd", "default_gamma", "rbf_kernel",
]


@dataclass(frozen=True)
class DetectorConfig:
    iforest_trees: int = 100
    iforest_subsample: int = 256
    lof_k: int = 20
    ocsvm_nu: float = 0.05
    ocsvm_gamma: float | None = None      # None -> 1/(d * var)
    ocsvm_tol: float = 1e-4
    ocsvm_max_passes: int = 10_000
    ee_pca_dims: int = 32
    ee_support_fraction: float | None = None   # None -> ((n+d+1)/2)/n
    ee_n_starts: int = 30
    svdd_widths: tuple[int, ...] = (128, 32)
    svdd_epochs: int = 100
    svdd_batch: int = 64
    svdd_lr: float = 1e-3
    svdd_weight_decay: float = 1e-4
    threshold_quantile: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.ocsvm_nu < 1:
            raise ValueError("nu must be in (0, 1)")
        if not 0 < self.threshold_quantile < 1:
            raise ValueError("threshold quantile must be in (0, 1)")


@dataclass
class DetectorModel:
    kind: str
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    state: dict
    threshold: float
    threshold_quantile: float
    train_scores: np.ndarray
    pca_basis: np.ndarray | None = None
    pca_mean: np.ndarray | None = None
    config: DetectorConfig = field(default_factory=DetectorConfig)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")


def _standardize(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (x - mean) / std


def _finite_rows(x: np.ndarray) -> np.ndarray:
    """x unchanged; a NaN/Inf row raises instead of scoring NaN or "normal"."""
    bad = first_nonfinite(x)
    if bad is not None:
        raise ValueError(f"embedding row {bad} contains NaN/Inf")
    return x


def _transform(model: DetectorModel, x: np.ndarray) -> np.ndarray:
    z = _standardize(_finite_rows(np.atleast_2d(np.asarray(x, dtype=np.float64))),
                     model.scaler_mean, model.scaler_std)
    if model.pca_basis is not None:
        z = pca_transform(z, model.pca_basis, model.pca_mean)
    return z


def fit(kind: str, x: np.ndarray, cfg: DetectorConfig = DetectorConfig()) -> DetectorModel:
    """Fit one detector kind on training (assumed-normal) embeddings."""
    if kind not in KINDS:
        raise ValueError(f"unknown detector kind {kind!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("training data must be (n, d)")
    _finite_rows(x)
    n, d = x.shape
    seed = derive_seed(cfg.seed, f"detector/{kind}")
    rng = make_rng(seed)

    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-12)
    z = _standardize(x, mean, std)

    spec = KINDS[kind]
    pca_basis = pca_mean = None
    if spec.pca_dims is not None:
        pca_basis, pca_mean = pca_fit(z, min(spec.pca_dims(cfg), d))
        z = pca_transform(z, pca_basis, pca_mean)

    state = spec.fit(z, cfg, rng, seed)
    raw = (spec.train_scores or spec.score)(state, z)
    train_scores = np.asarray(raw, dtype=np.float64)
    threshold = float(np.quantile(train_scores, cfg.threshold_quantile))
    return DetectorModel(kind, mean, std, state, threshold, cfg.threshold_quantile,
                         train_scores, pca_basis, pca_mean, cfg, seed)


def score_many(model: DetectorModel, x: np.ndarray) -> np.ndarray:
    """(n,) anomaly scores of the (n, d) embeddings `x`; higher = more anomalous."""
    return KINDS[model.kind].score(model.state, _transform(model, x))


def predict_many(model: DetectorModel, x: np.ndarray) -> np.ndarray:
    """(n,) bool: True where the score strictly exceeds the threshold."""
    return score_many(model, x) > model.threshold

