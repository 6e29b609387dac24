"""Five one-class detectors behind a uniform fit/score/threshold contract.

All detectors consume z-standardized embeddings (per-dimension training
statistics, stored with the model, which must be finite and as wide as
what is scored); EE reduces them by PCA inside its own fit and score.
Every fit setting is a constant in its detector's module (iforest.TREES,
lof.K, ocsvm.NU, ...); `DetectorConfig` holds only what `fit-detector`
sets. Scores are oriented so that higher means more anomalous. The
threshold rule is written once, here: `checked_quantile` admits a
quantile q in (0, 1), `fitted_threshold` is the q-quantile of a method's
fit-time scores, and a window scoring strictly above it is anomalous. The
reconstruction baseline is a sixth kind, `BASELINE`, first in `SPECS`
(the report's method order) but not in `KINDS`: it fits nothing and
scores a window by the sum of its standardized (MSE, MAE, DTW)
components, so `fit` and `score_many` run the same standardize, score and
threshold path for all six methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, NamedTuple

import numpy as np

from ..dtw import first_nonfinite
from ..rng import derive_seed, make_rng
from . import deepsvdd, ee, iforest, lof, ocsvm
from .deepsvdd import fit_deep_svdd, score_deep_svdd
from .ee import fit_ee, score_ee
from .iforest import average_path_length, fit_iforest, score_iforest
from .lof import fit_lof, score_lof
from .ocsvm import default_gamma, fit_ocsvm, rbf_kernel, score_ocsvm


class Kind(NamedTuple):
    """How one detector kind fits and scores, and the form of each state entry
    its file stores, in the form language of `persist._read` (`"dim"` is the
    scaler width; `persist.FORMS` holds the forms of every file's fields).
    `check` takes a state read from a file and the sizes its names took, and
    checks what no form can say."""

    fit: Callable            # (z, seed) -> state
    score: Callable          # (state, z) -> scores, higher = more anomalous
    stored: dict             # {entry: form} of the state a detector file holds
    check: Callable = lambda state, sizes: state   # (state, sizes) -> state read from a file
    train_scores: Callable | None = None   # (state, z) -> scores; None: score(state, z)


def _require(state: dict, ok: bool, kind: str, key: str, want: str) -> dict:
    """`state`; a ValueError naming its entry `key` unless `ok`."""
    if not ok:
        raise ValueError(f"{kind} {key} is out of range (want {want})")
    return state


# The fit entries look `fit_<kind>` up in this module when called, so a
# wrapper later bound to that name (a profiler's, say) sees every fit.
# `stored` is what scoring and `check` read, plus the `iterations` and
# `loss_curve` diagnostics.
KINDS = {
    "iforest": Kind(
        lambda z, seed: fit_iforest(z, iforest.TREES, iforest.SUBSAMPLE, make_rng(seed)),
        score_iforest, {"feature": ("nodes",), "value": ("nodes",), "subsample": int},
        iforest.checked_state),
    "lof": Kind(
        lambda z, seed: fit_lof(z, lof.K), score_lof,
        {"x": ("n", "dim"), "k": int, "kdist": ("n",), "lrd": ("n",)},
        lambda state, sizes: _require(state, 1 <= state["k"] < sizes["n"], "lof", "k",
                                      "k in [1, n)"),
        train_scores=lambda state, z: state["train_lof"]),
    "ocsvm": Kind(
        lambda z, seed: fit_ocsvm(z, ocsvm.NU), score_ocsvm,
        {"sv": ("s", "dim"), "alpha": ("s",), "rho": float, "gamma": float, "iterations": int},
        lambda state, sizes: _require(state, state["gamma"] > 0, "ocsvm", "gamma",
                                      "gamma > 0")),
    "ee": Kind(
        lambda z, seed: fit_ee(z, ee.PCA_DIMS, ee.N_STARTS, make_rng(seed)), score_ee,
        {"pca_basis": ("dim", "k"), "pca_mean": ("dim",), "mu": ("k",), "cov": ("k", "k")}),
    "deep_svdd": Kind(
        lambda z, seed: fit_deep_svdd(z, deepsvdd.WIDTHS, deepsvdd.EPOCHS, deepsvdd.BATCH,
                                      deepsvdd.LR, deepsvdd.WEIGHT_DECAY, seed),
        score_deep_svdd, {"layers": ("params",), "center": ("out",), "loss_curve": [float]},
        deepsvdd.checked_state),
}

# The baseline's "embedding" is a window's three reconstruction components.
BASELINE = "recon_ae"
SPECS = {BASELINE: Kind(lambda z, seed: {}, lambda state, z: z.sum(axis=1), {}), **KINDS}

__all__ = [
    "KINDS", "BASELINE", "SPECS", "DetectorConfig", "DetectorModel", "fit", "score_many",
    "checked_quantile", "fitted_threshold", "average_path_length", "fit_deep_svdd",
    "default_gamma", "rbf_kernel",
]


def checked_quantile(q: float) -> float:
    """q; a ValueError unless it lies in (0, 1), as every threshold quantile must."""
    if not 0 < q < 1:
        raise ValueError("threshold quantile must be in (0, 1)")
    return q


def fitted_threshold(fit_scores: np.ndarray, q: float) -> float:
    """Every method's decision threshold: the q-quantile of its fit-time scores.
    A window scoring strictly above it is anomalous."""
    return float(np.quantile(fit_scores, checked_quantile(q)))


@dataclass(frozen=True)
class DetectorConfig:
    """What `fit-detector` sets: the threshold quantile and the master seed."""

    threshold_quantile: float = 0.99
    seed: int = 0

    def __post_init__(self):
        checked_quantile(self.threshold_quantile)


@dataclass
class DetectorModel:
    kind: str
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    state: dict
    threshold: float
    config: DetectorConfig = field(default_factory=DetectorConfig)

    def __post_init__(self):
        if self.kind not in SPECS:
            raise ValueError(f"unknown detector kind {self.kind!r}")


def _finite_rows(x: np.ndarray) -> np.ndarray:
    """x unchanged; a NaN/Inf row raises instead of scoring NaN or "normal"."""
    bad = first_nonfinite(x)
    if bad is not None:
        raise ValueError(f"embedding row {bad} contains NaN/Inf")
    return x


def _transform(model: DetectorModel, x: np.ndarray) -> np.ndarray:
    x = _finite_rows(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    if x.shape[1] != model.scaler_mean.size:   # a (1,) scaler would broadcast silently
        raise ValueError(f"{model.kind} input is {x.shape}, its scaler {model.scaler_mean.shape}")
    z = x - model.scaler_mean
    z /= model.scaler_std                   # bitwise (x - mean) / std, one temporary
    return z


def fit(kinds: Collection[str], x: np.ndarray,
        cfg: DetectorConfig = DetectorConfig()) -> dict[str, DetectorModel]:
    """{kind: DetectorModel} for each of `kinds` (SPECS keys), fitted on the
    same training (assumed-normal) embeddings `x` (n, d); the baseline's
    `x` is the (n, 3) reconstruction components of its training windows.

    `fit` takes `x` over rather than copy it: it standardizes the array in
    place, marks it read-only and fits every kind on it, and LOF stores it
    as its `x`. A caller that needs its embeddings afterwards passes a copy.
    Only an `x` that is not a writeable float64 array is copied first. A fit
    that writes into the read-only array raises instead of changing what
    the other kinds see.
    """
    for kind in kinds:
        if kind not in SPECS:
            raise ValueError(f"unknown detector kind {kind!r}")
    x = np.require(x, np.float64, "W")
    if x.ndim != 2 or not x.size:
        raise ValueError(f"training data must be a non-empty (n, d) array, not {x.shape}")
    _finite_rows(x)

    with np.errstate(over="ignore"):        # an overflow raises below, by feature
        mean, std = x.mean(axis=0), x.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:                            # else every standardized value would be 0
        raise ValueError(f"feature {bad[0]}: training mean or std is not finite")
    std = np.maximum(std, 1e-12)
    x -= mean
    x /= std                                # bitwise (x - mean) / std
    x.flags.writeable = False

    fitted = {}
    for kind in kinds:
        spec = SPECS[kind]
        state = spec.fit(x, derive_seed(cfg.seed, f"detector/{kind}"))
        train_scores = np.asarray((spec.train_scores or spec.score)(state, x), dtype=np.float64)
        threshold = fitted_threshold(train_scores, cfg.threshold_quantile)
        fitted[kind] = DetectorModel(kind, mean, std, state, threshold, cfg)
    return fitted


def score_many(model: DetectorModel, x: np.ndarray) -> np.ndarray:
    """(n,) anomaly scores of the (n, d) embeddings `x`; higher = more anomalous."""
    return SPECS[model.kind].score(model.state, _transform(model, x))
