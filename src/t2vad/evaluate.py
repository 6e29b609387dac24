"""Confusion-matrix metrics and the benchmark report.

Compares the baseline composite-reconstruction detector against the
embedding path (each one-class detector on top of the embedding AE) over
the four evaluation sets. Anomalous is the positive class: True where a
window's tags make it anomalous, and where a score is above its method's
threshold. The report is a pure function of its inputs: same suite,
models, detectors and config give an identical report. `score_table`
scores the suite's windows once, each window once, into one (methods x
windows) table; `run_benchmark` reads every confusion cell from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import detect
from .autoenc import TrainedModel, embed_many, score_components_many
from .inject import TestSuite
from .pipeline import NOISE_TAGS, WindowSet

METHODS = tuple(kind if kind == detect.BASELINE else f"t2v_{kind}" for kind in detect.SPECS)


@dataclass(frozen=True)
class Confusion:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be >= 0")


@dataclass
class EvalReport:
    """Per (method, test set) precision/recall/F1 plus provenance."""

    results: dict[str, dict[str, dict]]
    composition: dict[str, dict]
    config_digest: str = ""
    seeds: dict = field(default_factory=dict)
    timestamp: str | None = None   # None by default: reruns must be byte-identical


def confusion(preds, labels) -> Confusion:
    """Tally boolean predictions against boolean labels; True = anomalous."""
    p = np.asarray(preds, dtype=bool)
    t = np.asarray(labels, dtype=bool)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {len(p)} preds vs {len(t)} labels")
    return Confusion(int(np.sum(p & t)), int(np.sum(p & ~t)), int(np.sum(~p & ~t)),
                     int(np.sum(~p & t)))


def prf1(c: Confusion) -> tuple[float, float, float]:
    """(precision, recall, f1); any 0/0 is 0 by convention."""
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) else 0.0
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return precision, recall, f1


def _set_composition(windows: WindowSet, rows: np.ndarray) -> dict:
    """The counts of the set made of the `rows` of `windows`."""
    return {
        "n": len(rows),
        "anomalous": int(windows.anomalous[rows].sum()),
        "noise_tagged": sum(not NOISE_TAGS.isdisjoint(windows.tags[r]) for r in rows),
    }


def score_table(suite: TestSuite, t2v_model: TrainedModel, recon_model: TrainedModel,
                detectors: dict[str, detect.DetectorModel]) -> tuple[np.ndarray, np.ndarray]:
    """(scores, thresholds): every report score, each computed once.

    The baseline components, the embedding and each `SPECS` kind's model in
    `detectors` run once over the m windows of `suite.windows`. `scores` is
    float64 (len(METHODS), m), a row per method in SPECS order and a column
    per window, so a set's scores are the columns at its rows; `thresholds`
    holds each method's. A NaN/Inf window raises ValueError naming the first
    set in KEYS order that holds one and its index there; a reconstruction
    that turns NaN/Inf is named by its column.
    """
    if t2v_model is None or recon_model is None:
        raise ValueError("missing trained model")
    missing = [k for k in detect.SPECS if k not in detectors]
    if missing:
        raise ValueError(f"missing detectors: {missing}")
    windows = suite.windows.data
    bad = ~np.isfinite(windows).all(axis=(1, 2))
    for key in TestSuite.KEYS:
        hits = np.flatnonzero(bad[suite.sets[key]])
        if hits.size:
            raise ValueError(f"{key} window {hits[0]} contains NaN/Inf")

    components = score_components_many(recon_model, windows)
    embeddings = embed_many(t2v_model, windows)
    scores = np.array([detect.score_many(detectors[kind],
                                         components if kind == detect.BASELINE else embeddings)
                       for kind in detect.SPECS], dtype=np.float64)
    thresholds = np.array([detectors[kind].threshold for kind in detect.SPECS])
    return scores, thresholds


def run_benchmark(suite: TestSuite, t2v_model: TrainedModel, recon_model: TrainedModel,
                  detectors: dict[str, detect.DetectorModel],
                  config_digest: str = "", seeds: dict | None = None) -> EvalReport:
    """Evaluate the baseline plus every detector over all four test sets:
    each cell counts a set's columns of `score_table`'s row for the method
    above that method's threshold against the set's labels."""
    scores, thresholds = score_table(suite, t2v_model, recon_model, detectors)
    results: dict[str, dict[str, dict]] = {method: {} for method in METHODS}
    composition = {}
    anomalous = suite.windows.anomalous
    for key in TestSuite.KEYS:
        rows = suite.sets[key]
        composition[key] = _set_composition(suite.windows, rows)
        flags = scores[:, rows] > thresholds[:, None]
        for method, preds in zip(METHODS, flags):
            results[method][key] = _entry(confusion(preds, anomalous[rows]))
    return EvalReport(results, composition, config_digest, dict(seeds or {}))


def _entry(c: Confusion) -> dict:
    p, r, f1 = prf1(c)
    return {
        "precision": p,
        "recall": r,
        "f1": f1,
        "confusion": {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn},
    }


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

_METHOD_TITLES = {
    detect.BASELINE: "Reconstruction AE (baseline)",
    "t2v_iforest": "T2V embeddings + IF",
    "t2v_ee": "T2V embeddings + EE",
    "t2v_ocsvm": "T2V embeddings + OCSVM",
    "t2v_lof": "T2V embeddings + LOF",
    "t2v_deep_svdd": "T2V embeddings + Deep SVDD",
}

_BANDS = [
    (detect.BASELINE, "t2v_iforest"),
    ("t2v_ee", "t2v_ocsvm"),
    ("t2v_lof", "t2v_deep_svdd"),
]


def _fmt(v: float) -> str:
    """Compact metric formatting (1, 0.99, 0.5): no trailing zeros."""
    s = f"{v:.2f}".rstrip("0").rstrip(".")
    return s if s else "0"


def format_report_table(report: EvalReport) -> str:
    """Aligned text table: three bands of two methods, one row per test set."""
    col = 10
    lines = []
    for left, right in _BANDS:
        lines.append(f"{'':<{col}}| {_METHOD_TITLES[left]:^{3 * col}}| "
                     f"{_METHOD_TITLES[right]:^{3 * col}}")
        header = ["Test Set", "F1", "Prec", "Recall", "F1", "Prec", "Recall"]
        lines.append(f"{header[0]:<{col}}|" +
                     "".join(f"{h:^{col}}" for h in header[1:4]) + "|" +
                     "".join(f"{h:^{col}}" for h in header[4:]))
        lines.append("-" * (col * 7 + 2))
        for key in TestSuite.KEYS:
            row = [key]
            for method in (left, right):
                e = report.results[method][key]
                row += [_fmt(e["f1"]), _fmt(e["precision"]), _fmt(e["recall"])]
            lines.append(f"{row[0]:<{col}}|" +
                         "".join(f"{v:^{col}}" for v in row[1:4]) + "|" +
                         "".join(f"{v:^{col}}" for v in row[4:]))
        lines.append("")
    return "\n".join(lines)
