"""Data ingestion and preprocessing: cleaning, resampling, windowing,
splitting, plus a synthetic corpus generator.

The chain turns raw per-second sensor CSVs into fixed-size windows of
N=100 steps x F=6 features: forward-fill missing cells, drop duplicate
rows, fence outliers on per-column quantiles, mean-resample long files,
cut consecutive non-overlapping 100-step windows and pad short remainders
by repeating the last row. The synthetic generator stands in for plant
data: four correlated trend+sinusoid features and two near-flat ones,
laid out by module constants. A window set is one `WindowSet`: an
(n, N, F) array plus one tag set and one origin per window; other
modules work on its arrays.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .rng import make_rng

WINDOW_STEPS = 100
N_FEATURES = 6
FLAT_FEATURES = (4, 5)          # the synthetic corpus's near-flat features
NOISE_STD = 0.05                # synthetic noise on the active features
FLAT_NOISE_STD = 0.002          # and on the flat ones
ANOMALY_TAGS = frozenset({"step", "spikes"})
NOISE_TAGS = frozenset({"point_noise", "salt_pepper"})
MIN_REMAINDER = 10


def anomalous_flags(tags) -> np.ndarray:
    """(n,) bool for n tag sets (any iterables of strings): True where a
    step or spikes tag is set."""
    return np.array([not ANOMALY_TAGS.isdisjoint(t) for t in tags], dtype=bool)


@dataclass
class RawSeries:
    """One source file: sorted integer-second timestamps and an (n, F)
    value matrix with NaN marking missing cells. Repeated timestamps are
    legal here (plants re-log seconds); `clean` drops exact duplicates and
    `resample` merges whatever remains."""

    timestamps: np.ndarray
    values: np.ndarray
    source_id: str = ""

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or len(self.timestamps) != len(self.values):
            raise ValueError("values must be (n, F) aligned with timestamps")
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) >= 0):
            raise ValueError(f"timestamps not sorted in {self.source_id!r}")

    def __len__(self):
        return len(self.timestamps)


@dataclass
class WindowSet:
    """n fixed-size windows: `data` (n, N, F), one tag set and one origin per
    window. A window is anomalous iff a step or spikes tag is set; noise
    tags never make it so."""

    data: np.ndarray
    tags: list | None = None        # default: no tags
    origins: list | None = None     # default: empty origins

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[1] != WINDOW_STEPS:
            raise ValueError(f"windows must be (n, {WINDOW_STEPS}, F), "
                             f"got shape {self.data.shape}")
        n = len(self.data)
        self.tags = [frozenset(t) for t in self.tags] if self.tags is not None \
            else [frozenset()] * n
        self.origins = list(self.origins) if self.origins is not None else [""] * n
        if len(self.tags) != n or len(self.origins) != n:
            raise ValueError(f"{n} windows need {n} tag sets and origins, "
                             f"got {len(self.tags)} and {len(self.origins)}")

    def __len__(self):
        return len(self.data)

    @property
    def anomalous(self) -> np.ndarray:
        """(n,) bool: True where a step or spikes tag is set."""
        return anomalous_flags(self.tags)

    def subset(self, idx) -> WindowSet:
        """The windows at `idx`, in that order."""
        return WindowSet(self.data[list(idx)], [self.tags[i] for i in idx],
                         [self.origins[i] for i in idx])

    @staticmethod
    def concat(sets) -> WindowSet:
        """All windows of the (non-empty) sequence `sets`, one after another."""
        return WindowSet(np.concatenate([s.data for s in sets]),
                         [t for s in sets for t in s.tags],
                         [o for s in sets for o in s.origins])


@dataclass
class Corpus:
    windows: WindowSet
    train_idx: list[int]
    test_idx: list[int]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.windows)
        if sorted(self.train_idx + self.test_idx) != list(range(n)):
            raise ValueError("split must be disjoint and exhaustive")

    @property
    def train_windows(self) -> WindowSet:
        return self.windows.subset(self.train_idx)

    @property
    def test_windows(self) -> WindowSet:
        return self.windows.subset(self.test_idx)


def load_csv(path, feature_columns, timestamp_column: str = "timestamp") -> RawSeries:
    """Parse one CSV with a header row; blank or NaN cells are marked missing."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in [timestamp_column, *feature_columns] if c not in header]
        if missing:
            raise ValueError(f"{path}: unknown columns {missing}")
        t_col = header.index(timestamp_column)
        f_cols = [header.index(c) for c in feature_columns]

        timestamps, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                timestamps.append(int(float(row[t_col])))
                values = []
                for c in f_cols:
                    cell = row[c].strip()
                    if cell == "" or cell.lower() == "nan":
                        values.append(np.nan)
                    else:
                        values.append(float(cell))
                rows.append(values)
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: unparsable row at line {lineno}: {exc}") from None
    return RawSeries(np.array(timestamps, dtype=np.int64),
                     np.array(rows, dtype=np.float64).reshape(len(rows), len(feature_columns)),
                     source_id=str(path))


def clean(s: RawSeries, quantile_fence_k: float = 1.5) -> RawSeries:
    """Forward-fill missing cells, drop duplicate rows, fence outliers.

    Rows are dropped when any feature lies outside
    [Q1 - k*IQR, Q3 + k*IQR] (per-column quantiles, linear interpolation).
    k=0 reproduces the literal keep-only-the-IQR rule; note that mode is
    contractive, not idempotent: quantiles are recomputed from whatever
    survives, so applying it twice can discard more rows.
    """
    if quantile_fence_k < 0:
        raise ValueError("quantile fence multiplier must be >= 0")
    values = s.values.copy()
    ts = s.timestamps.copy()

    # forward fill per column; rows still missing afterwards are leading rows
    for col in range(values.shape[1]):
        v = values[:, col]
        mask = np.isnan(v)
        if mask.all():
            raise ValueError(f"{s.source_id!r}: column {col} entirely missing")
        idx = np.where(~mask, np.arange(len(v)), 0)
        np.maximum.accumulate(idx, out=idx)
        filled = v[idx]
        filled[np.cumsum(~mask) == 0] = np.nan  # nothing before the first value
        values[:, col] = filled
    keep = ~np.isnan(values).any(axis=1)
    values, ts = values[keep], ts[keep]

    # exact duplicates: identical timestamp and feature row as predecessor
    if len(values) > 1:
        same_t = np.diff(ts) == 0
        same_v = (values[1:] == values[:-1]).all(axis=1)
        keep = np.concatenate([[True], ~(same_t & same_v)])
        values, ts = values[keep], ts[keep]

    if len(values):
        q1 = np.quantile(values, 0.25, axis=0)
        q3 = np.quantile(values, 0.75, axis=0)
        iqr = q3 - q1
        lo = q1 - quantile_fence_k * iqr
        hi = q3 + quantile_fence_k * iqr
        keep = ((values >= lo) & (values <= hi)).all(axis=1)
        values, ts = values[keep], ts[keep]

    if len(values) == 0:
        raise ValueError(f"{s.source_id!r}: series empty after cleaning")
    return RawSeries(ts, values, s.source_id)


def resample(s: RawSeries, window_seconds: int) -> RawSeries:
    """Per-bucket feature means; each bucket keeps its last row's timestamp."""
    if window_seconds < 1:
        raise ValueError("window_seconds must be >= 1")
    if window_seconds == 1 or len(s) == 0:
        return replace(s)
    buckets = s.timestamps // window_seconds
    _, starts = np.unique(buckets, return_index=True)
    ends = np.append(starts[1:], len(s))
    values = np.stack([s.values[a:b].mean(axis=0) for a, b in zip(starts, ends)])
    ts = s.timestamps[ends - 1]
    return RawSeries(ts, values, s.source_id)


def auto_resample_width(n_rows: int) -> int:
    """Bucket width that lands a long file near WINDOW_STEPS steps."""
    return max(1, math.ceil(n_rows / WINDOW_STEPS))


def windowize(s: RawSeries) -> WindowSet:
    """Cut consecutive non-overlapping 100-step windows.

    The final short remainder (and any series shorter than 100 steps) is
    extended by repeating its last row and tagged `padded`; remainders
    shorter than 10 steps are discarded.
    """
    if len(s) == 0:
        raise ValueError("cannot windowize an empty series")
    n_full, rem = divmod(len(s), WINDOW_STEPS)
    n = n_full + (rem >= MIN_REMAINDER)
    kept = s.values[:n * WINDOW_STEPS]
    pad = np.repeat(kept[-1:], n * WINDOW_STEPS - len(kept), axis=0)
    return WindowSet(np.concatenate([kept, pad]).reshape(n, WINDOW_STEPS, s.values.shape[1]),
                     [frozenset()] * n_full + [frozenset({"padded"})] * (n - n_full),
                     [f"{s.source_id}#{i}" for i in range(n)])


def split(windows: WindowSet, test_fraction: float = 0.10, seed: int = 0,
          provenance: dict | None = None) -> Corpus:
    """Seeded uniform train/test split; test size is round(n * fraction)."""
    n = len(windows)
    if n < 10:
        raise ValueError(f"need at least 10 windows to split, got {n}")
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise ValueError(f"test fraction {test_fraction} of {n} windows leaves a side empty")
    rng = make_rng(seed)
    perm = rng.permutation(n)
    test_idx = sorted(int(i) for i in perm[:n_test])
    train_idx = sorted(int(i) for i in perm[n_test:])
    prov = dict(provenance or {})
    prov.update({"split_seed": seed, "test_fraction": test_fraction})
    return Corpus(windows, train_idx, test_idx, prov)


@dataclass(frozen=True)
class SynthParams:
    """What `generate` sets: the corpus size and its test fraction. The
    corpus has N_FEATURES features: four correlated active ones built from
    two shared latents and the near-flat FLAT_FEATURES (std < 1% of the
    active ones)."""

    n_windows: int = 2950
    test_fraction: float = 0.10

    def __post_init__(self):
        if self.n_windows < 10:
            raise ValueError("n_windows must be >= 10")


def synth_generate(params: SynthParams = SynthParams(), seed: int = 0) -> Corpus:
    """Deterministic synthetic corpus standing in for proprietary plant data."""
    rng = make_rng(seed)
    n_active = N_FEATURES - len(FLAT_FEATURES)
    active = [f for f in range(N_FEATURES) if f not in FLAT_FEATURES]

    # corpus-level mixing of two latents -> cross-feature correlation
    mix = rng.uniform(0.4, 1.2, size=(n_active, 2)) * rng.choice([-1.0, 1.0], size=(n_active, 2))
    offsets = rng.uniform(-1.0, 1.0, size=n_active)
    flat_levels = rng.uniform(-1.0, 1.0, size=len(FLAT_FEATURES))

    t = np.arange(WINDOW_STEPS) / WINDOW_STEPS
    windows = np.zeros((params.n_windows, WINDOW_STEPS, N_FEATURES))
    for data in windows:
        freq = rng.uniform(1.0, 3.0, size=2)
        phase = rng.uniform(0.0, 2 * np.pi, size=2)
        amp = rng.uniform(0.6, 1.4, size=2)
        trend = rng.uniform(-0.6, 0.6, size=2)
        level = rng.normal(0.0, 0.3, size=2)
        latents = np.stack([
            amp[j] * np.sin(2 * np.pi * freq[j] * t + phase[j]) + trend[j] * t + level[j]
            for j in range(2)
        ], axis=1)                                   # (N, 2)

        data[:, active] = latents @ mix.T + offsets
        data[:, active] += rng.normal(0.0, NOISE_STD, size=(WINDOW_STEPS, n_active))
        for j, f in enumerate(FLAT_FEATURES):
            data[:, f] = flat_levels[j] + rng.normal(0.0, FLAT_NOISE_STD, WINDOW_STEPS)

    provenance = {
        "generator": "synth",
        "seed": seed,
        "n_windows": params.n_windows,
        "n_features": N_FEATURES,
        "flat_features": list(FLAT_FEATURES),
        "noise_std": NOISE_STD,
        "flat_noise_std": FLAT_NOISE_STD,
    }
    origins = [f"synth#{i}" for i in range(params.n_windows)]
    return split(WindowSet(windows, origins=origins), params.test_fraction, seed=seed,
                 provenance=provenance)
