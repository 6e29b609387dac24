"""Synthetic anomaly and noise injection.

Two anomaly kinds model typical machinery faults: a persistent step offset
and periodic spikes with amplitudes drawn from a 3-component Gaussian
mixture. Two noise kinds (single-point offset, salt-and-pepper extremes)
are deliberately left normal: a detector should ignore them. From one
clean test split, `build_testsets` derives the four evaluation sets
A-6F / AN-6F / A-4F / AN-4F (anomalies on all six or only the four
non-flat features, with or without noise), and holds each distinct window
of the four once. Each injector maps an (N, F) array to a new one; the set
builders put its tag beside the window. The onset, period and mixture
ranges are module constants; `InjectionSpec` holds only what
`build-testsets` sets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .pipeline import WindowSet, anomalous_flags
from .rng import make_rng


STEP_ONSET_RANGE = (20, 60)        # inclusive range of a step's first row
SPIKE_PERIOD_RANGE = (5, 15)       # inclusive range of the rows between spikes
# mixture over spike amplitudes, in units of the per-feature std
GMM_MEANS = (2.0, 4.0, 6.0)
GMM_STDS = (0.5, 0.5, 0.5)
GMM_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)


@dataclass(frozen=True)
class InjectionSpec:
    anomaly_fraction: float = 0.5
    flat_features: tuple[int, ...] = (4, 5)
    step_alpha: float = 3.0                # magnitude = alpha * per-feature std
    noise_fraction: float = 0.10
    salt_pepper_prob: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.anomaly_fraction <= 1 or not 0 <= self.noise_fraction <= 1:
            raise ValueError("fractions must lie in [0, 1]")


@dataclass
class TestSet:
    """One evaluation set: for each of its windows, the row of its suite's
    `windows` that holds it, its tag set and its origin."""

    rows: np.ndarray
    tags: list
    origins: list

    __test__ = False            # bare data, despite the pytest-like name

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.intp)
        self.tags = [frozenset(t) for t in self.tags]
        self.origins = list(self.origins)

    def __len__(self):
        return len(self.rows)

    @property
    def anomalous(self) -> np.ndarray:
        """(n,) bool: True where a step or spikes tag is set."""
        return anomalous_flags(self.tags)


@dataclass
class TestSuite:
    """The four labeled evaluation sets keyed A-6F / AN-6F / A-4F / AN-4F.

    The sets share most of their windows (the A sets share every clean
    window, and each AN set is its A set with some windows noised), so the
    suite holds its windows once, in `windows` (m, N, F), and each set
    holds the rows of `windows` it is made of.
    """

    windows: np.ndarray
    sets: dict[str, TestSet]
    seed: int

    KEYS = ("A-6F", "AN-6F", "A-4F", "AN-4F")
    __test__ = False            # bare data, despite the pytest-like name

    def __post_init__(self):
        missing = [k for k in self.KEYS if k not in self.sets]
        if missing:
            raise ValueError(f"missing test sets: {missing}")

    @classmethod
    def from_sets(cls, sets: dict[str, WindowSet], seed: int) -> TestSuite:
        """The suite of the four WindowSets `sets`: each distinct window,
        keyed by the SHA-256 of its exact bytes (not by a copy of them), is
        stacked once in order of first appearance over KEYS, so that
        `windows[sets[key].rows]` of the result equals `sets[key].data`."""
        keys = [key for key in cls.KEYS if key in sets]     # a missing key fails in cls()
        seen: dict[bytes, tuple[int, np.ndarray]] = {}
        rows = {key: [seen.setdefault(hashlib.sha256(w.tobytes()).digest(), (len(seen), w))[0]
                      for w in sets[key].data]
                for key in keys}
        return cls(np.array([w for _, w in seen.values()]),
                   {key: TestSet(rows[key], sets[key].tags, sets[key].origins) for key in keys},
                   seed)


def inject_step(x: np.ndarray, features, onset: int, magnitude_per_feature) -> np.ndarray:
    """Add a persistent offset to every row >= onset of the selected features."""
    features = list(features)
    if not features:
        raise ValueError("empty feature set")
    n = x.shape[0]
    if not 0 <= onset < n:
        raise ValueError(f"onset must be in [0, {n}), got {onset}")
    magnitude = np.broadcast_to(np.asarray(magnitude_per_feature, dtype=np.float64),
                                (len(features),))
    data = x.copy()
    for f, m in zip(features, magnitude):
        data[onset:, f] += m
    return data


def sample_spike_amplitudes(n: int, rng: np.random.Generator):
    """Draw n (amplitude, sign) pairs from the mixture; amplitudes unsigned."""
    comp = rng.choice(len(GMM_WEIGHTS), size=n, p=np.asarray(GMM_WEIGHTS))
    amps = rng.normal(np.asarray(GMM_MEANS)[comp], np.asarray(GMM_STDS)[comp])
    signs = rng.choice([-1.0, 1.0], size=n)
    return amps, signs


def inject_spikes(x: np.ndarray, features, period: int, seed: int) -> np.ndarray:
    """Additive spikes at rows {period, 2*period, ...} of the selected features.

    Per spike and feature: mixture component by weight, amplitude from that
    component (scaled by the feature's std), random sign.
    """
    features = list(features)
    if not features:
        raise ValueError("empty feature set")
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    rng = make_rng(seed)
    rows = np.arange(period, x.shape[0], period)
    sigma = x.std(axis=0)
    data = x.copy()
    for f in features:
        amps, signs = sample_spike_amplitudes(len(rows), rng)
        data[rows, f] += signs * amps * sigma[f]
    return data


def inject_point_noise(x: np.ndarray, seed: int) -> np.ndarray:
    """Offset one uniformly chosen cell by 6 per-feature stds."""
    rng = make_rng(seed)
    n, f = x.shape
    row = int(rng.integers(n))
    col = int(rng.integers(f))
    sign = float(rng.choice([-1.0, 1.0]))
    data = x.copy()
    data[row, col] += sign * 6.0 * x.std(axis=0)[col]
    return data


def inject_saltpepper(x: np.ndarray, point_prob: float, seed: int,
                      lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Independently set each cell, with prob `point_prob`, to its feature's
    extreme value in `lo` or `hi` (F,) (50/50); the benchmark passes the
    test split's extremes.
    """
    if not 0 < point_prob < 1:
        raise ValueError("point_prob must be in (0, 1)")
    rng = make_rng(seed)
    hit = rng.random(x.shape) < point_prob
    salt = rng.random(x.shape) < 0.5
    return np.where(hit, np.where(salt, hi, lo), x)


def _inject_anomalies(windows: WindowSet, spec: InjectionSpec, features, rng) -> WindowSet:
    n = len(windows)
    data, tags = windows.data.copy(), list(windows.tags)
    for i in np.sort(rng.permutation(n)[:int(round(spec.anomaly_fraction * n))]):
        if rng.random() < 0.5:
            onset = int(rng.integers(STEP_ONSET_RANGE[0], STEP_ONSET_RANGE[1] + 1))
            magnitude = spec.step_alpha * data[i].std(axis=0)[features]
            data[i] = inject_step(data[i], features, onset, magnitude)
            tags[i] |= {"step"}
        else:
            period = int(rng.integers(SPIKE_PERIOD_RANGE[0], SPIKE_PERIOD_RANGE[1] + 1))
            data[i] = inject_spikes(data[i], features, period,
                                    seed=int(rng.integers(2 ** 62)))
            tags[i] |= {"spikes"}
    return WindowSet(data, tags, windows.origins)


def _inject_noise(windows: WindowSet, spec: InjectionSpec, extremes, rng) -> WindowSet:
    n = len(windows)
    data, tags = windows.data.copy(), list(windows.tags)
    for i in rng.permutation(n)[:int(np.floor(spec.noise_fraction * n))]:
        if rng.random() < 0.5:
            data[i] = inject_point_noise(data[i], seed=int(rng.integers(2 ** 62)))
            tags[i] |= {"point_noise"}
        else:
            data[i] = inject_saltpepper(data[i], spec.salt_pepper_prob,
                                        int(rng.integers(2 ** 62)), *extremes)
            tags[i] |= {"salt_pepper"}
    return WindowSet(data, tags, windows.origins)


def build_testsets(clean_test: WindowSet, spec: InjectionSpec = InjectionSpec()) -> TestSuite:
    """Construct the four evaluation sets from a clean, all-normal test split.

    A-6F injects step/spikes (50/50) into `anomaly_fraction` of windows over
    all features; A-4F does the same excluding the flat features. AN sets
    additionally apply point or salt-pepper noise (50/50) to floor(10%) of
    windows. Pure function of (clean_test, spec). Raises ValueError for a
    flat feature outside [0, F): it would make A-4F a copy of A-6F.
    """
    if len(clean_test) < 10:
        raise ValueError(f"need at least 10 test windows, got {len(clean_test)}")
    if clean_test.anomalous.any():
        raise ValueError("clean test windows must all be normal")
    all_features = list(range(clean_test.data.shape[2]))
    outside = [f for f in spec.flat_features if f not in all_features]
    if outside:
        raise ValueError(f"flat features {outside} lie outside [0, {len(all_features)})")
    four = [f for f in all_features if f not in spec.flat_features]
    extremes = (clean_test.data.min(axis=(0, 1)), clean_test.data.max(axis=(0, 1)))

    sets = {}
    for key, features in (("A-6F", all_features), ("A-4F", four)):
        rng = make_rng(spec.seed)                  # same anomaly draw for 6F/4F pairing
        anomalous = _inject_anomalies(clean_test, spec, features, rng)
        sets[key] = anomalous
        noise_rng = make_rng(spec.seed + 1)
        sets["AN-" + key[2:]] = _inject_noise(anomalous, spec, extremes, noise_rng)
    return TestSuite.from_sets(sets, seed=spec.seed)
