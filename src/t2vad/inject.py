"""Synthetic anomaly and noise injection.

Two anomaly kinds model typical machinery faults: a persistent step offset
and periodic spikes with amplitudes drawn from a 3-component Gaussian
mixture. Two noise kinds (single-point offset, salt-and-pepper extremes)
are deliberately left normal: a detector should ignore them. From one
clean test split, `build_testsets` derives the four evaluation sets
A-6F / AN-6F / A-4F / AN-4F (anomalies on all six or only the four
non-flat features, with or without noise). The suite holds each window
once, in one `WindowSet` with its tags and origin, and each set is an
array of rows of it. Each injector maps an (N, F) array to a new one; the
builder adds that window as a row carrying its base row's tags and origin
plus the injection's tag. The onset, period and mixture ranges are module
constants; `InjectionSpec` holds only what `build-testsets` sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .pipeline import NOISE_TAGS, WindowSet
from .rng import make_rng


STEP_ONSET_RANGE = (20, 60)        # inclusive range of a step's first row
SPIKE_PERIOD_RANGE = (5, 15)       # inclusive range of the rows between spikes
# mixture over spike amplitudes, in units of the per-feature std
GMM_MEANS = (2.0, 4.0, 6.0)
GMM_STDS = (0.5, 0.5, 0.5)
GMM_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)
POINT_NOISE, SALT_PEPPER = sorted(NOISE_TAGS)


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
class TestSuite:
    """The four labeled evaluation sets keyed A-6F / AN-6F / A-4F / AN-4F.

    The sets share most of their windows (the A sets share every clean
    window, and each AN set is its A set with some windows noised), so the
    suite holds each window once, with its tags and origin, in the
    WindowSet `windows`, and each set is an (n,) intp array of the rows of
    `windows` it is made of.
    """

    windows: WindowSet
    sets: dict[str, np.ndarray]
    seed: int

    KEYS = ("A-6F", "AN-6F", "A-4F", "AN-4F")
    __test__ = False            # bare data, despite the pytest-like name

    def __post_init__(self):
        missing = [k for k in self.KEYS if k not in self.sets]
        if missing:
            raise ValueError(f"missing test sets: {missing}")
        self.sets = {key: np.asarray(rows, dtype=np.intp) for key, rows in self.sets.items()}


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


def _anomaly_draws(n: int, spec: InjectionSpec, rng) -> list:
    """(position, tag, inject) for each of n windows that gets an anomaly, by
    position; inject(x, features) makes window x anomalous on `features`.
    The draws do not depend on the windows, so A-6F and A-4F share them."""
    draws = []
    for i in np.sort(rng.permutation(n)[:int(round(spec.anomaly_fraction * n))]):
        if rng.random() < 0.5:
            onset = int(rng.integers(STEP_ONSET_RANGE[0], STEP_ONSET_RANGE[1] + 1))
            draws.append((i, "step", lambda x, features, onset=onset: inject_step(
                x, features, onset, spec.step_alpha * x.std(axis=0)[features])))
        else:
            period = int(rng.integers(SPIKE_PERIOD_RANGE[0], SPIKE_PERIOD_RANGE[1] + 1))
            draws.append((i, "spikes", partial(inject_spikes, period=period,
                                               seed=int(rng.integers(2 ** 62)))))
    return draws


def _noise_draws(n: int, spec: InjectionSpec, extremes, rng) -> list:
    """(position, tag, inject) for each of n windows that gets noise;
    inject(x) noises window x. Both AN sets share these draws."""
    draws = []
    for i in rng.permutation(n)[:int(np.floor(spec.noise_fraction * n))]:
        point = rng.random() < 0.5
        seed = int(rng.integers(2 ** 62))
        draws.append((i, POINT_NOISE, partial(inject_point_noise, seed=seed)) if point else
                     (i, SALT_PEPPER, partial(inject_saltpepper, point_prob=spec.salt_pepper_prob,
                                              seed=seed, lo=extremes[0], hi=extremes[1])))
    return draws


def build_testsets(clean_test: WindowSet, spec: InjectionSpec = InjectionSpec()) -> TestSuite:
    """Construct the four evaluation sets from a clean, all-normal test split.

    A-6F injects step/spikes (50/50) into `anomaly_fraction` of windows over
    all features; A-4F does the same draws excluding the flat features. AN
    sets additionally apply point or salt-pepper noise (50/50) to floor(10%)
    of windows. Each injection adds a window with its base window's tags and
    origin plus its own tag; a noised clean window is built once, for both
    AN sets. The suite keeps the windows the sets use, in order of first use
    over KEYS. Pure function of (clean_test, spec). Raises ValueError for a
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

    n = len(clean_test)
    store = list(clean_test.data)          # every window built, by row; the clean ones are views
    tags, origins = list(clean_test.tags), list(clean_test.origins)

    def add(window: np.ndarray, base: int, tag: str) -> int:
        """The new row of `window`, made from row `base` by an injection tagged `tag`."""
        store.append(window)
        tags.append(tags[base] | {tag})
        origins.append(origins[base])
        return len(store) - 1

    anomalies = _anomaly_draws(n, spec, make_rng(spec.seed))
    noise = _noise_draws(n, spec, extremes, make_rng(spec.seed + 1))
    noised = {}     # base row -> its noised row; both AN sets noise a clean row alike
    sets = {}
    for width, features in (("6F", all_features), ("4F", four)):
        rows = np.arange(n)
        for i, tag, inject in anomalies:
            rows[i] = add(inject(store[i], features), i, tag)
        sets["A-" + width] = rows.copy()
        for i, tag, inject in noise:
            if rows[i] not in noised:
                noised[rows[i]] = add(inject(store[rows[i]]), rows[i], tag)
            rows[i] = noised[rows[i]]
        sets["AN-" + width] = rows

    used = np.concatenate([sets[key] for key in TestSuite.KEYS])
    order = used[np.sort(np.unique(used, return_index=True)[1])]    # by first use
    renumber = np.empty(len(store), dtype=np.intp)
    renumber[order] = np.arange(len(order))
    windows = WindowSet(np.array([store[r] for r in order]), [tags[r] for r in order],
                        [origins[r] for r in order])
    return TestSuite(windows, {key: renumber[rows] for key, rows in sets.items()}, spec.seed)
