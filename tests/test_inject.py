import math

import numpy as np
import pytest

from t2vad.inject import (GMM_MEANS, GMM_STDS, GMM_WEIGHTS, SPIKE_PERIOD_RANGE,
                          STEP_ONSET_RANGE, InjectionSpec, TestSuite, build_testsets,
                          inject_point_noise, inject_saltpepper, inject_spikes, inject_step,
                          sample_spike_amplitudes)
from t2vad.pipeline import NOISE_TAGS, WindowSet
from t2vad.rng import make_rng


def make_window(seed=0, flat=(4, 5)):
    rng = make_rng(seed)
    data = rng.normal(size=(100, 6))
    for f in flat:
        data[:, f] = 0.5 + rng.normal(scale=0.001, size=100)
    return data


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------

def test_step_zero_magnitude_returns_an_equal_copy():
    w = make_window(1)
    out = inject_step(w, [0, 1], onset=30, magnitude_per_feature=[0.0, 0.0])
    assert np.array_equal(out, w) and out is not w


def test_injectors_leave_their_input_untouched():
    w = make_window(1)
    before = w.copy()
    inject_step(w, [0], 10, [5.0])
    inject_spikes(w, [0], 5, seed=1)
    inject_point_noise(w, seed=2)
    inject_saltpepper(w, 0.5, 3, w.min(axis=0), w.max(axis=0))
    assert np.array_equal(w, before)


def test_step_definition():
    w = make_window(2)
    out = inject_step(w, [0], onset=50, magnitude_per_feature=[1.0])
    assert np.array_equal(out[:50], w[:50])
    np.testing.assert_allclose(out[50:, 0] - w[50:, 0], 1.0)
    assert np.array_equal(out[:, 1:], w[:, 1:])


def test_step_default_alpha_shifts_mean_by_3_sigma():
    w = make_window(3)
    sigma = w[:, 0].std()
    out = inject_step(w, [0], onset=40, magnitude_per_feature=[3.0 * sigma])
    pre = out[:40, 0].mean() - w[:40, 0].mean()
    post = out[40:, 0].mean() - w[40:, 0].mean()
    assert pre == 0.0
    assert post == pytest.approx(3.0 * sigma, rel=1e-9)


def test_step_empty_features():
    with pytest.raises(ValueError, match="empty feature set"):
        inject_step(make_window(4), [], 10, [])


def test_step_onset_bounds():
    with pytest.raises(ValueError, match="onset"):
        inject_step(make_window(5), [0], 100, [1.0])


# ---------------------------------------------------------------------------
# spikes
# ---------------------------------------------------------------------------

def test_spikes_period_100_at_most_one_row():
    w = make_window(6)
    out = inject_spikes(w, [0], period=100, seed=1)
    changed = np.flatnonzero((out != w).any(axis=1))
    assert len(changed) <= 1


def test_spikes_period_10_exactly_nine_rows():
    w = make_window(7)
    out = inject_spikes(w, [0], period=10, seed=2)
    changed = np.flatnonzero(out[:, 0] != w[:, 0])
    np.testing.assert_array_equal(changed, np.arange(10, 100, 10))


def test_spikes_off_period_rows_untouched():
    w = make_window(8)
    out = inject_spikes(w, [0, 1], period=7, seed=3)
    rows = np.arange(7, 100, 7)
    mask = np.ones(100, dtype=bool)
    mask[rows] = False
    assert np.array_equal(out[mask], w[mask])


def test_spikes_period_validation():
    with pytest.raises(ValueError, match="period"):
        inject_spikes(make_window(9), [0], period=1, seed=0)


def normal_cdf(x, mu, sd):
    return 0.5 * (1.0 + math.erf((x - mu) / (sd * math.sqrt(2.0))))


def test_spike_amplitudes_match_mixture_cdf():
    """Kolmogorov distance between 1e5 sampled amplitudes and the analytic
    3-component mixture CDF stays below 0.01."""
    amps, signs = sample_spike_amplitudes(100_000, make_rng(42))
    amps = np.sort(amps)
    grid = np.arange(1, len(amps) + 1) / len(amps)
    cdf = sum(w * np.array([normal_cdf(a, m, s) for a in amps])
              for w, m, s in zip(GMM_WEIGHTS, GMM_MEANS, GMM_STDS))
    ks = np.max(np.abs(grid - cdf))
    assert ks < 0.01
    assert set(np.unique(signs)) == {-1.0, 1.0}


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_point_noise_changes_exactly_one_cell():
    w = make_window(10)
    out = inject_point_noise(w, seed=5)
    assert (out != w).sum() == 1


def test_point_noise_deterministic():
    w = make_window(11)
    a = inject_point_noise(w, seed=6)
    b = inject_point_noise(w, seed=6)
    assert np.array_equal(a, b)


def test_point_noise_offset_is_six_sigma():
    w = make_window(12)
    out = inject_point_noise(w, seed=7)
    row, col = np.argwhere(out != w)[0]
    delta = abs(out[row, col] - w[row, col])
    assert delta == pytest.approx(6.0 * w[:, col].std(), rel=1e-9)


def test_saltpepper_expected_cell_count():
    # 600 cells at p=0.02 -> 12 expected; mean over 1000 seeds within +/-10%
    w = make_window(13)
    lo, hi = w.min(axis=0), w.max(axis=0)
    counts = [(inject_saltpepper(w, 0.02, s, lo, hi) != w).sum()
              for s in range(1000)]
    assert 10.8 <= np.mean(counts) <= 13.2


def test_saltpepper_values_are_extremes():
    w = make_window(14)
    lo = w.min(axis=0)
    hi = w.max(axis=0)
    out = inject_saltpepper(w, 0.05, 8, lo, hi)
    rows, cols = np.nonzero(out != w)
    assert len(rows) > 0
    for r, c in zip(rows, cols):
        assert out[r, c] in (lo[c], hi[c])


def test_saltpepper_prob_validation():
    with pytest.raises(ValueError):
        w = make_window(15)
        inject_saltpepper(w, 0.0, 0, w.min(axis=0), w.max(axis=0))


# ---------------------------------------------------------------------------
# build_testsets
# ---------------------------------------------------------------------------

def make_windows(seeds):
    return WindowSet(np.stack([make_window(s) for s in seeds]),
                     origins=[f"w{s}" for s in seeds])


def set_windows(suite, key):
    """The suite's set `key` as a WindowSet of its own copy of its windows."""
    return suite.windows.subset(suite.sets[key])


def set_data(suite, key):
    """A copy of the windows of the suite's set `key`, in order."""
    return suite.windows.data[suite.sets[key]]


@pytest.fixture(scope="module")
def clean_295():
    return make_windows(range(1000, 1295))


@pytest.fixture(scope="module")
def suite_295(clean_295):
    return build_testsets(clean_295, InjectionSpec(seed=21))


def test_testsets_anomaly_counts(suite_295):
    for key in TestSuite.KEYS:
        assert set_windows(suite_295, key).anomalous.sum() in (147, 148)


def test_anomaly_only_sets_have_no_noise(suite_295):
    for key in ("A-6F", "A-4F"):
        assert not any(tags & NOISE_TAGS for tags in set_windows(suite_295, key).tags)


def test_noise_count_is_floor_ten_percent(suite_295):
    for key in ("AN-6F", "AN-4F"):
        assert sum(bool(tags & NOISE_TAGS) for tags in set_windows(suite_295, key).tags) == 29


def test_noise_only_windows_stay_normal(suite_295):
    ws = set_windows(suite_295, "AN-6F")
    for tags, anomalous in zip(ws.tags, ws.anomalous):
        if tags & NOISE_TAGS and not tags & {"step", "spikes"}:
            assert not anomalous


def test_every_changed_window_carries_its_tag(clean_295, suite_295):
    for key in ("A-6F", "AN-6F"):
        ws = set_windows(suite_295, key)
        changed = (set_data(suite_295, key) != clean_295.data).any(axis=(1, 2))
        tagged = np.array([bool(t) for t in ws.tags])
        np.testing.assert_array_equal(changed, tagged)
        assert ws.origins == clean_295.origins


def test_flat_features_untouched_in_4f(clean_295, suite_295):
    assert np.array_equal(clean_295.data[:, :, 4:], set_data(suite_295, "A-4F")[:, :, 4:])


def test_testsets_pure_function(clean_295):
    spec = InjectionSpec(seed=33)
    a = build_testsets(clean_295, spec)
    b = build_testsets(clean_295, spec)
    assert a.windows.data.tobytes() == b.windows.data.tobytes()
    for key in TestSuite.KEYS:
        assert np.array_equal(a.sets[key], b.sets[key])
        assert set_windows(a, key).tags == set_windows(b, key).tags


def test_testsets_require_clean_normals():
    ws = make_windows(range(12))
    ws.tags[0] = frozenset({"step"})
    with pytest.raises(ValueError, match="normal"):
        build_testsets(ws, InjectionSpec(seed=0))


def test_testsets_minimum_size():
    with pytest.raises(ValueError, match="at least 10"):
        build_testsets(make_windows(range(5)), InjectionSpec(seed=0))


def test_step_windows_untouched_before_onset(suite_295, clean_295):
    ws = set_windows(suite_295, "A-6F")
    for orig, inj, tags in zip(clean_295.data, set_data(suite_295, "A-6F"), ws.tags):
        if "step" in tags:
            diff = np.flatnonzero((inj != orig).any(axis=1))
            onset = diff[0]
            assert np.array_equal(inj[:onset], orig[:onset])
            assert 20 <= onset <= 60


@pytest.mark.parametrize("flat", [(9,), (-1,), (6,), (4, 6)])
def test_testsets_reject_a_flat_feature_outside_the_features(flat):
    with pytest.raises(ValueError, match=r"flat features \[-?\d\] lie outside \[0, 6\)"):
        build_testsets(make_windows(range(12)), InjectionSpec(flat_features=flat, seed=0))


# ---------------------------------------------------------------------------
# one store of windows
# ---------------------------------------------------------------------------

def test_the_suite_stacks_each_window_once_and_indexes_every_set(clean_295, suite_295):
    """`build_testsets` holds each window once: each set is rows of the one
    `windows` store, the A sets share every clean window, and an AN set
    holds other rows than its A set exactly at its noised windows."""
    assert list(suite_295.sets) == list(TestSuite.KEYS)
    assert len({w.tobytes() for w in suite_295.windows.data}) == len(suite_295.windows)
    assert len(suite_295.windows) < sum(len(s) for s in suite_295.sets.values())
    for key in TestSuite.KEYS:
        assert suite_295.sets[key].dtype == np.intp
        assert len(suite_295.sets[key]) == len(clean_295)
        assert set_windows(suite_295, key).origins == clean_295.origins
    a6, a4 = (set_windows(suite_295, key) for key in ("A-6F", "A-4F"))
    clean = suite_295.sets["A-6F"][~a6.anomalous]
    assert np.array_equal(clean, suite_295.sets["A-4F"][~a4.anomalous])
    for a, an in (("A-6F", "AN-6F"), ("A-4F", "AN-4F")):
        noised = np.array([bool(t & NOISE_TAGS) for t in set_windows(suite_295, an).tags])
        assert np.array_equal(suite_295.sets[a] != suite_295.sets[an], noised)


def reference_suite(clean, spec):
    """The suite by the byte-keyed dedupe: each of the four sets built in full,
    by its own seeded draws, then each distinct window, keyed by its exact
    bytes, stacked once in order of first appearance over KEYS. Returns that
    (m, N, F) array and each set's rows into it and tags by position."""
    n, every = len(clean), list(range(clean.data.shape[2]))
    lo, hi = clean.data.min(axis=(0, 1)), clean.data.max(axis=(0, 1))
    sets = {}
    for width, features in (("6F", every), ("4F", [f for f in every
                                                   if f not in spec.flat_features])):
        rng, data, tags = make_rng(spec.seed), clean.data.copy(), list(clean.tags)
        for i in np.sort(rng.permutation(n)[:int(round(spec.anomaly_fraction * n))]):
            if rng.random() < 0.5:
                onset = int(rng.integers(STEP_ONSET_RANGE[0], STEP_ONSET_RANGE[1] + 1))
                data[i] = inject_step(data[i], features, onset,
                                      spec.step_alpha * data[i].std(axis=0)[features])
                tags[i] |= {"step"}
            else:
                period = int(rng.integers(SPIKE_PERIOD_RANGE[0], SPIKE_PERIOD_RANGE[1] + 1))
                data[i] = inject_spikes(data[i], features, period, int(rng.integers(2 ** 62)))
                tags[i] |= {"spikes"}
        sets["A-" + width] = data.copy(), list(tags)
        rng = make_rng(spec.seed + 1)
        for i in rng.permutation(n)[:int(np.floor(spec.noise_fraction * n))]:
            if rng.random() < 0.5:
                data[i] = inject_point_noise(data[i], int(rng.integers(2 ** 62)))
                tags[i] |= {"point_noise"}
            else:
                data[i] = inject_saltpepper(data[i], spec.salt_pepper_prob,
                                            int(rng.integers(2 ** 62)), lo, hi)
                tags[i] |= {"salt_pepper"}
        sets["AN-" + width] = data, tags
    seen = {}
    rows = {key: [seen.setdefault(w.tobytes(), (len(seen), w))[0] for w in sets[key][0]]
            for key in TestSuite.KEYS}
    return (np.array([w for _, w in seen.values()]), rows,
            {key: sets[key][1] for key in TestSuite.KEYS})


@pytest.mark.parametrize("spec", [
    InjectionSpec(seed=21), InjectionSpec(noise_fraction=1.0, seed=22),
    InjectionSpec(anomaly_fraction=0.0, seed=23), InjectionSpec(anomaly_fraction=1.0, seed=24),
    InjectionSpec(flat_features=(3,), seed=25)])
def test_the_built_suite_is_the_byte_keyed_dedupe_of_its_four_sets(clean_295, spec):
    """The store holds the windows the sets use, in order of first use over
    KEYS, as the byte-keyed dedupe of four fully built sets stacks them; the
    report's byte-identity rests on that order."""
    suite = build_testsets(clean_295, spec)
    windows, rows, tags = reference_suite(clean_295, spec)
    assert suite.windows.data.tobytes() == windows.tobytes()
    for key in TestSuite.KEYS:
        assert suite.sets[key].tolist() == rows[key]
        assert set_windows(suite, key).tags == tags[key]
        assert set_windows(suite, key).origins == clean_295.origins


def test_building_the_suite_holds_little_beyond_its_windows(traced_peak):
    """At 300 clean windows, building peaks below 2.5 times the bytes of the
    suite's windows; four full per-set copies deduped afterwards held 3.5."""
    clean, spec = make_windows(range(2000, 2300)), InjectionSpec(seed=26)
    suite = build_testsets(clean, spec)
    assert traced_peak(build_testsets, clean, spec) < 2.5 * suite.windows.data.nbytes


def test_a_suite_missing_a_set_is_rejected():
    sets = {key: [0] for key in TestSuite.KEYS if key != "AN-4F"}
    with pytest.raises(ValueError, match=r"missing test sets: \['AN-4F'\]"):
        TestSuite(make_windows([1]), sets, seed=0)
