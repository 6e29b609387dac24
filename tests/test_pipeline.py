import numpy as np
import pytest

from t2vad.pipeline import (Corpus, RawSeries, SynthParams, WindowSet, clean,
                            auto_resample_width, load_csv, resample, split,
                            synth_generate, windowize)


def series(values, timestamps=None, source="test"):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    if timestamps is None:
        timestamps = np.arange(len(values))
    return RawSeries(np.asarray(timestamps), values, source)


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    path = write_csv(tmp_path, "timestamp,a,b\n0,1.0,2.0\n1,3.0,4.0\n2,5.0,6.0\n")
    s = load_csv(path, ["a", "b"])
    assert len(s) == 3
    assert s.values.shape == (3, 2)
    np.testing.assert_array_equal(s.timestamps, [0, 1, 2])


def test_load_csv_nan_marked_missing_not_zero(tmp_path):
    path = write_csv(tmp_path, "timestamp,a\n0,1.0\n1,NaN\n2,\n3,4.0\n")
    s = load_csv(path, ["a"])
    assert np.isnan(s.values[1, 0]) and np.isnan(s.values[2, 0])
    assert s.values[3, 0] == 4.0


def test_load_csv_many_columns_select_six(tmp_path):
    cols = [f"c{i}" for i in range(104)]
    header = "timestamp," + ",".join(cols)
    row = "0," + ",".join(str(i) for i in range(104))
    row2 = "1," + ",".join(str(i + 1) for i in range(104))
    path = write_csv(tmp_path, header + "\n" + row + "\n" + row2 + "\n")
    s = load_csv(path, ["c3", "c10", "c20", "c50", "c99", "c103"])
    assert s.values.shape[1] == 6


def test_load_csv_unknown_column(tmp_path):
    path = write_csv(tmp_path, "timestamp,a\n0,1\n")
    with pytest.raises(ValueError, match="unknown columns"):
        load_csv(path, ["a", "nope"])


def test_load_csv_unparsable_row_reports_line(tmp_path):
    path = write_csv(tmp_path, "timestamp,a\n0,1.0\nnot-a-number,2.0\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path, ["a"])


# ---------------------------------------------------------------------------
# clean
# ---------------------------------------------------------------------------

def test_clean_forward_fill():
    s = series([1.0, np.nan, 3.0])
    out = clean(s, quantile_fence_k=100.0)   # fence wide open
    np.testing.assert_array_equal(out.values[:, 0], [1.0, 1.0, 3.0])


def test_clean_drops_leading_missing():
    s = series([np.nan, np.nan, 5.0, np.nan])
    out = clean(s, quantile_fence_k=100.0)
    np.testing.assert_array_equal(out.values[:, 0], [5.0, 5.0])
    np.testing.assert_array_equal(out.timestamps, [2, 3])


def test_clean_literal_quantile_rule():
    # values 1..10: Q1 = 3.25, Q3 = 7.75 under linear interpolation, so the
    # k=0 fences keep exactly {4, 5, 6, 7}
    assert np.quantile(np.arange(1.0, 11.0), 0.25) == 3.25
    assert np.quantile(np.arange(1.0, 11.0), 0.75) == 7.75
    out = clean(series(np.arange(1.0, 11.0)), quantile_fence_k=0.0)
    np.testing.assert_array_equal(out.values[:, 0], [4.0, 5.0, 6.0, 7.0])


def test_clean_default_fence_keeps_all_of_1_to_10():
    out = clean(series(np.arange(1.0, 11.0)), quantile_fence_k=1.5)
    assert len(out) == 10


def test_clean_removes_duplicate_rows():
    # re-logged second: identical timestamp and values -> one row survives
    s = RawSeries(np.array([0, 1, 1, 2]),
                  np.array([[1.0], [2.0], [2.0], [3.0]]), "dup")
    out = clean(s, quantile_fence_k=100.0)
    np.testing.assert_array_equal(out.timestamps, [0, 1, 2])
    np.testing.assert_array_equal(out.values[:, 0], [1.0, 2.0, 3.0])

    # same second, different values: both kept (resampling merges them later)
    s2 = RawSeries(np.array([0, 1, 1]), np.array([[1.0], [2.0], [2.5]]), "dup2")
    assert len(clean(s2, quantile_fence_k=100.0)) == 3


def test_unsorted_timestamps_rejected():
    with pytest.raises(ValueError, match="sorted"):
        RawSeries(np.array([1, 0]), np.zeros((2, 1)))


def test_clean_idempotent_at_default_fence():
    rng = np.random.default_rng(0)
    s = series(rng.normal(size=400))
    once = clean(s, 1.5)
    twice = clean(once, 1.5)
    np.testing.assert_array_equal(once.values, twice.values)
    np.testing.assert_array_equal(once.timestamps, twice.timestamps)


def test_clean_empty_after_cleaning_raises():
    s = series([np.nan, np.nan])
    with pytest.raises(ValueError):
        clean(s, 1.5)


# ---------------------------------------------------------------------------
# resample
# ---------------------------------------------------------------------------

def test_resample_identity():
    s = series([1.0, 2.0, 3.0])
    out = resample(s, 1)
    np.testing.assert_array_equal(out.values, s.values)
    np.testing.assert_array_equal(out.timestamps, s.timestamps)


def test_resample_two_point_mean():
    s = series([2.0, 4.0], timestamps=[0, 1])
    out = resample(s, 2)
    assert len(out) == 1
    assert out.values[0, 0] == 3.0
    assert out.timestamps[0] == 1   # last row's timestamp in the bucket


def test_resample_long_series_lands_under_100():
    n = 10_000
    s = series(np.sin(np.arange(n) / 50.0), timestamps=np.arange(n))
    width = auto_resample_width(n)
    assert width == 100
    out = resample(s, width)
    assert len(out) <= 100


def test_resample_invalid_width():
    with pytest.raises(ValueError):
        resample(series([1.0]), 0)


# ---------------------------------------------------------------------------
# windowize
# ---------------------------------------------------------------------------

def test_windowize_250_steps():
    s = series(np.arange(250.0))
    ws = windowize(s)
    assert len(ws) == 3
    assert not (ws.tags[0] | ws.tags[1])
    assert "padded" in ws.tags[2]
    np.testing.assert_array_equal(ws.data[2, 50:, 0], np.full(50, 249.0))
    assert ws.origins == ["test#0", "test#1", "test#2"]


def test_windowize_exact_fit():
    ws = windowize(series(np.arange(100.0)))
    assert len(ws) == 1 and not ws.tags[0]


def test_windowize_90_step_series_pads():
    ws = windowize(series(np.arange(90.0)))
    assert len(ws) == 1 and "padded" in ws.tags[0]
    np.testing.assert_array_equal(ws.data[0, 90:, 0], np.full(10, 89.0))


@pytest.mark.parametrize("n_rows", [10, 55, 99])
def test_windowize_10_to_99_rows_gives_one_padded_window(n_rows):
    ws = windowize(series(np.arange(float(n_rows))))
    assert ws.data.shape == (1, 100, 1) and ws.tags == [frozenset({"padded"})]
    np.testing.assert_array_equal(ws.data[0, :n_rows, 0], np.arange(float(n_rows)))
    assert np.all(ws.data[0, n_rows:, 0] == n_rows - 1)


def test_windowize_short_remainder_discarded():
    ws = windowize(series(np.arange(105.0)))
    assert len(ws) == 1


def test_windowize_below_minimum_yields_nothing():
    ws = windowize(series(np.arange(5.0)))
    assert len(ws) == 0 and ws.data.shape == (0, 100, 1)
    assert ws.tags == [] and ws.origins == []


@pytest.mark.parametrize("n_rows", [1, 9])
def test_windowize_below_ten_rows_gives_an_empty_set(n_rows):
    assert len(windowize(series(np.arange(float(n_rows))))) == 0


def test_windowize_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        windowize(RawSeries(np.array([], dtype=np.int64), np.zeros((0, 1)), "x"))


def test_windowize_concat_reproduces_prefix():
    s = series(np.arange(230.0))
    ws = windowize(s)
    unpadded = [i for i, tags in enumerate(ws.tags) if "padded" not in tags]
    joined = ws.data[unpadded, :, 0].reshape(-1)
    np.testing.assert_array_equal(joined, s.values[:len(joined), 0])


# ---------------------------------------------------------------------------
# split / window type
# ---------------------------------------------------------------------------

def make_windows(n):
    data = np.arange(float(n))[:, None, None] * np.ones((n, 100, 6))
    return WindowSet(data, origins=[f"w{i}" for i in range(n)])


def test_split_2950_gives_295_test():
    c = split(make_windows(2950), 0.10, seed=1)
    assert len(c.test_idx) == 295 and len(c.train_idx) == 2655


def test_split_deterministic():
    ws = make_windows(50)
    a = split(ws, 0.10, seed=3)
    b = split(ws, 0.10, seed=3)
    assert a.test_idx == b.test_idx and a.train_idx == b.train_idx


def test_split_disjoint_exhaustive():
    c = split(make_windows(37), 0.10, seed=4)
    assert sorted(c.train_idx + c.test_idx) == list(range(37))
    assert not set(c.train_idx) & set(c.test_idx)


def test_split_proportion_within_one_window():
    for n in (10, 23, 101, 999):
        c = split(make_windows(n), 0.10, seed=5)
        assert abs(len(c.test_idx) - 0.10 * n) <= 1


def test_split_too_few_windows():
    with pytest.raises(ValueError, match="at least 10"):
        split(make_windows(5), 0.10, seed=0)


@pytest.mark.parametrize("n, fraction", [(40, -0.1), (40, 0.0), (40, 1.0), (40, 1.5),
                                         (10, 0.01), (10, 0.96)])
def test_split_rejects_a_fraction_that_empties_a_side(n, fraction):
    with pytest.raises(ValueError, match="leaves a side empty"):
        split(make_windows(n), fraction, seed=0)


def test_window_set_anomalous_is_step_or_spikes():
    tags = [{"step"}, {"spikes"}, {"point_noise"}, {"salt_pepper"}, set(), {"padded"},
            {"step", "salt_pepper"}, {"spikes", "point_noise"}, {"step", "spikes"}]
    ws = WindowSet(np.zeros((len(tags), 100, 6)), tags)
    np.testing.assert_array_equal(ws.anomalous, [True, True, False, False, False, False,
                                                 True, True, True])
    assert ws.anomalous.dtype == bool
    assert ws.tags[0] == frozenset({"step"}) and ws.origins == [""] * len(tags)


def test_window_set_subset_keeps_index_order():
    ws = make_windows(12)
    ws.tags[7] = frozenset({"step"})
    sub = ws.subset([7, 2, 9])
    assert sub.origins == ["w7", "w2", "w9"]
    assert sub.data[:, 0, 0].tolist() == [7.0, 2.0, 9.0]
    assert sub.tags == [frozenset({"step"}), frozenset(), frozenset()]
    assert sub.anomalous.tolist() == [True, False, False]
    assert len(ws.subset([])) == 0


def test_window_set_concat_appends_in_order():
    both = WindowSet.concat([make_windows(3), make_windows(2).subset([1])])
    assert both.origins == ["w0", "w1", "w2", "w1"]
    assert both.data[:, 0, 0].tolist() == [0.0, 1.0, 2.0, 1.0]


def test_window_requires_100_rows():
    with pytest.raises(ValueError, match=r"\(n, 100, F\), got shape \(2, 90, 6\)"):
        WindowSet(np.zeros((2, 90, 6)))


@pytest.mark.parametrize("shape", [(100,), (100, 6), (2, 100, 6, 1), ()])
def test_window_requires_2d_data(shape):
    """Every window is (N, F), so a window set is one (n, N, F) array."""
    with pytest.raises(ValueError, match=r"\(n, 100, F\)"):
        WindowSet(np.zeros(shape))


@pytest.mark.parametrize("tags, origins", [([set()] * 2, None), (None, ["a"] * 4),
                                           ([set()] * 4, ["a"] * 3)])
def test_window_set_needs_one_tag_set_and_origin_per_window(tags, origins):
    with pytest.raises(ValueError, match="3 windows need 3 tag sets and origins"):
        WindowSet(np.zeros((3, 100, 6)), tags, origins)


def test_corpus_split_validated():
    ws = make_windows(10)
    with pytest.raises(ValueError, match="disjoint"):
        Corpus(ws, [0, 1, 2], [2, 3, 4, 5, 6, 7, 8, 9])


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_synth_default_shape():
    c = synth_generate(seed=0)
    assert c.windows.data.shape == (2950, 100, 6)
    assert c.windows.origins[:2] == ["synth#0", "synth#1"]
    assert not c.windows.anomalous.any()
    assert len(c.test_idx) == 295


def test_synth_flat_features_are_flat(small_corpus):
    data = small_corpus.windows.data.reshape(-1, 6)
    stds = data.std(axis=0)
    assert stds[4] / stds[0] < 0.01
    assert stds[5] / stds[0] < 0.01


def test_synth_deterministic():
    a = synth_generate(SynthParams(n_windows=20), seed=9)
    b = synth_generate(SynthParams(n_windows=20), seed=9)
    assert np.array_equal(a.windows.data, b.windows.data)
    assert a.train_idx == b.train_idx


def test_synth_invalid_counts():
    with pytest.raises(ValueError):
        SynthParams(n_windows=5)


def test_every_emitted_window_is_100_by_6(small_corpus):
    assert small_corpus.windows.data.shape[1:] == (100, 6)
