from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2vad import detect, evaluate
from t2vad.autoenc import embed_many, score_components_many
from t2vad.evaluate import (METHODS, Confusion, EvalReport, _entry, confusion,
                            format_report_table, prf1, run_benchmark, score_table)
from t2vad.inject import TestSuite
from t2vad.pipeline import WindowSet


# ---------------------------------------------------------------------------
# confusion
# ---------------------------------------------------------------------------

def test_confusion_all_correct():
    c = confusion([True, False], [True, False])
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 0, 1, 0)


def test_confusion_constant_normal_predictor():
    labels = [True] * 5 + [False] * 5
    c = confusion([False] * 10, labels)
    assert c.fn == 5 and c.tn == 5 and c.tp == 0 and c.fp == 0


def test_confusion_hand_tallied_eight_elements():
    preds = np.array([True, False, True, False, True, True, False, False])
    labels = np.array([True, True, False, False, True, False, True, False])
    # manual tally: tp rows 0,4; fp rows 2,5; fn rows 1,6; tn rows 3,7
    c = confusion(preds, labels)
    assert (c.tp, c.fp, c.tn, c.fn) == (2, 2, 2, 2)
    assert c.tp + c.fp + c.tn + c.fn == 8
    assert all(type(n) is int for n in (c.tp, c.fp, c.tn, c.fn))


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        confusion([False], [False, False])


@given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=40))
@settings(max_examples=60, deadline=None)
def test_confusion_counts_match_a_per_element_tally(pairs):
    preds = [p for p, _ in pairs]
    labels = [t for _, t in pairs]
    c = confusion(preds, labels)
    assert c.tp == sum(p and t for p, t in pairs)
    assert c.fp == sum(p and not t for p, t in pairs)
    assert c.fn == sum(t and not p for p, t in pairs)
    assert c.tp + c.fp + c.tn + c.fn == len(pairs)


def test_confusion_rejects_negative():
    with pytest.raises(ValueError):
        Confusion(tp=-1)


# ---------------------------------------------------------------------------
# prf1
# ---------------------------------------------------------------------------

def test_prf1_hand_example():
    p, r, f1 = prf1(Confusion(tp=2, fp=1, tn=0, fn=1))
    assert p == 2 / 3 and r == 2 / 3 and f1 == 2 / 3


def test_prf1_degenerate_zero_convention():
    assert prf1(Confusion(tp=0, fp=0, tn=5, fn=0)) == (0.0, 0.0, 0.0)


def test_prf1_table_formats_like_reference_row():
    # a perfect-precision row renders as 1 / 0.99 / 0.99
    entry = {"precision": 1.0, "recall": 0.99, "f1": 0.99,
             "confusion": {"tp": 99, "fp": 0, "tn": 100, "fn": 1}}
    assert METHODS == ("recon_ae", "t2v_iforest", "t2v_lof", "t2v_ocsvm", "t2v_ee",
                       "t2v_deep_svdd")
    results = {m: {k: entry for k in TestSuite.KEYS} for m in METHODS}
    table = format_report_table(EvalReport(results, {}))
    row = [line for line in table.splitlines() if line.startswith("A-6F")][0]
    cells = [c.strip() for c in row.replace("|", " ").split()]
    assert cells[1:4] == ["0.99", "1", "0.99"]   # F1, precision, recall


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_prf1_bounds_and_harmonic_identity(tp, fp, tn, fn):
    p, r, f1 = prf1(Confusion(tp, fp, tn, fn))
    assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
    if p + r > 0:
        assert f1 == 2 * p * r / (p + r)
        assert f1 <= min(2 * p, 2 * r)


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_adding_true_positive_never_decreases_recall(tp, fp, tn, fn):
    _, r0, _ = prf1(Confusion(tp, fp, tn, fn))
    _, r1, _ = prf1(Confusion(tp + 1, fp, tn, fn))
    assert r1 >= r0


# ---------------------------------------------------------------------------
# run_benchmark
# ---------------------------------------------------------------------------

def test_benchmark_grid_has_72_numbers(small_e2e):
    report = run_benchmark(*bench_args(small_e2e))
    count = sum(1 for method in report.results.values()
                for entry in method.values()
                for metric in ("precision", "recall", "f1")
                if metric in entry)
    assert count == 6 * 4 * 3 == 72


def test_benchmark_deterministic(small_e2e):
    kw = dict(suite=small_e2e["suite"], t2v_model=small_e2e["t2v_model"],
              recon_model=small_e2e["recon_model"], detectors=all_detectors(small_e2e),
              config_digest="abc")
    a = run_benchmark(**kw)
    b = run_benchmark(**kw)
    assert a.results == b.results
    assert a.composition == b.composition


def test_benchmark_missing_detector_rejected(small_e2e):
    partial = all_detectors(small_e2e)
    del partial["lof"]
    with pytest.raises(ValueError, match="missing detectors.*lof"):
        run_benchmark(small_e2e["suite"], small_e2e["t2v_model"],
                      small_e2e["recon_model"], partial)


def test_benchmark_missing_model_rejected(small_e2e):
    with pytest.raises(ValueError, match="missing trained model"):
        run_benchmark(small_e2e["suite"], None, small_e2e["recon_model"],
                      all_detectors(small_e2e))


def test_benchmark_embeds_suite_composition(small_e2e):
    report = run_benchmark(*bench_args(small_e2e))
    for key in TestSuite.KEYS:
        comp = report.composition[key]
        assert comp["n"] == len(small_e2e["suite"].sets[key])
        assert comp["anomalous"] == set_windows(small_e2e["suite"], key).anomalous.sum() > 0
        assert type(comp["anomalous"]) is int
    assert report.composition["AN-6F"]["noise_tagged"] >= 1
    assert report.composition["A-6F"]["noise_tagged"] == 0


def test_report_timestamp_defaults_to_none(small_e2e):
    report = run_benchmark(*bench_args(small_e2e))
    assert report.timestamp is None


# ---------------------------------------------------------------------------
# scoring each distinct window once
# ---------------------------------------------------------------------------

def set_windows(suite, key):
    """The suite's set `key` as a WindowSet of its own copy of its windows."""
    return suite.windows.subset(suite.sets[key])


def per_set_results(suite, t2v_model, recon_model, detectors):
    """The report grid scored set by set, every window of every set."""
    results = {method: {} for method in METHODS}
    for key in TestSuite.KEYS:
        windows = set_windows(suite, key)
        labels = windows.anomalous
        calib = detectors[detect.BASELINE]
        base = detect.score_many(calib, score_components_many(recon_model, windows.data))
        results[detect.BASELINE][key] = _entry(confusion(base > calib.threshold, labels))
        embeddings = embed_many(t2v_model, windows.data)
        for kind in detect.KINDS:
            model = detectors[kind]
            preds = detect.score_many(model, embeddings) > model.threshold
            results[f"t2v_{kind}"][key] = _entry(confusion(preds, labels))
    return results


def all_detectors(e2e):
    """The model of every `detect.SPECS` kind: the baseline's calibration and
    the five detectors."""
    return {detect.BASELINE: e2e["calib"], **e2e["detectors"]}


def bench_args(e2e, suite=None):
    return suite or e2e["suite"], e2e["t2v_model"], e2e["recon_model"], all_detectors(e2e)


def test_benchmark_equals_the_per_set_loop(small_e2e):
    report = run_benchmark(*bench_args(small_e2e))
    assert report.results == per_set_results(*bench_args(small_e2e))


@pytest.mark.parametrize("method", METHODS)
def test_a_window_scoring_at_its_threshold_counts_as_normal(small_e2e, method):
    """One normal window in every set, its method's threshold set to its score:
    each cell holds it as a true negative, and as a false positive once the
    threshold is one ulp lower."""
    e = small_e2e
    probe = WindowSet(e["corpus"].test_windows.data[:1])
    suite = TestSuite(probe, {key: [0] for key in TestSuite.KEYS}, seed=0)
    kind = method.removeprefix("t2v_")
    scores, _ = score_table(*bench_args(e, suite))
    score = scores[METHODS.index(method), 0]
    for threshold, fp_tn in ((score, (0, 1)), (np.nextafter(score, -np.inf), (1, 0))):
        detectors = all_detectors(e)
        detectors[kind] = replace(detectors[kind], threshold=threshold)
        report = run_benchmark(suite, e["t2v_model"], e["recon_model"], detectors)
        for key in TestSuite.KEYS:
            counts = report.results[method][key]["confusion"]
            assert (counts["tp"], counts["fn"], counts["fp"], counts["tn"]) == (0, 0, *fp_tn)


def counted(monkeypatch):
    """Record the windows each scoring stage of `run_benchmark` receives."""
    seen = {"score_components_many": [], "embed_many": []}
    for name, calls in seen.items():
        real = getattr(evaluate, name)
        monkeypatch.setattr(evaluate, name,
                            lambda model, data, real=real, calls=calls:
                            calls.append(data) or real(model, data))
    return seen


def test_each_distinct_window_is_scored_once_in_first_occurrence_order(small_e2e,
                                                                        monkeypatch):
    seen = counted(monkeypatch)
    run_benchmark(*bench_args(small_e2e))
    windows = [w for key in TestSuite.KEYS for w in set_windows(small_e2e["suite"], key).data]
    distinct = []
    for w in windows:
        if not any(np.array_equal(w, d) for d in distinct):
            distinct.append(w)
    assert len(distinct) < len(windows)          # the sets share windows
    for calls in seen.values():
        assert len(calls) == 1 and np.array_equal(calls[0], np.array(distinct))


def test_four_identical_sets_score_n_windows(small_e2e, monkeypatch):
    a6f = set_windows(small_e2e["suite"], "A-6F")
    same = TestSuite(a6f, {key: np.arange(len(a6f)) for key in TestSuite.KEYS}, seed=0)
    seen = counted(monkeypatch)
    report = run_benchmark(*bench_args(small_e2e, same))
    assert [len(calls[0]) for calls in seen.values()] == [len(a6f)] * 2
    for method in METHODS:
        assert len({str(report.results[method][key]) for key in TestSuite.KEYS}) == 1


def test_nan_window_is_named_by_its_set_and_index_there(small_e2e):
    """The NaN window is AN-4F's own copy of its window 3, added as a new row."""
    suite = small_e2e["suite"]
    sets = dict(suite.sets, **{"AN-4F": suite.sets["AN-4F"].copy()})
    nan = suite.windows.subset(sets["AN-4F"][3:4])
    nan.data[0, 40, 2] = np.nan
    sets["AN-4F"][3] = len(suite.windows)
    broken = TestSuite(WindowSet.concat([suite.windows, nan]), sets, seed=0)
    with pytest.raises(ValueError, match="AN-4F window 3 contains NaN/Inf"):
        run_benchmark(*bench_args(small_e2e, broken))


def test_a_nan_window_shared_by_sets_is_named_by_the_first_set_holding_it(small_e2e):
    """A window the sets share is stored once; its first holder in KEYS order
    is named, at its index there."""
    suite = small_e2e["suite"]
    first = {key: list(suite.sets[key]) for key in TestSuite.KEYS}
    row = next(r for r in first["A-4F"] if r not in first["A-6F"] and r in first["AN-4F"])
    windows = suite.windows.data.copy()
    windows[row, 0, 0] = np.inf
    broken = TestSuite(WindowSet(windows, suite.windows.tags, suite.windows.origins),
                       suite.sets, seed=0)
    with pytest.raises(ValueError, match=f"A-4F window {first['A-4F'].index(row)} "
                                         "contains NaN/Inf"):
        run_benchmark(*bench_args(small_e2e, broken))


def test_distinct_window_scores_match_the_per_set_scores(small_e2e):
    e = small_e2e
    scores, thresholds = score_table(*bench_args(e))
    assert scores.dtype == np.float64 and scores.shape == (len(METHODS), len(e["suite"].windows))
    assert list(thresholds) == [e["calib"].threshold,
                                *(e["detectors"][kind].threshold for kind in detect.KINDS)]
    for key in TestSuite.KEYS:
        data = set_windows(e["suite"], key).data
        columns = e["suite"].sets[key]
        per_set = embed_many(e["t2v_model"], data)
        np.testing.assert_allclose(
            scores[0, columns],
            detect.score_many(e["calib"], score_components_many(e["recon_model"], data)),
            rtol=1e-12)
        for row, kind in enumerate(detect.KINDS, start=1):
            np.testing.assert_allclose(scores[row, columns],
                                       detect.score_many(e["detectors"][kind], per_set),
                                       rtol=1e-12)


def test_run_benchmark_only_counts_the_score_table(small_e2e, monkeypatch):
    """Every cell counts `score_table`'s columns of a set above the method's
    threshold; `run_benchmark` calls no scorer itself."""
    suite = small_e2e["suite"]
    m = len(suite.windows)
    scores = np.tile(np.arange(m, dtype=np.float64), (len(METHODS), 1)) * \
        np.arange(1, len(METHODS) + 1)[:, None]
    thresholds = np.full(len(METHODS), m / 2)
    monkeypatch.setattr(evaluate, "score_table", lambda *args: (scores, thresholds))

    def no_scoring(*args):
        raise AssertionError("run_benchmark scored a window itself")

    for name in ("score_components_many", "embed_many"):
        monkeypatch.setattr(evaluate, name, no_scoring)
    monkeypatch.setattr(evaluate.detect, "score_many", no_scoring)
    report = run_benchmark(*bench_args(small_e2e))
    for method, row, threshold in zip(METHODS, scores, thresholds):
        for key in TestSuite.KEYS:
            preds = row[suite.sets[key]] > threshold
            assert report.results[method][key] == \
                _entry(confusion(preds, set_windows(suite, key).anomalous))
