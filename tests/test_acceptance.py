"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Criterion 6 drives the full default-scale pipeline through the
CLI twice (criterion 7 compares the two reports byte for byte), so this
module takes a few minutes.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from t2vad import detect, ndtensor as nd
from t2vad.autoenc import AEConfig, build_recon_ae, build_t2v_ae
from t2vad.cli import main
from t2vad.detect.deepsvdd import build_network
from t2vad.detect.ocsvm import NU, TOL
from t2vad.dtw import dtw_batch, dtw_bruteforce
from t2vad.evaluate import Confusion, prf1
from t2vad.pipeline import RawSeries, WindowSet, clean, split, windowize
from t2vad.rng import make_rng
from t2vad.t2v import T2VLayer


def report_pass(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    start = time.time()
    rng = make_rng(2002)
    t2v_ae = build_t2v_ae(
        AEConfig(variant="t2v", k=3, decoder_layers=3, filters=4, kernel=3, seed=2),
        10, 2)
    err_t2v = nd.grad_check(t2v_ae.stack, rng.normal(size=(1, 10, 2)),
                            rng.normal(size=(1, 10, 2)))

    rng = make_rng(3000)
    recon_ae = build_recon_ae(
        AEConfig(variant="reconstruction", encoder_layers=1, filters=4, kernel=3,
                 seed=0),
        10, 2)
    err_recon = nd.grad_check(recon_ae.stack, rng.normal(size=(1, 10, 2)),
                              rng.normal(size=(1, 10, 2)))

    rng = make_rng(31)
    svdd_net = build_network(6, (8, 4), rng)
    x = rng.normal(size=(16, 6))
    center = svdd_net.forward(x).mean(axis=0) + 0.1
    err_svdd = nd.grad_check(svdd_net, x, np.broadcast_to(center, (16, 4)).copy())

    elapsed = time.time() - start
    assert err_t2v < 1e-4, err_t2v
    assert err_recon < 1e-4, err_recon
    assert err_svdd < 1e-4, err_svdd
    assert elapsed < 10.0, elapsed
    report_pass(1, f"grad_check t2v={err_t2v:.1e} recon={err_recon:.1e} "
                   f"svdd={err_svdd:.1e} in {elapsed:.1f}s (< 1e-4, < 10s)")


# ---------------------------------------------------------------------------
# 2. DTW oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_dtw_oracle_equivalence():
    start = time.time()
    rng = make_rng(77)
    worst = 0.0
    for _ in range(200):
        while True:
            na = int(rng.integers(1, 9))
            nb = int(rng.integers(1, 9))
            if na * nb <= 64:
                break
        f = int(rng.integers(1, 4))
        a = rng.normal(size=(na, f))
        b = rng.normal(size=(nb, f))
        worst = max(worst, abs(dtw_batch(a[None], b[None])[0] - dtw_bruteforce(a, b)))
    elapsed = time.time() - start
    assert worst <= 1e-9, worst
    assert elapsed < 5.0, elapsed
    report_pass(2, f"dtw == bruteforce on 200 pairs, max |diff| = {worst:.2e} "
                   f"in {elapsed:.1f}s (< 1e-9, < 5s)")


# ---------------------------------------------------------------------------
# 3. embedding-definition conformance
# ---------------------------------------------------------------------------

def entrywise_embedding(layer, x):
    out = np.empty((layer.n, layer.k))
    for row in range(layer.n):
        out[row, 0] = sum(x[row, j] * layer.w0[j, 0] for j in range(layer.f)) \
            + layer.b0[row, 0]
        for col in range(layer.k - 1):
            pre = sum(x[row, j] * layer.w[j, col] for j in range(layer.f)) \
                + layer.b[row, col]
            out[row, col + 1] = math.sin(pre)
    return out


def test_criterion_3_embedding_conformance():
    rng = make_rng(88)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        f = int(rng.integers(1, 5))
        k = int(rng.integers(2, 7))
        layer = T2VLayer(n, f, k, rng=rng)
        layer.b0[...] = rng.normal(size=(n, 1))
        layer.b[...] = rng.normal(size=(n, k - 1))
        x = rng.normal(size=(n, f))
        out = layer.forward(x[None])[0][0]
        worst = max(worst, float(np.max(np.abs(out - entrywise_embedding(layer, x)))))
        assert np.all(out[:, 1:] >= -1.0) and np.all(out[:, 1:] <= 1.0)
    assert worst < 1e-12, worst

    ref = T2VLayer(100, 6, 7, rng=make_rng(89))
    emb = ref.forward(make_rng(90).normal(size=(1, 100, 6)))[0].reshape(-1)
    assert emb.shape == (700,)
    report_pass(3, f"embedding matches entrywise oracle on 100 instances "
                   f"(max diff {worst:.1e} < 1e-12); sine columns in [-1,1]; "
                   f"K=7, N=100 gives a 700-long vector")


# ---------------------------------------------------------------------------
# 4. pipeline conformance
# ---------------------------------------------------------------------------

def test_criterion_4_pipeline_conformance():
    fenced = clean(RawSeries(np.arange(10), np.arange(1.0, 11.0)[:, None], "q"),
                   quantile_fence_k=0.0)
    assert fenced.values[:, 0].tolist() == [4.0, 5.0, 6.0, 7.0]

    filled = clean(RawSeries(np.arange(3), np.array([[1.0], [np.nan], [3.0]]), "ff"),
                   quantile_fence_k=100.0)
    assert filled.values[:, 0].tolist() == [1.0, 1.0, 3.0]

    ws = windowize(RawSeries(np.arange(250), np.arange(250.0)[:, None], "w"))
    assert len(ws) == 3 and "padded" in ws.tags[2]
    assert np.all(ws.data[2, 50:, 0] == 249.0)
    short = windowize(RawSeries(np.arange(90), np.arange(90.0)[:, None], "s"))
    assert len(short) == 1 and "padded" in short.tags[0]

    corpus = split(WindowSet(np.zeros((2950, 100, 6))), 0.10, seed=3)
    assert len(corpus.train_idx) == 2655 and len(corpus.test_idx) == 295
    report_pass(4, "quantile fence keeps {4,5,6,7}; forward fill; 100-step "
                   "windowing pads with the last row; 2950 -> 2655/295 split")


# ---------------------------------------------------------------------------
# 5. detector sanity suite
# ---------------------------------------------------------------------------

def test_criterion_5_detector_sanity():
    rng = make_rng(505)
    inliers = rng.normal(size=(500, 16))
    directions = rng.normal(size=(25, 16))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    outliers = rng.normal(size=(25, 16)) + 10.0 * directions
    labels = [False] * 500 + [True] * 25
    x_all = np.concatenate([inliers, outliers])

    cfg = detect.DetectorConfig(seed=42)
    f1_by_kind = {}
    for kind in detect.KINDS:
        model = detect.fit([kind], inliers.copy(), cfg)[kind]
        preds = detect.score_many(model, x_all) > model.threshold
        tally = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for p, l in zip(preds, labels):
            key = ("t" if p == l else "f") + ("p" if p else "n")
            tally[key] += 1
        _, _, f1 = prf1(Confusion(**tally))
        f1_by_kind[kind] = f1
        assert f1 >= 0.9, (kind, f1, tally)

        # score orientation: a 10-sigma offset raises the score on >= 95%
        offs = rng.normal(size=(500, 16))
        offs /= np.linalg.norm(offs, axis=1, keepdims=True)
        clean_scores = detect.score_many(model, inliers)
        shifted_scores = detect.score_many(model, inliers + 10.0 * offs)
        assert np.mean(shifted_scores > clean_scores) >= 0.95, kind

    ocsvm = detect.fit(["ocsvm"], inliers.copy(), cfg)["ocsvm"]
    alpha = ocsvm.state["alpha_full"]
    box = ocsvm.state["box"]
    assert np.all(alpha >= -1e-12) and np.all(alpha <= box + 1e-12)
    assert abs(alpha.sum() - 1.0) < 1e-6
    # free SVs sit on the boundary to within the solver tolerance, so count
    # only points clearly outside it as the nu-bounded outlier fraction
    nu_fraction = float(np.mean(detect.score_many(ocsvm, inliers) > TOL))
    assert nu_fraction <= NU + 0.02

    assert detect.average_path_length(2) == 1.0

    ee = detect.fit(["ee"], inliers, cfg)["ee"]
    eigenvalues = np.linalg.eigvalsh(ee.state["cov"])
    assert eigenvalues.min() >= -1e-10

    summary = " ".join(f"{k}={v:.2f}" for k, v in f1_by_kind.items())
    report_pass(5, f"F1 on 10-sigma outliers: {summary} (all >= 0.9); OCSVM dual "
                   f"feasible, outlier fraction {nu_fraction:.3f} <= nu+0.02; "
                   f"c(2)==1; EE covariance PSD")


# ---------------------------------------------------------------------------
# 6 + 7. end-to-end synthetic analog, rerun determinism
# ---------------------------------------------------------------------------

MASTER_SEED = "123"


def run_pipeline(out_dir):
    """Full default-scale pipeline through the CLI; returns elapsed seconds.

    Runs with relative paths inside `out_dir` so the configs echoed into the
    outputs are identical between reruns (criterion 7 compares raw bytes).
    """
    cwd = os.getcwd()
    os.chdir(out_dir)
    start = time.time()
    try:
        steps = [
            ["generate", "--seed", MASTER_SEED, "--out", "corpus.json"],
            ["train", "--corpus", "corpus.json", "--variant", "t2v",
             "--seed", MASTER_SEED, "--out", "t2v.json"],
            ["train", "--corpus", "corpus.json", "--variant", "reconstruction",
             "--seed", MASTER_SEED, "--out", "recon.json"],
            ["fit-detector", "--corpus", "corpus.json", "--model", "t2v.json",
             "--kind", "all", "--seed", MASTER_SEED, "--out", "det.json"],
            ["build-testsets", "--corpus", "corpus.json",
             "--seed", MASTER_SEED, "--out", "suite.json"],
            ["evaluate", "--suite", "suite.json", "--t2v-model", "t2v.json",
             "--recon-model", "recon.json",
             "--detectors", *[f"det.{k}.json" for k in detect.KINDS],
             "--seed", MASTER_SEED, "--out", "report.json"],
        ]
        for step in steps:
            assert main(step) == 0, step
    finally:
        os.chdir(cwd)
    return time.time() - start


@pytest.fixture(scope="module")
def e2e_runs(tmp_path_factory):
    first = tmp_path_factory.mktemp("run1")
    second = tmp_path_factory.mktemp("run2")
    t1 = run_pipeline(first)
    t2 = run_pipeline(second)
    return {"dirs": (first, second), "seconds": (t1, t2)}


def test_criterion_6_end_to_end_synthetic_analog(e2e_runs):
    out_dir = e2e_runs["dirs"][0]
    elapsed = e2e_runs["seconds"][0]
    report = json.loads((out_dir / "report.json").read_text())
    results = report["results"]
    t2v_methods = [m for m in results if m.startswith("t2v_")]

    # (a) training converged: final loss under half the initial, per model
    for name in ("t2v.json", "recon.json"):
        curve = json.loads((out_dir / name).read_text())["loss_curve"]
        assert curve[-1] < 0.5 * curve[0], name
        means = np.array(curve).reshape(-1, 5).mean(axis=1)
        assert np.all(np.diff(means) <= 1e-12), name   # smoothed non-increasing
    # ... and Deep SVDD's objective ends within 10% of its minimum, on the same check
    svdd = json.loads((out_dir / "det.deep_svdd.json").read_text())["state"]["loss_curve"]
    assert svdd[-1] <= 1.1 * min(svdd), svdd
    assert np.all(np.diff(np.array(svdd).reshape(-1, 5).mean(axis=1)) <= 1e-12), svdd

    # (b) clean all-feature anomalies: baseline and some embedding method >= 0.8
    assert results["recon_ae"]["A-6F"]["f1"] >= 0.8
    best_t2v = max(results[m]["A-6F"]["f1"] for m in t2v_methods)
    assert best_t2v >= 0.8

    # (c) noise-fragility direction: baseline precision declines under noise
    assert (results["recon_ae"]["AN-6F"]["precision"]
            < results["recon_ae"]["A-6F"]["precision"])

    # (d) noise-robustness direction: some embedding method barely moves
    smallest_drop = min(results[m]["A-4F"]["f1"] - results[m]["AN-4F"]["f1"]
                        for m in t2v_methods)
    assert smallest_drop < 0.15

    # sanity floor everywhere
    for method, per_set in results.items():
        for key, entry in per_set.items():
            assert entry["f1"] > 0.5, (method, key)

    assert elapsed < 1800.0, elapsed
    report_pass(6, f"e2e analog in {elapsed:.0f}s: baseline A-6F F1 "
                   f"{results['recon_ae']['A-6F']['f1']:.2f}, best embedding-path "
                   f"A-6F F1 {best_t2v:.2f}; baseline precision "
                   f"{results['recon_ae']['A-6F']['precision']:.2f} -> "
                   f"{results['recon_ae']['AN-6F']['precision']:.2f} under noise; "
                   f"smallest 4F noise drop {smallest_drop:+.3f}")


def test_criterion_7_rerun_is_byte_identical(e2e_runs):
    first, second = e2e_runs["dirs"]
    a = (first / "report.json").read_bytes()
    b = (second / "report.json").read_bytes()
    assert a == b
    report_pass(7, f"rerun with the same master seed reproduced the report "
                   f"byte-for-byte ({len(a)} bytes)")


# ---------------------------------------------------------------------------
# 8. metric correctness
# ---------------------------------------------------------------------------

def test_criterion_8_metric_correctness():
    p, r, f1 = prf1(Confusion(tp=2, fp=1, tn=0, fn=1))
    assert (p, r, f1) == (2 / 3, 2 / 3, 2 / 3)
    assert prf1(Confusion(tp=0, fp=0, tn=4, fn=0)) == (0.0, 0.0, 0.0)
    report_pass(8, "prf1(tp=2,fp=1,fn=1) == (2/3, 2/3, 2/3) exactly; "
                   "0/0 convention returns zeros")
