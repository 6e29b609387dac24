import math

import numpy as np
import pytest

from t2vad import autoenc, detect
from t2vad import ndtensor as nd
from t2vad.autoenc import (SCORE_CHUNK, AEConfig, build_recon_ae, build_t2v_ae, calibrate,
                           embed_many, feasible_encoder_layers, hyper_search,
                           score_components_many, train, validation_dtw)
from t2vad.evaluate import run_benchmark
from t2vad.dtw import dtw_batch
from t2vad.rng import make_rng


def constant_windows(n, value=0.7, f=6):
    return np.full((n, 100, f), value)


def zero_all_params(stack):
    for layer in stack.layers:
        for arr in layer.params().values():
            arr[...] = 0.0


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_t2v_ae_reference_shapes():
    cfg = AEConfig(variant="t2v", k=7, decoder_layers=3, seed=0)
    model = build_t2v_ae(cfg, 100, 6)
    x = make_rng(0).normal(size=(100, 6))
    assert model.stack.forward(x[None]).shape == (1, 100, 6)
    assert embed_many(model, x[None]).shape == (1, 700)


def test_t2v_ae_minimal_config():
    model = build_t2v_ae(AEConfig(variant="t2v", k=2, decoder_layers=1, seed=1), 4, 1)
    out = model.stack.forward(np.zeros((1, 4, 1)))
    assert out.shape == (1, 4, 1)


def test_t2v_ae_zero_init_zero_output():
    model = build_t2v_ae(AEConfig(variant="t2v", seed=2), 10, 3)
    zero_all_params(model.stack)
    out = model.stack.forward(np.zeros((1, 10, 3)))
    assert np.array_equal(out, np.zeros((1, 10, 3)))


def test_t2v_ae_wrong_variant():
    with pytest.raises(ValueError, match="expected 't2v'"):
        build_t2v_ae(AEConfig(variant="reconstruction"), 100, 6)


def test_recon_ae_bottleneck_25():
    cfg = AEConfig(variant="reconstruction", encoder_layers=2, seed=3)
    model = build_recon_ae(cfg, 100, 6)
    strides = [layer.stride for layer in model.stack.layers if isinstance(layer, nd.Conv1d)]
    assert 100 // math.prod(strides) == 25
    x = make_rng(1).normal(size=(100, 6))
    assert model.stack.forward(x[None]).shape == (1, 100, 6)


def test_recon_ae_identity_kernel():
    cfg = AEConfig(variant="reconstruction", encoder_layers=1, encoder_stride=1,
                   filters=1, kernel=1, seed=4)
    model = build_recon_ae(cfg, 100, 1)
    for layer in model.stack.layers:
        if isinstance(layer, nd.Conv1d):
            layer.kernels[...] = 1.0
            layer.bias[...] = 0.0
    x = np.abs(make_rng(2).normal(size=(100, 1)))   # positive: ReLU transparent
    np.testing.assert_allclose(model.stack.forward(x[None])[0], x, atol=1e-12)


def test_recon_ae_indivisible_length_rejected():
    cfg = AEConfig(variant="reconstruction", encoder_layers=3, seed=5)
    with pytest.raises(ValueError, match="divisible"):
        build_recon_ae(cfg, 100, 6)


def test_feasible_encoder_layers_clamp():
    assert feasible_encoder_layers(100, 2, 4) == 2
    assert feasible_encoder_layers(100, 2, 2) == 2
    assert feasible_encoder_layers(96, 2, 4) == 4


def test_recon_ae_output_shape_various_configs():
    for layers, filters in ((1, 8), (2, 4)):
        cfg = AEConfig(variant="reconstruction", encoder_layers=layers,
                       filters=filters, seed=6)
        model = build_recon_ae(cfg, 100, 6)
        assert model.stack.forward(np.zeros((1, 100, 6))).shape == (1, 100, 6)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_constant_corpus_reaches_small_loss():
    cfg = AEConfig(variant="t2v", k=3, decoder_layers=1, filters=4, epochs=200,
                   batch=8, seed=7)
    model = train(build_t2v_ae(cfg, 100, 6), constant_windows(50))
    assert model.loss_curve[-1] < 1e-3


def test_train_halves_loss_on_synthetic_corpus(small_corpus):
    cfg = AEConfig(variant="t2v", epochs=20, batch=8, seed=8)
    model = train(build_t2v_ae(cfg, 100, 6), small_corpus.train_windows.data)
    assert model.loss_curve[-1] < 0.5 * model.loss_curve[0]
    assert len(model.loss_curve) == cfg.epochs


def test_train_deterministic(small_corpus):
    def run():
        cfg = AEConfig(variant="t2v", epochs=3, seed=9)
        return train(build_t2v_ae(cfg, 100, 6), small_corpus.train_windows.data).loss_curve
    assert run() == run()


def test_train_rejects_wrong_window_shape():
    cfg = AEConfig(variant="t2v", seed=10)
    model = build_t2v_ae(cfg, 100, 6)
    with pytest.raises(ValueError, match="expects"):
        train(model, np.zeros((1, 100, 4)))


@pytest.mark.parametrize("shape", [(0, 100, 6), (100, 6)])
def test_train_rejects_an_empty_or_unbatched_array(shape):
    model = build_t2v_ae(AEConfig(variant="t2v", seed=10), 100, 6)
    with pytest.raises(ValueError, match=r"expects \(n > 0, 100, 6\)"):
        train(model, np.zeros(shape))


def test_train_aborts_on_nonfinite_loss():
    from t2vad.ndtensor import TrainingDiverged
    cfg = AEConfig(variant="t2v", k=3, decoder_layers=1, epochs=2, seed=12)
    model = build_t2v_ae(cfg, 100, 6)
    windows = np.zeros((4, 100, 6))
    windows[:, 0, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(model, windows)


def test_loss_curve_smoothed_non_increasing(small_corpus):
    cfg = AEConfig(variant="reconstruction", epochs=20, seed=11)
    model = train(build_recon_ae(cfg, 100, 6), small_corpus.train_windows.data)
    curve = np.array(model.loss_curve)
    means = curve.reshape(4, 5).mean(axis=1)
    assert np.all(np.diff(means) <= 1e-12)


# ---------------------------------------------------------------------------
# embed / reconstruct
# ---------------------------------------------------------------------------

def test_embed_reference_length_and_purity(small_e2e):
    model = small_e2e["t2v_model"]
    w = small_e2e["corpus"].windows.data[0]
    e1 = embed_many(model, w[None])[0]
    e2 = embed_many(model, w[None])[0]
    assert e1.shape == (700,)
    assert np.array_equal(e1, e2)


def test_embed_rejects_reconstruction_variant(small_e2e):
    with pytest.raises(ValueError, match="t2v variant"):
        embed_many(small_e2e["recon_model"], small_e2e["corpus"].windows.data[:1])


def test_embed_many_matches_single(small_e2e):
    model = small_e2e["t2v_model"]
    ws = small_e2e["corpus"].test_windows.data[:3]
    batch = embed_many(model, ws)
    for i, w in enumerate(ws):
        np.testing.assert_array_equal(batch[i], embed_many(model, w[None])[0])


def test_embed_many_is_the_t2v_output_reshaped_row_major(small_e2e):
    model = small_e2e["t2v_model"]
    ws = small_e2e["corpus"].test_windows.data[:5]
    t2v_out, _ = model.stack.layers[0].forward(ws)
    assert np.array_equal(embed_many(model, ws), t2v_out.reshape(len(ws), -1))


def test_embed_many_in_chunks_is_one_forward_pass_bitwise(small_e2e):
    model = small_e2e["t2v_model"]
    ws = np.concatenate([small_e2e["corpus"].windows.data] * 3)
    assert len(ws) > 2 * SCORE_CHUNK
    t2v_out, _ = model.stack.layers[0].forward(ws)
    assert np.array_equal(embed_many(model, ws), t2v_out.reshape(len(ws), -1))


def test_embed_many_of_900_windows_peaks_below_one_and_a_half_results(traced_peak):
    model = build_t2v_ae(AEConfig(variant="t2v", seed=3), 100, 6)
    ws = make_rng(4).normal(size=(900, 100, 6))
    assert traced_peak(embed_many, model, ws) < 1.5 * 900 * 700 * 8


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_embed_many_rejects_non_finite_window(small_e2e, value):
    ws = small_e2e["corpus"].train_windows.data[:6].copy()
    ws[2, 17, 3] = value
    ws[4, 0, 0] = value
    with pytest.raises(ValueError, match="window 2 contains NaN/Inf"):
        embed_many(small_e2e["t2v_model"], ws)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_reconstruct_rejects_non_finite_window(small_e2e, value):
    x = small_e2e["corpus"].train_windows.data[0].copy()
    x[50, 1] = value
    for model in (small_e2e["t2v_model"], small_e2e["recon_model"]):
        with pytest.raises(ValueError, match="window 0 contains NaN/Inf"):
            score_components_many(model, x[None])


def test_padded_rows_differ_only_via_bias_terms():
    """Rows holding the same (padded) value get identical X*w products, so any
    difference between their embedding rows traces back to the row biases."""
    rng = make_rng(12)
    model = build_t2v_ae(AEConfig(variant="t2v", k=4, seed=13), 100, 6)
    t2v = model.stack.layers[0]
    t2v.b0[...] = rng.normal(size=(100, 1))
    t2v.b[...] = rng.normal(size=(100, 3))
    data = rng.normal(size=(100, 6))
    data[90:] = data[89]              # padded tail
    emb = embed_many(model, data[None]).reshape(100, 4)
    for row in range(91, 100):
        base = data[90] @ t2v.w0[:, 0]
        assert emb[row, 0] - emb[90, 0] == pytest.approx(
            float(t2v.b0[row, 0] - t2v.b0[90, 0]), abs=1e-12)
        pre_base = data[90] @ t2v.w
        np.testing.assert_allclose(
            emb[row, 1:], np.sin(pre_base + t2v.b[row]), atol=1e-12)
        assert emb[90, 0] == pytest.approx(float(base + t2v.b0[90, 0]), abs=1e-12)


def test_trained_model_beats_untrained_on_dtw(small_corpus):
    cfg = AEConfig(variant="reconstruction", epochs=8, seed=14)
    trained = train(build_recon_ae(cfg, 100, 6), small_corpus.train_windows.data)
    untrained = build_recon_ae(AEConfig(variant="reconstruction", seed=15), 100, 6)
    probe = small_corpus.test_windows.data[:6]
    assert validation_dtw(trained, probe) < validation_dtw(untrained, probe)


def test_trained_on_constant_reconstructs_constant():
    windows = constant_windows(40, 0.3)
    cfg = AEConfig(variant="t2v", k=3, decoder_layers=1, filters=4, epochs=150,
                   batch=16, seed=16)
    model = train(build_t2v_ae(cfg, 100, 6), windows)
    xhat = model.stack.forward(windows[:1])[0]
    assert np.mean(np.abs(xhat - windows[0])) < 0.05


def test_reconstruct_finite_on_corpus(small_e2e):
    assert np.all(np.isfinite(
        small_e2e["t2v_model"].stack.forward(small_e2e["corpus"].test_windows.data)))


# ---------------------------------------------------------------------------
# composite score
# ---------------------------------------------------------------------------

def test_recon_score_zero_at_component_means(small_e2e):
    model = small_e2e["recon_model"]
    w = small_e2e["corpus"].train_windows.data[0]
    calib = calibrate(model, w[None])    # single window: means are its components
    score = detect.score_many(calib, score_components_many(model, w[None]))[0]
    assert score == pytest.approx(0.0, abs=1e-6)


def test_recon_score_training_mean_near_zero(small_e2e):
    model = small_e2e["recon_model"]
    calib = small_e2e["calib"]
    scores = detect.score_many(
        calib, score_components_many(model, small_e2e["corpus"].train_windows.data))
    assert abs(np.mean(scores)) < 0.1


def test_recon_score_monotone_in_each_component():
    calib = detect.DetectorModel(detect.BASELINE, np.array([1.0, 2.0, 3.0]),
                                 np.array([0.5, 1.0, 2.0]), {}, 0.0)
    base = detect.score_many(calib, np.array([[1.0, 2.0, 3.0]]))[0]
    for i in range(3):
        comps = np.array([[1.0, 2.0, 3.0]])
        comps[0, i] += 0.7
        assert detect.score_many(calib, comps)[0] > base


def test_recon_score_requires_calibration(small_e2e):
    e = small_e2e
    with pytest.raises(ValueError, match=r"missing detectors: \['recon_ae'\]"):
        run_benchmark(e["suite"], e["t2v_model"], e["recon_model"], detectors=e["detectors"])


def test_components_that_overflow_are_named_by_their_window(small_e2e, monkeypatch):
    """A finite window scaled by 1e160 reconstructs finite, but its MSE and DTW
    overflow: the error names that window, in a later chunk too."""
    monkeypatch.setattr(autoenc, "SCORE_CHUNK", 2)
    data = small_e2e["corpus"].test_windows.data[:4].copy()
    data[3] *= 1e160
    with pytest.raises(ValueError, match=r"components of window 3 overflow: \[inf"):
        score_components_many(small_e2e["recon_model"], data)


def test_big_step_scores_above_training_quantile(small_e2e):
    model = small_e2e["recon_model"]
    calib = small_e2e["calib"]
    corpus = small_e2e["corpus"]
    w = corpus.test_windows.data[0]
    sigma = w.std(axis=0)
    from t2vad.inject import inject_step
    spiked = inject_step(w, list(range(6)), onset=30,
                         magnitude_per_feature=10.0 * sigma)
    train_scores = detect.score_many(calib,
                                     score_components_many(model, corpus.train_windows.data))
    spiked_score = detect.score_many(calib, score_components_many(model, spiked[None]))[0]
    assert spiked_score > np.quantile(train_scores, 0.99)


def test_score_components_are_mse_mae_dtw(small_e2e):
    model = small_e2e["recon_model"]
    w = small_e2e["corpus"].test_windows.data[0]
    comps = score_components_many(model, w[None])[0]
    xhat = model.stack.forward(w[None])[0]
    assert comps[0] == pytest.approx(np.mean((xhat - w) ** 2))
    assert comps[1] == pytest.approx(np.mean(np.abs(xhat - w)))
    assert comps[2] == pytest.approx(dtw_batch(w[None], xhat[None])[0])


def chunk_spanning_windows(corpus, n=2 * SCORE_CHUNK + 5):
    """n distinct windows: the corpus windows, repeated with a growing offset."""
    data = corpus.windows.data
    return np.stack([data[i % len(data)] + 0.01 * (i // len(data)) for i in range(n)])


def test_score_components_many_equals_per_window_rows(small_e2e):
    model = small_e2e["recon_model"]
    windows = chunk_spanning_windows(small_e2e["corpus"])
    batched = score_components_many(model, windows)
    alone = np.concatenate([score_components_many(model, w[None]) for w in windows])
    assert batched.shape == (2 * SCORE_CHUNK + 5, 3)
    assert np.array_equal(batched, alone)


def test_calibrate_threshold_independent_of_chunking(small_e2e):
    model = small_e2e["recon_model"]
    windows = chunk_spanning_windows(small_e2e["corpus"])
    calib = calibrate(model, windows)
    comps = np.concatenate([score_components_many(model, w[None]) for w in windows])
    means = comps.mean(axis=0)
    stds = np.maximum(comps.std(axis=0), 1e-12)
    scores = ((comps - means) / stds).sum(axis=1)
    assert calib.threshold == float(np.quantile(scores, 0.99))
    assert np.array_equal(calib.scaler_mean, means) and np.array_equal(calib.scaler_std, stds)
    assert np.array_equal(detect.score_many(calib, comps),
                          [detect.score_many(calib, score_components_many(model, w[None]))[0]
                           for w in windows])


def written_out_baseline(comps, q=0.99):
    """The baseline rule on the (n, 3) components, written out on its own:
    (means, stds, training scores, threshold)."""
    means = comps.mean(0)
    stds = np.maximum(comps.std(0), 1e-12)
    scores = ((comps - means) / stds).sum(1)
    return means, stds, scores, np.quantile(scores, q)


# hand-made components whose MAE column is constant: its std is floored at 1e-12
ONE_CONSTANT_COLUMN = np.array([[1.0, 5.0, 2.0], [2.0, 5.0, 3.5], [4.0, 5.0, 1.0],
                                [0.5, 5.0, 9.0], [3.0, 5.0, 4.0]])


@pytest.mark.parametrize("case", ["training-windows", "one-window", "one-constant-column"])
def test_calibrate_and_score_many_are_bitwise_the_written_out_rule(small_e2e, monkeypatch,
                                                                    case):
    model = small_e2e["recon_model"]
    data = small_e2e["corpus"].train_windows.data[:1 if case == "one-window" else None]
    if case == "one-constant-column":
        comps = ONE_CONSTANT_COLUMN
        monkeypatch.setattr(autoenc, "score_components_many", lambda model, data: comps.copy())
    else:
        comps = score_components_many(model, data)
    means, stds, scores, threshold = written_out_baseline(comps)
    calib = calibrate(model, data)
    assert calib.scaler_mean.tobytes() == means.tobytes()
    assert calib.scaler_std.tobytes() == stds.tobytes()
    assert detect.score_many(calib, comps).tobytes() == scores.tobytes()
    assert calib.threshold == threshold
    floored = {"training-windows": [], "one-window": [0, 1, 2], "one-constant-column": [1]}
    assert list(np.flatnonzero(stds == 1e-12)) == floored[case]


@pytest.mark.parametrize("quantile", [0, 1.0, 1.5, -0.1])
def test_calibrate_rejects_a_threshold_quantile_outside_0_1(small_e2e, quantile):
    with pytest.raises(ValueError, match=r"^threshold quantile must be in \(0, 1\)$"):
        calibrate(small_e2e["recon_model"], small_e2e["corpus"].train_windows.data[:8],
                  quantile)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_score_components_many_rejects_non_finite_window(small_e2e, value):
    data = chunk_spanning_windows(small_e2e["corpus"])
    data[SCORE_CHUNK + 3, 40, 2] = value
    data[SCORE_CHUNK + 9, 0, 0] = value
    with pytest.raises(ValueError, match=f"window {SCORE_CHUNK + 3} contains NaN/Inf"):
        score_components_many(small_e2e["recon_model"], data)


def test_score_components_many_rejects_non_finite_reconstruction():
    model = build_recon_ae(AEConfig(variant="reconstruction", seed=3), 100, 6)
    model.stack.layers[-1].params()["bias"][...] = np.inf
    with pytest.raises(ValueError, match="reconstruction of window 0"):
        score_components_many(model, np.zeros((2, 100, 6)))


def test_score_components_many_rejects_wrong_shape(small_e2e):
    with pytest.raises(ValueError, match="model expects"):
        score_components_many(small_e2e["recon_model"], np.zeros((2, 50, 6)))


# ---------------------------------------------------------------------------
# hyperparameter search
# ---------------------------------------------------------------------------

@pytest.fixture
def tiny_space(monkeypatch):
    """A search space small enough to train in a test."""
    for name, value in (("SEARCH_K", (2, 4)), ("SEARCH_LAYERS", (1, 2)),
                        ("SEARCH_KERNELS", (3,)), ("SEARCH_FILTERS", (4,)),
                        ("SEARCH_EPOCHS", (2, 3)), ("SEARCH_BATCHES", (8,))):
        monkeypatch.setattr(autoenc, name, value)


def test_search_single_trial_is_best(small_corpus, tiny_space):
    windows = small_corpus.train_windows.data[:20]
    res = hyper_search(windows, "t2v", n_trials=1, master_seed=17)
    assert res.best_index == 0
    assert res.best_score == res.trials[0][1]


def test_search_deterministic(small_corpus, tiny_space):
    windows = small_corpus.train_windows.data[:20]
    a = hyper_search(windows, "t2v", 3, master_seed=18)
    b = hyper_search(windows, "t2v", 3, master_seed=18)
    assert [(c, s) for c, s in a.trials] == [(c, s) for c, s in b.trials]


def test_search_argmin_at_most_median(small_corpus, tiny_space):
    windows = small_corpus.train_windows.data[:20]
    res = hyper_search(windows, "t2v", 6, master_seed=19)
    scores = [s for _, s in res.trials]
    assert res.best_score <= np.median(scores)
    assert res.best_score == min(scores)


def test_search_reconstruction_variant_clamps_layers(small_corpus, tiny_space, monkeypatch):
    windows = small_corpus.train_windows.data[:20]
    for name, value in (("SEARCH_K", (2, 3)), ("SEARCH_LAYERS", (3, 4)),
                        ("SEARCH_EPOCHS", (2, 2))):
        monkeypatch.setattr(autoenc, name, value)
    res = hyper_search(windows, "reconstruction", 2, master_seed=20)
    for cfg, _ in res.trials:
        assert 100 % (cfg.encoder_stride ** cfg.encoder_layers) == 0


def test_search_rejects_bad_trial_count(small_corpus):
    with pytest.raises(ValueError, match="n_trials"):
        hyper_search(small_corpus.train_windows.data[:20], "t2v", 0, master_seed=0)


# ---------------------------------------------------------------------------
# gradient checks on the full architectures
# ---------------------------------------------------------------------------

def test_grad_check_full_t2v_ae_toy():
    cfg = AEConfig(variant="t2v", k=3, decoder_layers=3, filters=4, kernel=3, seed=2)
    model = build_t2v_ae(cfg, 10, 2)
    rng = make_rng(2002)
    assert nd.grad_check(model.stack, rng.normal(size=(1, 10, 2)),
                         rng.normal(size=(1, 10, 2))) < 1e-4


def test_grad_check_full_recon_ae_toy():
    # piecewise-linear net: central differences are exact unless the stencil
    # straddles a ReLU kink, so the seed keeps pre-activations away from 0
    cfg = AEConfig(variant="reconstruction", encoder_layers=2, filters=4, kernel=3,
                   seed=5)
    model = build_recon_ae(cfg, 12, 2)
    rng = make_rng(1005)
    assert nd.grad_check(model.stack, rng.normal(size=(1, 12, 2)),
                         rng.normal(size=(1, 12, 2))) < 1e-4


def test_autoenc_takes_arrays_and_never_imports_pipeline():
    import ast
    import inspect

    import t2vad.autoenc as autoenc
    tree = ast.parse(inspect.getsource(autoenc))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "pipeline" not in imported and "t2vad.pipeline" not in imported
