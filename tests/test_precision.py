"""Training runs in float32, storage and scoring in float64.

A silent float64 promotion anywhere in a training step would cost the
speed-up without failing any other test, so every layer kind, the optimizer
and both training entry points are checked for their dtype here, and the
float32 results against float64 arithmetic on the same weights.
"""

import numpy as np
import pytest

from t2vad import ndtensor as nd
from t2vad.autoenc import AEConfig, build_recon_ae, build_t2v_ae, train
from t2vad.detect.deepsvdd import build_network, fit_deep_svdd
from t2vad.rng import make_rng
from t2vad.t2v import T2VLayer


def layer_case(name, rng):
    """(layer, input shape) near the pipeline's default shapes."""
    if name == "t2v":
        return T2VLayer(20, 6, 7, rng=rng), (4, 20, 6)
    if name == "conv1d":
        return nd.Conv1d(7, 16, 5, rng=rng), (4, 20, 7)
    if name == "conv1d-stride2":
        return nd.Conv1d(16, 16, 5, stride=2, rng=rng), (4, 20, 16)
    if name == "dense":
        return nd.Dense(700, 128, rng=rng), (8, 700)
    if name == "relu":
        return nd.ReLU(), (4, 20, 16)
    if name == "upsample":
        return nd.Upsample(2), (4, 10, 16)
    raise AssertionError(name)


CASES = ["t2v", "conv1d", "conv1d-stride2", "dense", "relu", "upsample"]


def arrays_in(cache):
    if isinstance(cache, np.ndarray):
        return [cache]
    if isinstance(cache, tuple):
        return [a for item in cache for a in arrays_in(item)]
    return []


def assert_close(got, ref):
    """Within rtol 1e-4 of the float64 result, relative to its largest entry
    where entries cancel to near zero."""
    np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-4 * np.abs(ref).max())


def test_cases_cover_every_layer_kind(layer_classes):
    assert {type(layer_case(name, make_rng(0))[0]) for name in CASES} == layer_classes


@pytest.mark.parametrize("name", CASES)
def test_float32_stack_computes_in_float32_close_to_float64(name):
    rng = make_rng(80)
    layer, shape = layer_case(name, rng)
    s32 = nd.LayerStack([layer]).astype(np.float32)
    ref = s32.astype(np.float64)            # the same (rounded) weights in float64
    x = rng.normal(size=shape).astype(np.float32)
    y, tape = s32.forward_tape(x)
    y_ref, tape_ref = ref.forward_tape(x.astype(np.float64))
    g = rng.normal(size=y.shape).astype(np.float32)
    grad_in, pgrads = s32.layers[0].backward(tape[0], g)
    grad_in_ref, pgrads_ref = ref.layers[0].backward(tape_ref[0], g.astype(np.float64))
    grads = s32.backward(tape, g)

    assert s32.params.dtype == s32.grads.dtype == np.float32
    assert all(arr.dtype == np.float32 for arr in s32.layers[0].params().values())
    assert y.dtype == np.float32 and grad_in.dtype == np.float32
    assert all(arr.dtype == np.float32 for arr in arrays_in(tape[0]))
    assert all(arr.dtype == np.float32 for arr in pgrads.values())
    assert grads is s32.grads

    assert_close(y, y_ref)
    assert_close(grad_in, grad_in_ref)
    for key, arr in pgrads.items():
        assert_close(arr, pgrads_ref[key])


def test_adam_keeps_float32_params_and_moments():
    rng = make_rng(81)
    params = rng.normal(size=1000).astype(np.float32)
    start = params.copy()
    state = nd.AdamState(lr=1e-2)
    for _ in range(3):
        nd.adam_step(state, params, rng.normal(size=1000).astype(np.float32))
    assert params.dtype == state.m.dtype == state.v.dtype == state.scratch.dtype == np.float32
    assert not np.array_equal(params, start)


def test_astype_copies_are_independent_of_their_source():
    stack = build_t2v_ae(AEConfig(seed=3), 20, 6).stack
    before = stack.params.copy()
    copy = stack.astype(np.float32)
    assert np.array_equal(copy.params, before.astype(np.float32))
    assert all(a is not b for a, b in zip(copy.layers, stack.layers))
    assert all(np.shares_memory(arr, copy.params) and not np.shares_memory(arr, stack.params)
               for layer in copy.layers for arr in layer.params().values())
    copy.params[:] = 1.0
    assert np.array_equal(stack.params, before)
    stack.params[:] = 2.0
    assert np.all(copy.params == 1.0)
    assert np.array_equal(stack.astype(np.float64).params, stack.params)


@pytest.fixture
def float32_copies(monkeypatch):
    """Every stack made by `LayerStack.astype`, in order."""
    made = []
    astype = nd.LayerStack.astype

    def recording(self, dtype):
        made.append(astype(self, dtype))
        return made[-1]

    monkeypatch.setattr(nd.LayerStack, "astype", recording)
    return made


def assert_float64_holds_trained_float32(stack, made):
    assert len(made) == 1 and made[0].params.dtype == np.float32
    assert stack.params.dtype == np.float64
    assert all(arr.dtype == np.float64 and np.shares_memory(arr, stack.params)
               for layer in stack.layers for arr in layer.params().values())
    assert np.array_equal(stack.params, made[0].params.astype(np.float64))


@pytest.mark.parametrize("build, variant", [(build_t2v_ae, "t2v"),
                                            (build_recon_ae, "reconstruction")])
def test_train_returns_the_float32_training_params_in_a_float64_stack(
        float32_copies, small_corpus, build, variant):
    model = build(AEConfig(variant=variant, epochs=2, seed=4), 100, 6)
    initial = model.stack.params.copy()
    train(model, small_corpus.train_windows.data)
    assert_float64_holds_trained_float32(model.stack, float32_copies)
    assert not np.array_equal(model.stack.params, initial)


def test_deep_svdd_trains_in_float32_around_the_float64_center(float32_copies):
    x = make_rng(82).normal(size=(64, 12))
    state = fit_deep_svdd(x, (16, 4), epochs=5, batch=16, lr=1e-3, weight_decay=1e-4, seed=6)
    assert_float64_holds_trained_float32(state["layers"], float32_copies)

    # the center is the mean of the float64 net's initial forward pass, bit for bit
    initial = build_network(12, (16, 4), make_rng(6)).forward(x).mean(axis=0)
    assert state["center"].dtype == np.float64
    assert np.array_equal(state["center"], initial)

    curve = state["loss_curve"]
    assert len(curve) == 5 and all(isinstance(v, float) and np.isfinite(v) for v in curve)


def test_deep_svdd_loss_curve_is_the_mean_squared_distance_to_the_center():
    x = make_rng(83).normal(size=(64, 12))
    state = fit_deep_svdd(x, (16, 4), epochs=1, batch=64, lr=1e-3, weight_decay=1e-4, seed=7)
    # one batch per epoch: the first objective is taken before the first update
    phi = build_network(12, (16, 4), make_rng(7)).forward(x)
    expected = ((phi - state["center"]) ** 2).sum(axis=1).mean()
    assert state["loss_curve"][0] == pytest.approx(expected, rel=1e-4)
