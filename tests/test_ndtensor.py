import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t2vad import ndtensor as nd
from t2vad.rng import make_rng
from t2vad.t2v import T2VLayer


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def naive_matmul(a, b):
    m, p = a.shape
    p2, q = b.shape
    assert p == p2
    out = np.zeros((m, q))
    for i in range(m):
        for j in range(q):
            for t in range(p):
                out[i, j] += a[i, t] * b[t, j]
    return out


def naive_conv1d(x, kernels, bias, stride=1):
    """Direct sliding-window summation over a (B, N, C_in) batch with explicit
    zero padding, keeping every stride-th output step."""
    b, n, c_in = x.shape
    c_out, _, k = kernels.shape
    pad = (k - 1) // 2
    out = np.zeros((b, n // stride, c_out))
    for w in range(b):
        for pos in range(n // stride):
            for co in range(c_out):
                acc = float(bias[co])
                for t in range(k):
                    src = pos * stride + t - pad
                    if 0 <= src < n:
                        for ci in range(c_in):
                            acc += float(x[w, src, ci]) * float(kernels[co, ci, t])
                out[w, pos, co] = acc
    return out


def fd_input_grad(layer, x, upstream, h=1e-6):
    """Central-difference gradient of sum(upstream * forward(x)) w.r.t. x."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = float((layer.forward(x)[0] * upstream).sum())
        flat[i] = orig - h
        lm = float((layer.forward(x)[0] * upstream).sum())
        flat[i] = orig
        g[i] = (lp - lm) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# dense matmul
# ---------------------------------------------------------------------------

def dense_matmul(x, weight):
    """x @ weight through a Dense layer (the batch is x's rows)."""
    layer = nd.Dense(*weight.shape)
    layer.weight[...] = weight
    return layer.forward(x)[0]


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(dense_matmul(np.eye(2), a), a)


def test_matmul_direct():
    out = dense_matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == 11.0


def test_matmul_matches_triple_loop_oracle():
    rng = make_rng(0)
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 5))
    np.testing.assert_allclose(dense_matmul(a, b), naive_matmul(a, b), atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError, match="dense expects"):
        dense_matmul(np.ones((2, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------

def conv1d_one_window(x, kernels, bias, stride=1):
    """Conv1d layer forward on one (N, C_in) window, as a batch with B=1."""
    c_out, c_in, k = kernels.shape
    layer = nd.Conv1d(c_in, c_out, k, stride=stride)
    layer.kernels[...] = kernels
    layer.bias[...] = bias
    return layer.forward(x[None])[0][0]


def test_conv1d_zero_input():
    rng = make_rng(1)
    out = conv1d_one_window(np.zeros((6, 2)), rng.normal(size=(3, 2, 3)), np.zeros(3))
    assert np.array_equal(out, np.zeros((6, 3)))


def test_conv1d_pointwise_affine():
    out = conv1d_one_window(np.array([[1.0], [2.0], [3.0]]),
                            np.array([[[2.0]]]), np.array([1.0]))
    np.testing.assert_array_equal(out[:, 0], [3.0, 5.0, 7.0])


def test_conv1d_matches_sliding_window_oracle():
    rng = make_rng(2)
    x = rng.normal(size=(8, 2))
    kernels = rng.normal(size=(3, 2, 3))
    bias = rng.normal(size=3)
    np.testing.assert_allclose(conv1d_one_window(x, kernels, bias),
                               naive_conv1d(x[None], kernels, bias)[0], atol=1e-12)


def test_conv1d_even_kernel_rejected():
    with pytest.raises(ValueError, match="odd"):
        nd.Conv1d(1, 1, 2)


def test_conv1d_strided_output_length():
    rng = make_rng(3)
    out = conv1d_one_window(rng.normal(size=(8, 2)), rng.normal(size=(4, 2, 3)),
                            np.zeros(4), stride=2)
    assert out.shape == (4, 4)


def test_conv1d_k1_equals_dense_per_timestep():
    """A fresh conv has a zero bias, so it matches the bias-free dense layer."""
    rng = make_rng(4)
    x = rng.normal(size=(2, 10, 3))
    conv = nd.Conv1d(3, 5, 1, rng=make_rng(5))
    dense = nd.Dense(3, 5, rng=make_rng(99))
    dense.weight[...] = conv.kernels[:, :, 0].T
    y_conv, _ = conv.forward(x)
    y_dense, _ = dense.forward(x.reshape(-1, 3))
    np.testing.assert_allclose(y_conv.reshape(-1, 5), y_dense, atol=1e-12)


# ---------------------------------------------------------------------------
# layer backward
# ---------------------------------------------------------------------------

def test_relu_backward_gating():
    layer = nd.ReLU()
    x = np.array([[-1.0, 2.0]])
    _, cache = layer.forward(x)
    grad_in, _ = layer.backward(cache, np.array([[5.0, 5.0]]))
    np.testing.assert_array_equal(grad_in, [[0.0, 5.0]])


def test_sin_backward_at_zero():
    # zero weights put the sine column's pre-activation at 0, where d sin/dz = 1
    layer = T2VLayer(1, 1, 2)
    _, cache = layer.forward(np.array([[[0.0]]]))
    _, grads = layer.backward(cache, np.array([[[0.0, 1.0]]]))
    assert grads["b"][0, 0] == 1.0


# the finite-difference cases: one per layer class, at small shapes
FD_CASES = ["t2v", "conv1d", "dense", "relu", "upsample"]


def _make_layer(kind, rng):
    if kind == "t2v":
        return T2VLayer(5, 3, 4, rng=rng), (2, 5, 3)
    if kind == "conv1d":
        return nd.Conv1d(3, 2, 3, rng=rng), (2, 5, 3)
    if kind == "dense":
        return nd.Dense(3, 4, rng=rng), (5, 3)
    if kind == "relu":
        return nd.ReLU(), (2, 5, 3)
    if kind == "upsample":
        return nd.Upsample(2), (2, 5, 3)
    raise AssertionError(kind)


def test_fd_cases_cover_every_layer_class(layer_classes):
    assert {type(_make_layer(kind, make_rng(0))[0]) for kind in FD_CASES} == layer_classes


@pytest.mark.parametrize("kind", FD_CASES)
@pytest.mark.parametrize("seed", range(7))
def test_layer_backward_matches_finite_differences(kind, seed):
    rng = make_rng(1000 + seed)
    layer, shape = _make_layer(kind, rng)
    x = rng.normal(size=shape)
    y, cache = layer.forward(x)
    upstream = rng.normal(size=y.shape)
    grad_in, _ = layer.backward(cache, upstream)
    numeric = fd_input_grad(layer, x, upstream)
    denom = np.abs(grad_in) + np.abs(numeric) + 1e-12
    assert np.max(np.abs(grad_in - numeric) / denom) < 1e-4

    if layer.params():
        stack = nd.LayerStack([layer])
        target = rng.normal(size=y.shape)
        assert nd.grad_check(stack, x, target) < 1e-4


@pytest.mark.parametrize("seed", range(50))
def test_param_gradients_fifty_seeds(seed):
    """Every parameterized layer kind against central finite differences."""
    rng = make_rng(2000 + seed)
    kind = ["t2v", "conv1d", "dense"][seed % 3]
    layer, shape = _make_layer(kind, rng)
    x = rng.normal(size=shape)
    y = layer.forward(x)[0]
    target = rng.normal(size=y.shape)
    assert nd.grad_check(nd.LayerStack([layer]), x, target) < 1e-4


def test_backward_shape_mismatch_detected():
    layer = nd.Dense(3, 2, rng=make_rng(0))
    stack = nd.LayerStack([layer])
    with pytest.raises(ValueError, match="tape"):
        stack.backward([None, None], np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    state = nd.AdamState(lr=0.1)
    p = np.array([1.0, -2.0])
    nd.adam_step(state, p, np.zeros(2))
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_adam_first_step_hand_computed():
    # g=1: m_hat = 1, v_hat = 1 after bias correction, so the step is ~lr
    state = nd.AdamState(lr=0.1)
    p = np.array([5.0])
    nd.adam_step(state, p, np.array([1.0]))
    assert abs((5.0 - p[0]) - 0.1) < 1e-8


def test_adam_is_stateful_not_lr_scaling():
    p1 = np.array([1.0])
    s1 = nd.AdamState(lr=0.1)
    nd.adam_step(s1, p1, np.array([1.0]))
    nd.adam_step(s1, p1, np.array([1.0]))
    p2 = np.array([1.0])
    s2 = nd.AdamState(lr=0.2)
    nd.adam_step(s2, p2, np.array([1.0]))
    assert p1[0] != p2[0]


def test_adam_rejects_nonfinite_gradient():
    state = nd.AdamState()
    with pytest.raises(nd.NonFiniteError):
        nd.adam_step(state, np.array([1.0]), np.array([np.nan]))


def test_adam_step_counter_increases():
    state = nd.AdamState()
    p = np.array([1.0])
    for expected in (1, 2, 3):
        nd.adam_step(state, p, np.array([0.5]))
        assert state.step_count == expected


# ---------------------------------------------------------------------------
# grad_check / stack
# ---------------------------------------------------------------------------

def test_grad_check_linear_model_near_exact():
    rng = make_rng(11)
    stack = nd.LayerStack([nd.Dense(3, 2, rng=rng)])
    x = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 2))
    assert nd.grad_check(stack, x, target) < 1e-7


def test_forward_deterministic_bit_identical():
    rng = make_rng(12)
    stack = nd.LayerStack([nd.Conv1d(2, 3, 3, rng=rng), nd.ReLU(),
                           nd.Conv1d(3, 2, 3, rng=rng)])
    x = rng.normal(size=(3, 8, 2))
    assert np.array_equal(stack.forward(x), stack.forward(x))


def test_upsample_then_strided_conv_roundtrip_shapes():
    rng = make_rng(13)
    x = rng.normal(size=(2, 8, 3))
    down, _ = nd.Conv1d(3, 4, 3, stride=2, rng=rng).forward(x)
    assert down.shape == (2, 4, 4)
    up, _ = nd.Upsample(2).forward(down)
    assert up.shape == (2, 8, 4)


# ---------------------------------------------------------------------------
# training kernels against the formulations they replaced
# ---------------------------------------------------------------------------

def scatter_conv_input_grad(grad_y, kernels, stride, in_len):
    """Conv input gradient by per-tap scatter onto the padded input (reference)."""
    c_out, c_in, k = kernels.shape
    b, n_out, _ = grad_y.shape
    kmat = kernels.transpose(2, 1, 0).reshape(k * c_in, c_out)
    grad_cols = (grad_y.reshape(b * n_out, c_out) @ kmat.T).reshape(b, n_out, k, c_in)
    pad = (k - 1) // 2
    grad_xp = np.zeros((b, in_len + 2 * pad, c_in))
    for t in range(k):
        grad_xp[:, t:t + stride * n_out:stride, :] += grad_cols[:, :, t, :]
    return grad_xp[:, pad:pad + in_len, :]


def conv_input_grad(x, layer, grad_y):
    _, cache = layer.forward(x)
    grad_x, _ = layer.backward(cache, grad_y)
    return grad_x


@pytest.mark.parametrize("k", [3, 5, 7])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv_input_grad_matches_scatter_at_default_shapes(k, stride):
    rng = make_rng(40 + k + stride)
    layer = nd.Conv1d(6, 16, k, stride=stride, rng=rng)
    x = rng.normal(size=(32, 100, 6))
    grad_y = rng.normal(size=(32, 100 // stride, 16))
    got = conv_input_grad(x, layer, grad_y)
    assert got.shape == x.shape
    ref = scatter_conv_input_grad(grad_y, layer.kernels, stride, 100)
    assert np.max(np.abs(got - ref)) < 1e-12


@given(st.integers(1, 3), st.integers(1, 9), st.sampled_from([1, 3, 5, 7]),
       st.integers(1, 4), st.integers(1, 4), st.sampled_from([1, 2, 3]),
       st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
@example(1, 1, 1, 1, 1, 1, 0)
@example(2, 1, 7, 2, 3, 1, 1)
def test_conv_input_grad_matches_scatter_property(b, m, k, c_in, c_out, stride, seed):
    rng = make_rng(seed)
    n = m * stride
    layer = nd.Conv1d(c_in, c_out, k, stride=stride, rng=rng)
    grad_y = rng.normal(size=(b, m, c_out))
    got = conv_input_grad(rng.normal(size=(b, n, c_in)), layer, grad_y)
    ref = scatter_conv_input_grad(grad_y, layer.kernels, stride, n)
    assert np.max(np.abs(got - ref), initial=0.0) < 1e-12


CONV_CHANNELS = [(1, 1), (1, 3), (3, 1), (2, 4)]


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_tap_sum_forward_matches_entrywise_oracle(stride, k, dtype, tol):
    rng = make_rng(100 * stride + k)
    for b in (1, 3):
        for c_in, c_out in CONV_CHANNELS:
            x = rng.normal(size=(b, 4 * stride, c_in)).astype(dtype)
            kernels = rng.normal(size=(c_out, c_in, k)).astype(dtype)
            bias = rng.normal(size=c_out).astype(dtype)
            y, xp = nd._conv1d_batch(x, kernels, bias, stride)
            assert y.dtype == dtype and xp.dtype == dtype and y.shape == (b, 4, c_out)
            np.testing.assert_allclose(y, naive_conv1d(x, kernels, bias, stride),
                                       rtol=tol, atol=tol)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_kernel_gradient_matches_per_tap_einsum(stride, k):
    rng = make_rng(200 * stride + k)
    pad = (k - 1) // 2
    for b in (1, 3):
        for c_in, c_out in CONV_CHANNELS:
            x = rng.normal(size=(b, 5 * stride, c_in))
            layer = nd.Conv1d(c_in, c_out, k, stride=stride, rng=rng)
            grad_y = rng.normal(size=(b, 5, c_out))
            _, cache = layer.forward(x)
            _, grads = layer.backward(cache, grad_y)
            padded = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
            for t in range(k):
                taps = padded[:, t:t + 5 * stride:stride]         # (B, N_out, C_in)
                ref = np.einsum("bni,bno->oi", taps, grad_y)
                assert np.max(np.abs(grads["kernels"][:, :, t] - ref)) < 1e-12
            np.testing.assert_allclose(grads["bias"], grad_y.sum(axis=(0, 1)), atol=1e-12)


def test_conv_forward_and_backward_build_no_im2col_sized_array():
    """One float32 step of Conv1d(16, 16, 5) on (32, 100, 16): neither call
    allocates as much as one (B, N_out, k*C_in) array would take."""
    layer = nd.LayerStack([nd.Conv1d(16, 16, 5, rng=make_rng(300))], dtype=np.float32).layers[0]
    x = make_rng(301).normal(size=(32, 100, 16)).astype(np.float32)
    grad_y = make_rng(302).normal(size=(32, 100, 16)).astype(np.float32)
    im2col_bytes = 32 * 100 * 5 * 16 * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y, cache = layer.forward(x)
        forward_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        grad_x, grads = layer.backward(cache, grad_y)
        backward_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert y.shape == grad_x.shape == (32, 100, 16) and grads["kernels"].shape == (16, 16, 5)
    assert forward_peak < im2col_bytes and backward_peak < im2col_bytes, \
        (forward_peak, backward_peak)


# ---------------------------------------------------------------------------
# the bias and upsample gradients are bitwise the numpy sums they replaced
# ---------------------------------------------------------------------------

def signed(rng, shape, dtype):
    """Normal draws with about a fifth of the cells +0.0 or -0.0, as dtype."""
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 2, 7, 100, 3200, 10_000])
def test_conv_bias_gradient_is_bitwise_the_column_sum(dtype, rows):
    rng = make_rng(rows)
    for c_out in range(1, 33):
        grad_y = signed(rng, (1, rows, c_out), dtype)
        if c_out > 1:
            grad_y[0, :, -1] = -0.0             # an all -0.0 column sums to +0.0
        kernels = np.zeros((c_out, 1, 1), dtype)
        _, xp = nd._conv1d_batch(np.zeros((1, rows, 1), dtype), kernels, np.zeros(c_out, dtype), 1)
        _, _, grad_bias = nd._conv1d_batch_backward(grad_y, xp, kernels, 1, rows,
                                                    input_grad=False)
        assert grad_bias.dtype == dtype
        assert grad_bias.tobytes() == grad_y[0].sum(axis=0).tobytes(), c_out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("factor", [1, 2, 3, 4])
def test_upsample_gradient_is_bitwise_the_grouped_sum(dtype, factor):
    rng = make_rng(factor)
    for b, n, c in [(32, 100, 16), (3, 12, 5), (1, 4, 1), (2, 8, 1)]:
        n -= n % factor
        grad = signed(rng, (b, n, c), dtype)
        grad[0, :factor] = -0.0                 # a group of -0.0 sums to +0.0
        given = grad.copy()
        got, params = nd.Upsample(factor).backward(None, grad)
        assert params == {} and got.dtype == dtype and grad.tobytes() == given.tobytes()
        assert got.tobytes() == grad.reshape(b, n // factor, factor, c).sum(axis=2).tobytes()


def per_parameter_adam(state, params, grads):
    """Adam over a dict of parameter blocks, one moment pair per block (reference)."""
    state["t"] += 1
    t = state["t"]
    for key, p in params.items():
        g = grads[key]
        m, v = state["moments"].setdefault(key, (np.zeros_like(p), np.zeros_like(p)))
        m *= 0.9
        m += (1 - 0.9) * g
        v *= 0.999
        v += (1 - 0.999) * g * g
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        p -= state["lr"] * m_hat / (np.sqrt(v_hat) + 1e-8)


def layerwise_param_grads(stack, tape, grad_out):
    """Per-layer gradient dicts from a full backward, input gradients included."""
    grads, g = {}, grad_out
    for idx in range(len(stack.layers) - 1, -1, -1):
        g, pgrads = stack.layers[idx].backward(tape[idx], g)
        assert g is not None
        for name, arr in pgrads.items():
            grads[(idx, name)] = arr
    return grads


def keyed_params(stack):
    return {(idx, name): arr for idx, layer in enumerate(stack.layers)
            for name, arr in layer.params().items()}


def t2v_stack(seed):
    rng = make_rng(seed)
    return nd.LayerStack([T2VLayer(12, 3, 4, rng=rng),
                          nd.Conv1d(4, 5, 5, rng=rng), nd.ReLU(),
                          nd.Conv1d(5, 3, 3, rng=rng)]), (6, 12, 3)


def recon_stack(seed):
    rng = make_rng(seed)
    return nd.LayerStack([nd.Conv1d(3, 5, 5, stride=2, rng=rng), nd.ReLU(),
                          nd.Conv1d(5, 5, 3, stride=2, rng=rng), nd.ReLU(),
                          nd.Upsample(2), nd.Conv1d(5, 5, 3, rng=rng), nd.ReLU(),
                          nd.Upsample(2), nd.Conv1d(5, 3, 5, rng=rng)]), (6, 12, 3)


def svdd_stack(seed):
    from t2vad.detect.deepsvdd import build_network
    return build_network(10, (16, 4), make_rng(seed)), (6, 10)


STACKS = {"t2v": t2v_stack, "recon": recon_stack, "svdd": svdd_stack}


@pytest.mark.parametrize("name", sorted(STACKS))
def test_stack_backward_skipping_first_input_grad_is_bitwise_full(name):
    stack, shape = STACKS[name](50)
    rng = make_rng(51)
    x = rng.normal(size=shape)
    y, tape = stack.forward_tape(x)
    grad_out = rng.normal(size=y.shape)
    full = layerwise_param_grads(stack, tape, grad_out)
    flat = stack.backward(tape, grad_out)
    assert np.array_equal(flat, np.concatenate([full[key].ravel() for key in keyed_params(stack)]))
    for key, arr in full.items():
        view = stack._grad_views[key[0]][key[1]]
        assert np.array_equal(view, arr)


# weight decay applies to the bias-free Deep SVDD net only
@pytest.mark.parametrize("name, weight_decay",
                         [("t2v", 0.0), ("recon", 0.0), ("svdd", 0.0), ("svdd", 1e-2)])
def test_flat_adam_is_bitwise_per_parameter_adam(name, weight_decay):
    flat_stack, shape = STACKS[name](60)
    ref_stack, _ = STACKS[name](60)
    rng = make_rng(61)
    adam = nd.AdamState(lr=1e-2)
    ref_state = {"t": 0, "lr": 1e-2, "moments": {}}
    for _ in range(25):
        x = rng.normal(size=shape)
        target = rng.normal(size=flat_stack.forward(x).shape)

        y, tape = flat_stack.forward_tape(x)
        grads = flat_stack.backward(tape, nd.mse_loss_grad(y, target)[1])
        grads += 2.0 * weight_decay * flat_stack.params
        nd.adam_step(adam, flat_stack.params, grads)

        y, tape = ref_stack.forward_tape(x)
        ref_grads = layerwise_param_grads(ref_stack, tape, nd.mse_loss_grad(y, target)[1])
        ref_params = keyed_params(ref_stack)
        ref_grads = {key: g + 2.0 * weight_decay * ref_params[key]
                     for key, g in ref_grads.items()}
        per_parameter_adam(ref_state, ref_params, ref_grads)

        for key, p in keyed_params(flat_stack).items():
            assert np.array_equal(p, ref_params[key]), key
    assert adam.step_count == 25


def test_layer_params_are_views_into_the_stack_vector():
    stack, _ = t2v_stack(70)
    assert stack.params.size == sum(arr.size for arr in keyed_params(stack).values())
    for arr in keyed_params(stack).values():
        assert np.shares_memory(arr, stack.params)
    stack.params[:] = 0.5
    assert np.all(stack.layers[0].w0 == 0.5) and np.all(stack.layers[-1].bias == 0.5)


def test_adam_rejects_shape_mismatch_and_leaves_params_on_nan():
    state = nd.AdamState()
    with pytest.raises(ValueError, match="shape"):
        nd.adam_step(state, np.zeros(3), np.zeros(2))
    p = np.array([1.0, 2.0])
    with pytest.raises(nd.NonFiniteError):
        nd.adam_step(state, p, np.array([0.5, np.inf]))
    assert np.array_equal(p, [1.0, 2.0]) and state.step_count == 0


# ---------------------------------------------------------------------------
# the shared training loop against the two loops it replaced
# ---------------------------------------------------------------------------

def reference_ae_train(model, data, cfg):
    """autoenc.train with its own minibatch-Adam loop, as before nd.train_adam."""
    data = np.asarray(data, dtype=np.float32)
    n = len(data)
    work = model.stack.astype(np.float32)
    rng = make_rng(cfg.seed + 1)
    adam = nd.AdamState(lr=cfg.lr)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch):
            idx = order[start:start + cfg.batch]
            x = data[idx]
            y, tape = work.forward_tape(x)
            loss, dy = nd.mse_loss_grad(y, x)
            nd.adam_step(adam, work.params, work.backward(tape, dy))
            epoch_loss += loss * len(idx)
        model.loss_curve.append(epoch_loss / n)
    model.stack.params[...] = work.params
    return model


def reference_fit_deep_svdd(x, widths, epochs, batch, lr, weight_decay, seed):
    """fit_deep_svdd with its own minibatch-Adam loop, as before nd.train_adam."""
    from t2vad.detect.deepsvdd import build_network
    n, d = x.shape
    net = build_network(d, widths, make_rng(seed))
    center = net.forward(x).mean(axis=0)
    if float(np.linalg.norm(center)) < 1e-6:
        center = center + 0.1
    work, x32, center32 = net.astype(np.float32), x.astype(np.float32), center.astype(np.float32)
    adam = nd.AdamState(lr=lr)
    order_rng = make_rng(seed + 1)
    loss_curve = []
    for _ in range(epochs):
        order = order_rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            xb = x32[order[start:start + batch]]
            y, tape = work.forward_tape(xb)
            diff = y - center32
            epoch_loss += float((diff * diff).sum())
            grads = work.backward(tape, 2.0 * diff / len(xb))
            grads += 2.0 * weight_decay * work.params
            nd.adam_step(adam, work.params, grads)
        loss_curve.append(epoch_loss / n)
    net.params[...] = work.params
    return {"layers": net, "center": center, "loss_curve": loss_curve}


@pytest.mark.parametrize("variant, n_windows", [("t2v", 24), ("reconstruction", 27)])
def test_ae_training_is_bitwise_the_loop_it_replaced(variant, n_windows):
    """27 windows in batches of 8 leave a short last batch."""
    from t2vad.autoenc import AEConfig, build_model, train
    cfg = AEConfig(variant=variant, k=4, decoder_layers=2, encoder_layers=2, filters=5,
                   kernel=3, epochs=3, batch=8, lr=1e-2, seed=80)
    data = make_rng(81).normal(size=(n_windows, 20, 3))
    shared = train(build_model(cfg, 20, 3), data)
    reference = reference_ae_train(build_model(cfg, 20, 3), data, cfg)
    assert np.array_equal(shared.stack.params, reference.stack.params)
    assert shared.loss_curve == reference.loss_curve and len(shared.loss_curve) == 3


def test_deep_svdd_training_is_bitwise_the_loop_it_replaced():
    from t2vad.detect.deepsvdd import fit_deep_svdd
    x = make_rng(82).normal(size=(70, 10))
    kw = dict(widths=(16, 4), epochs=4, batch=16, lr=1e-2, weight_decay=1e-2, seed=83)
    shared, reference = fit_deep_svdd(x, **kw), reference_fit_deep_svdd(x, **kw)
    assert np.array_equal(shared["layers"].params, reference["layers"].params)
    assert np.array_equal(shared["center"], reference["center"])
    assert shared["loss_curve"] == reference["loss_curve"] and len(shared["loss_curve"]) == 4


def test_train_adam_names_the_epoch_and_batch_of_a_non_finite_loss():
    """12 rows in batches of 4: the sixth batch is epoch 1, batch 2. The
    stack keeps its parameters."""
    stack, _ = svdd_stack(84)
    before = stack.params.copy()
    losses = iter([1.0] * 5 + [np.inf])
    with pytest.raises(nd.TrainingDiverged, match="epoch 1, batch 2"):
        nd.train_adam(stack, make_rng(85).normal(size=(12, 10)),
                      lambda y, xb: (next(losses), 2.0 * y), epochs=3, batch=4, lr=1e-2,
                      rng=make_rng(86))
    assert np.array_equal(stack.params, before)


@pytest.mark.parametrize("epochs, batch", [(0, 4), (-3, 4), (3, 0), (3, -1)])
def test_train_adam_rejects_fewer_than_one_epoch_or_batch_row(epochs, batch):
    stack, _ = svdd_stack(87)
    with pytest.raises(ValueError, match="epochs and batch size must be >= 1"):
        nd.train_adam(stack, make_rng(88).normal(size=(12, 10)), lambda y, xb: (0.0, 0.0 * y),
                      epochs=epochs, batch=batch, lr=1e-2, rng=make_rng(89))
