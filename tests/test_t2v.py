import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2vad import ndtensor as nd
from t2vad.autoenc import AEConfig, build_t2v_ae, embed_many
from t2vad.rng import make_rng
from t2vad.t2v import T2VLayer


def entrywise_oracle(layer, x):
    """Scalar-loop evaluation of the embedding definition (test-owned)."""
    out = np.empty((layer.n, layer.k))
    for row in range(layer.n):
        out[row, 0] = sum(x[row, j] * layer.w0[j, 0] for j in range(layer.f)) \
            + layer.b0[row, 0]
        for col in range(layer.k - 1):
            pre = sum(x[row, j] * layer.w[j, col] for j in range(layer.f)) \
                + layer.b[row, col]
            out[row, col + 1] = math.sin(pre)
    return out


def t2v_forward(layer, x):
    """N x K embedding matrix of one N x F window: the layer with B=1."""
    return layer.forward(x[None])[0][0]


def t2v_backward(layer, x, upstream):
    """Input and parameter gradients of sum(upstream * embedding) for one window."""
    _, cache = layer.forward(x[None])
    grad_x, grads = layer.backward(cache, upstream[None])
    return grad_x[0], grads


def random_layer(seed, n=5, f=3, k=4):
    rng = make_rng(seed)
    layer = T2VLayer(n, f, k, rng=rng)
    layer.b0[...] = rng.normal(size=(n, 1))
    layer.b[...] = rng.normal(size=(n, k - 1))
    return layer, rng


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_all_zero_params():
    layer = T2VLayer(4, 2, 3)   # rng=None -> zero weights, zero biases
    out = t2v_forward(layer, np.arange(8.0).reshape(4, 2))
    assert np.array_equal(out, np.zeros((4, 3)))


def test_forward_identity_weights():
    layer = T2VLayer(2, 1, 2)
    layer.w0[...] = [[1.0]]
    out = t2v_forward(layer, np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(out[:, 0], [3.0, 4.0])


@pytest.mark.parametrize("seed", range(10))
def test_forward_matches_entrywise_oracle(seed):
    layer, rng = random_layer(seed)
    x = rng.normal(size=(5, 3))
    np.testing.assert_allclose(t2v_forward(layer, x), entrywise_oracle(layer, x),
                               atol=1e-12)


def test_forward_shape_mismatch():
    layer = T2VLayer(5, 3, 4)
    with pytest.raises(ValueError, match="t2v expects"):
        t2v_forward(layer, np.zeros((4, 3)))


def test_k_below_two_rejected():
    with pytest.raises(ValueError, match="K must be >= 2"):
        T2VLayer(5, 3, 1)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_sine_columns_bounded(seed):
    layer, rng = random_layer(seed)
    x = rng.normal(scale=5.0, size=(5, 3))
    out = t2v_forward(layer, x)
    assert np.all(out[:, 1:] >= -1.0) and np.all(out[:, 1:] <= 1.0)


def test_column0_additivity():
    layer, rng = random_layer(3)
    x1 = rng.normal(size=(5, 3))
    x2 = rng.normal(size=(5, 3))
    zero = np.zeros((5, 3))
    lhs = t2v_forward(layer, x1 + x2)[:, 0] + t2v_forward(layer, zero)[:, 0]
    rhs = t2v_forward(layer, x1)[:, 0] + t2v_forward(layer, x2)[:, 0]
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_embedding_dim_invariant_across_inputs():
    layer, rng = random_layer(4)
    sizes = {t2v_forward(layer, rng.normal(size=(5, 3))).reshape(-1).size
             for _ in range(5)}
    assert sizes == {5 * 4}


# ---------------------------------------------------------------------------
# flattened embedding
# ---------------------------------------------------------------------------

def test_flatten_row_major():
    # a window's embedding lists the t2v output row by row: entry r*K + c is (r, c)
    model = build_t2v_ae(AEConfig(variant="t2v", k=3, decoder_layers=1, seed=5), 4, 2)
    x = make_rng(5).normal(size=(4, 2))
    out = t2v_forward(model.stack.layers[0], x)
    emb = embed_many(model, x[None])[0]
    assert emb.shape == (12,)
    for r in range(4):
        for c in range(3):
            assert emb[r * 3 + c] == out[r, c]


def test_reference_config_embedding_length():
    layer = T2VLayer(100, 6, 7, rng=make_rng(6))
    emb = t2v_forward(layer, make_rng(7).normal(size=(100, 6))).reshape(-1)
    assert emb.shape == (700,)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_zero_upstream():
    layer, rng = random_layer(8)
    x = rng.normal(size=(5, 3))
    grad_x, grads = t2v_backward(layer, x, np.zeros((5, 4)))
    for g in (grad_x, *grads.values()):
        assert np.array_equal(g, np.zeros_like(g))


def test_backward_linear_column_identity():
    # K=2: gradient of the linear column w.r.t. w0 is X^T @ upstream_0
    rng = make_rng(9)
    layer = T2VLayer(5, 3, 2, rng=rng)
    x = rng.normal(size=(5, 3))
    upstream = np.zeros((5, 2))
    upstream[:, 0] = rng.normal(size=5)
    _, grads = t2v_backward(layer, x, upstream)
    np.testing.assert_allclose(grads["w0"], x.T @ upstream[:, :1], atol=1e-12)
    np.testing.assert_allclose(grads["b0"], upstream[:, :1], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_backward_matches_finite_differences(seed):
    layer, rng = random_layer(100 + seed)
    x = rng.normal(size=(1, 5, 3))
    target = rng.normal(size=(1, 5, 4))
    assert nd.grad_check(nd.LayerStack([layer]), x, target) < 1e-4


def test_backward_shape_mismatch():
    layer, rng = random_layer(10)
    with pytest.raises(ValueError):
        t2v_backward(layer, rng.normal(size=(5, 3)), rng.normal(size=(5, 5)))
