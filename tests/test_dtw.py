import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t2vad.dtw import dtw_batch, dtw_bruteforce
from t2vad.rng import make_rng


def random_pair(rng, max_len=6, f=2):
    na = int(rng.integers(1, max_len + 1))
    nb = int(rng.integers(1, max_len + 1))
    return rng.normal(size=(na, f)), rng.normal(size=(nb, f))


def test_identity_is_zero():
    rng = make_rng(0)
    x = rng.normal(size=(12, 3))
    assert dtw_batch(x[None], x[None])[0] == 0.0


def test_hand_example():
    # alignment: (0,0) (1,1) (2,1) costs 0 + 1 + 0 = 1
    a = np.array([[0.0], [1.0], [2.0]])
    b = np.array([[0.0], [2.0]])
    assert dtw_batch(a[None], b[None])[0] == pytest.approx(1.0, abs=1e-12)


def test_matches_bruteforce_on_200_random_small_pairs():
    rng = make_rng(1)
    for _ in range(200):
        a, b = random_pair(rng)
        assert dtw_batch(a[None], b[None])[0] == pytest.approx(dtw_bruteforce(a, b),
                                                               abs=1e-9)


def test_feature_mismatch_rejected():
    with pytest.raises(ValueError, match="feature counts"):
        dtw_batch(np.zeros((1, 3, 2)), np.zeros((1, 3, 3)))


def test_empty_series_rejected():
    with pytest.raises(ValueError, match="empty"):
        dtw_batch(np.zeros((1, 0, 2)), np.zeros((1, 3, 2)))


# ---------------------------------------------------------------------------
# bruteforce oracle
# ---------------------------------------------------------------------------

def test_bruteforce_singletons():
    a = np.array([[1.0, 2.0]])
    b = np.array([[4.0, 6.0]])
    assert dtw_bruteforce(a, b) == pytest.approx(5.0)


def test_bruteforce_symmetric():
    rng = make_rng(3)
    a, b = random_pair(rng)
    assert dtw_bruteforce(a, b) == pytest.approx(dtw_bruteforce(b, a), abs=1e-12)


def test_bruteforce_size_limit():
    with pytest.raises(ValueError, match="64"):
        dtw_bruteforce(np.zeros((9, 1)), np.zeros((9, 1)))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_symmetry(seed):
    rng = make_rng(seed)
    a, b = random_pair(rng, max_len=10)
    assert dtw_batch(a[None], b[None])[0] == pytest.approx(dtw_batch(b[None], a[None])[0],
                                                           abs=1e-9)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_nonnegative_and_zero_iff_equal(seed):
    rng = make_rng(seed)
    a = rng.normal(size=(6, 2))
    b = a + rng.normal(scale=0.5, size=(6, 2))
    assert dtw_batch(a[None], b[None])[0] >= 0.0
    if not np.array_equal(a, b):
        assert dtw_batch(a[None], b[None])[0] > 0.0


@given(st.integers(0, 10_000), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_scaling_homogeneity(seed, c):
    rng = make_rng(seed)
    a, b = random_pair(rng, max_len=8)
    scaled = dtw_batch(c * a[None], c * b[None])[0]
    assert scaled == pytest.approx(abs(c) * dtw_batch(a[None], b[None])[0], abs=1e-9, rel=1e-9)


# ---------------------------------------------------------------------------
# batched sweep
# ---------------------------------------------------------------------------

@given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 8), st.integers(1, 4),
       st.integers(0, 10_000))
@example(1, 1, 1, 1, 0)
@example(3, 2, 7, 1, 1)
@example(3, 7, 2, 3, 2)
@settings(max_examples=60, deadline=None)
def test_batch_equals_each_pair_alone(n_pairs, na, nb, f, seed):
    rng = make_rng(seed)
    a, b = rng.normal(size=(n_pairs, na, f)), rng.normal(size=(n_pairs, nb, f))
    alone = [dtw_batch(a[k:k + 1], b[k:k + 1])[0] for k in range(n_pairs)]
    assert dtw_batch(a, b).tolist() == alone


def test_batch_matches_bruteforce_on_small_equal_shape_pairs():
    rng = make_rng(8)
    for na, nb, f in ((1, 1, 1), (3, 3, 2), (4, 6, 3), (8, 8, 1), (5, 2, 4)):
        a, b = rng.normal(size=(6, na, f)), rng.normal(size=(6, nb, f))
        expected = [dtw_bruteforce(x, y) for x, y in zip(a, b)]
        np.testing.assert_allclose(dtw_batch(a, b), expected, rtol=0, atol=1e-9)


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_batch_rejects_non_finite_naming_the_pair(side, value):
    rng = make_rng(9)
    pairs = {"a": rng.normal(size=(5, 6, 2)), "b": rng.normal(size=(5, 4, 2))}
    pairs[side][3, 2, 1] = value
    pairs[side][4, 0, 0] = value
    with pytest.raises(ValueError, match=rf"{side}\[3\] contains NaN/Inf"):
        dtw_batch(pairs["a"], pairs["b"])


def test_distance_rejects_non_finite():
    a = np.zeros((4, 2))
    a[1, 0] = np.nan
    with pytest.raises(ValueError, match="NaN/Inf"):
        dtw_batch(a[None], np.zeros((1, 4, 2)))


def test_batch_shape_checks():
    with pytest.raises(ValueError, match="batch sizes"):
        dtw_batch(np.zeros((2, 3, 1)), np.zeros((3, 3, 1)))
    with pytest.raises(ValueError, match="feature counts"):
        dtw_batch(np.zeros((2, 3, 1)), np.zeros((2, 3, 2)))
    with pytest.raises(ValueError, match="empty"):
        dtw_batch(np.zeros((2, 0, 1)), np.zeros((2, 3, 1)))
    with pytest.raises(ValueError, match="B, N, F"):
        dtw_batch(np.zeros((3, 1)), np.zeros((3, 1)))
