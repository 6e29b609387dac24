import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from t2vad.dtw import BLOCK_PAIRS, dtw_batch, dtw_bruteforce
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


def diagonal_sweep(a, b):
    """The per-diagonal sweep dtw_batch replaced: each step forms its local
    costs from slices of `a` and reversed `b` with `((.) ** 2).sum(-1)`."""
    n_pairs, na, nb = a.shape[0], a.shape[1], b.shape[1]
    b_rev = b[:, ::-1]
    prev2 = np.full((n_pairs, na + 1), np.inf)
    prev2[:, 0] = 0.0
    prev1 = np.full((n_pairs, na + 1), np.inf)
    cur = np.full((n_pairs, na + 1), np.inf)
    for s in range(2, na + nb + 1):
        lo, hi = max(1, s - nb), min(na, s - 1)
        diff = a[:, lo - 1:hi] - b_rev[:, nb - s + lo:nb - s + hi + 1]
        cost = np.sqrt(np.maximum((diff ** 2).sum(axis=-1), 0.0))
        cur.fill(np.inf)
        cur[:, lo:hi + 1] = cost + np.minimum(
            prev1[:, lo - 1:hi], np.minimum(prev1[:, lo:hi + 1], prev2[:, lo - 1:hi]))
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[:, na].copy()


@given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12), st.integers(1, 7),
       st.floats(-3, 3), st.integers(0, 10_000))
@example(1, 1, 1, 6, 0.0, 0)
@example(1, 1, 9, 6, 0.0, 1)
@example(2, 9, 1, 6, 0.0, 2)
@example(3, 7, 2, 7, 2.0, 3)
@settings(max_examples=80, deadline=None)
def test_batch_is_bitwise_the_per_diagonal_sweep_up_to_7_features(
        n_pairs, na, nb, f, log_scale, seed):
    rng = make_rng(seed)
    a = rng.normal(size=(n_pairs, na, f)) * 10.0 ** log_scale
    b = rng.normal(size=(n_pairs, nb, f))
    assert dtw_batch(a, b).tolist() == diagonal_sweep(a, b).tolist()


def test_batch_is_bitwise_the_per_diagonal_sweep_at_window_shape():
    rng = make_rng(12)
    a = rng.normal(size=(64, 100, 6))
    b = a + rng.normal(scale=0.1, size=a.shape)
    assert dtw_batch(a, b).tolist() == diagonal_sweep(a, b).tolist()
    assert dtw_batch(a[:3], b[:3, :57]).tolist() == diagonal_sweep(a[:3], b[:3, :57]).tolist()


@pytest.mark.parametrize("f", [8, 9, 12])
@pytest.mark.parametrize("na, nb", [(1, 1), (1, 20), (20, 1), (15, 23)])
def test_batch_is_within_1e_12_of_the_per_diagonal_sweep_from_8_features(f, na, nb):
    # numpy sums 8 or more terms pairwise, the cost matrix adds them in order
    rng = make_rng(100 * f + na)
    a, b = rng.normal(size=(5, na, f)), rng.normal(size=(5, nb, f))
    np.testing.assert_allclose(dtw_batch(a, b), diagonal_sweep(a, b), rtol=1e-12, atol=0)


def test_one_step_series_costs_the_sum_of_pointwise_distances():
    # with Na = 1 the only path pairs a_0 with every b_j, so D is the sum of
    # the local costs |a_0 - b_j|
    rng = make_rng(13)
    a, b = rng.normal(size=(9, 1, 3)), rng.normal(size=(9, 7, 3))
    expected = np.linalg.norm(a - b, axis=-1).sum(axis=1)
    np.testing.assert_allclose(dtw_batch(a, b), expected, rtol=1e-14, atol=0)
    np.testing.assert_allclose(dtw_batch(b, a), expected, rtol=1e-14, atol=0)


def test_block_boundary_is_bitwise_each_pair_alone():
    rng = make_rng(14)
    n_pairs = BLOCK_PAIRS + 3
    a, b = rng.normal(size=(n_pairs, 5, 3)), rng.normal(size=(n_pairs, 4, 3))
    batched = dtw_batch(a, b).tolist()
    assert batched == [dtw_batch(a[k:k + 1], b[k:k + 1])[0] for k in range(n_pairs)]
    assert batched == diagonal_sweep(a, b).tolist()


@pytest.mark.parametrize("layout", [
    lambda x: x[::-1],
    lambda x: x[:, ::-1],
    lambda x: x[:, :, ::-1],
    lambda x: x[::2],
    lambda x: x[:, ::3],
    lambda x: np.asfortranarray(x),
    lambda x: x.transpose(2, 1, 0).copy().transpose(2, 1, 0),
    lambda x: x.astype(np.float32),
], ids=["reversed-batch", "reversed-time", "reversed-features", "strided-batch",
        "strided-time", "fortran", "batch-innermost", "float32"])
def test_input_layout_does_not_change_the_distances(layout):
    rng = make_rng(15)
    a, b = rng.normal(size=(10, 9, 4)), rng.normal(size=(10, 11, 4))
    la, lb = layout(a), layout(b)
    expected = dtw_batch(np.array(la, dtype=np.float64, order="C"),
                         np.array(lb, dtype=np.float64, order="C"))
    assert dtw_batch(la, lb).tolist() == expected.tolist()


def test_working_memory_stays_below_one_64_pair_cost_matrix():
    # 5.5 MiB is the peak of one 64-pair (100, 100) local-cost matrix and its
    # scratch; a sweep builds no such matrix, its buffers are
    # O(BLOCK_PAIRS·(Na+Nb)·F) whatever the batch size
    rng = make_rng(16)
    a = rng.normal(size=(4 * BLOCK_PAIRS, 100, 6))
    b = a + rng.normal(scale=0.1, size=a.shape)
    tracemalloc.start()
    try:
        dtw_batch(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
