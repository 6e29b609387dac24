import importlib
import re
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t2vad import detect
from t2vad.autoenc import embed_many
from t2vad.detect import DetectorConfig, DetectorModel, average_path_length, ocsvm, pca
from t2vad.detect.deepsvdd import build_network, fit_deep_svdd, score_deep_svdd
from t2vad.detect.ee import fit_ee, score_ee
from t2vad.detect import iforest
from t2vad.detect.iforest import SUBSAMPLE, TREES, checked_state, fit_iforest, score_iforest
from t2vad.detect.lof import BLOCK, _cross_distances, _nearest, _row_norms, fit_lof, score_lof
from t2vad.detect.ocsvm import TOL, fit_ocsvm, rbf_kernel
from t2vad.detect.pca import pca_fit, pca_transform
from t2vad.dtw import dtw_batch
from t2vad.ndtensor import TrainingDiverged
from t2vad.persist import save_detector
from t2vad.rng import make_rng

CFG = DetectorConfig(seed=0)


def gaussian_blob(n=200, d=8, seed=0, shift=0.0):
    rng = make_rng(seed)
    return rng.normal(size=(n, d)) + shift


def fit_scores(model, x):
    """The scores of the training embeddings `x` that `detect.fit` took
    `model`'s threshold from: LOF's in-sample values, else `score_many`."""
    spec = detect.SPECS[model.kind]
    z = (x - model.scaler_mean) / model.scaler_std
    return (spec.train_scores or spec.score)(model.state, z)


# ---------------------------------------------------------------------------
# pca
# ---------------------------------------------------------------------------

def power_iteration(cov, iters=500, seed=0):
    """Dominant eigenvector by repeated multiplication (test oracle)."""
    v = make_rng(seed).normal(size=cov.shape[0])
    for _ in range(iters):
        v = cov @ v
        v /= np.linalg.norm(v)
    return v


def test_pca_line_captures_variance():
    rng = make_rng(1)
    t = rng.normal(size=(200, 1))
    x = t @ np.array([[1.0, 2.0, -0.5]]) + rng.normal(scale=1e-4, size=(200, 3))
    basis, mean = pca_fit(x, 1)
    proj = pca_transform(x, basis, mean)
    total = np.var(x - x.mean(axis=0), axis=0).sum()
    assert proj.var() / total > 0.999


def test_pca_basis_orthonormal():
    x = gaussian_blob(n=100, d=6, seed=2)
    basis, _ = pca_fit(x, 4)
    np.testing.assert_allclose(basis.T @ basis, np.eye(4), atol=1e-8)


def test_pca_matches_power_iteration_up_to_sign():
    x = gaussian_blob(n=50, d=5, seed=3) * np.array([3.0, 1.0, 1.0, 0.5, 0.2])
    basis, mean = pca_fit(x, 1)
    cov = np.cov(x - mean, rowvar=False, ddof=1)
    v = power_iteration(cov)
    cos = abs(float(v @ basis[:, 0]))
    assert cos > 1 - 1e-8


def test_pca_degenerate_rank_rejected():
    x = np.zeros((50, 4))
    x[:, 0] = make_rng(4).normal(size=50)
    with pytest.raises(ValueError, match="rank"):
        pca_fit(x, 3)


def pca_oracle(x, n_dims):
    """Top-`n_dims` eigenvectors of the d x d sample covariance, signed so the
    dominant entry is positive (test oracle, any n and d)."""
    mean = x.mean(axis=0)
    cov = np.cov(x - mean, rowvar=False, ddof=1).reshape(x.shape[1], x.shape[1])
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    rank = int(np.sum(evals > 1e-12 * max(float(evals[0]), 1.0)))
    if rank < n_dims:
        raise ValueError(f"covariance rank {rank} < requested dims {n_dims}")
    basis = evecs[:, :n_dims].copy()
    for j in range(n_dims):
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return basis, mean


def decaying_blob(n, d, seed):
    return make_rng(seed).normal(size=(n, d)) * np.linspace(3.0, 0.1, d)


def separated_blob(n, d, seed):
    """Variances falling geometrically, so no eigenvalue crowds the top 32."""
    return make_rng(seed).normal(size=(n, d)) * np.geomspace(1.0, 1e-3, d)


@pytest.mark.parametrize("n, d, n_dims", [(60, 150, 8), (33, 700, 32), (200, 2000, 32),
                                           (200, 8, 4), (700, 700, 32), (900, 700, 32),
                                           (2655, 700, 32)])
def test_pca_matches_the_covariance_oracle_on_both_paths(n, d, n_dims):
    """The Gram path (n < d) and the covariance path: same signs, bases equal
    to 1e-10, same mean."""
    x = decaying_blob(n, d, seed=n)
    basis, mean = pca_fit(x, n_dims)
    expected, expected_mean = pca_oracle(x, n_dims)
    assert np.array_equal(mean, expected_mean)
    assert np.array_equal(np.sign(basis), np.sign(expected))
    np.testing.assert_allclose(basis, expected, rtol=0, atol=1e-10)
    assert basis.flags.c_contiguous


@pytest.mark.parametrize("n, d, n_dims", [(40, 100, 5), (20, 4, 3), (100, 100, 5)])
def test_pca_rank_error_matches_the_covariance_oracle(n, d, n_dims):
    rng = make_rng(n + d)
    x = rng.normal(size=(n, 2)) @ rng.normal(size=(2, d))     # rank 2
    with pytest.raises(ValueError) as oracle:
        pca_oracle(x, n_dims)
    with pytest.raises(ValueError, match=re.escape(str(oracle.value))):
        pca_fit(x, n_dims)


def eigh_sizes(monkeypatch):
    """The sizes of the matrices later passed to `np.linalg.eigh`."""
    sizes, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


@pytest.mark.parametrize("n, d", [(900, 700), (2655, 700), (300, 700), (200, 2000)])
def test_pca_fit_eigendecomposes_only_its_block_on_a_well_separated_spectrum(
        monkeypatch, n, d):
    x = separated_blob(n, d, seed=n)
    sizes = eigh_sizes(monkeypatch)
    basis, _ = pca_fit(x, 32)
    assert sizes and max(sizes) == 32 + pca.BLOCK_EXTRA
    expected, _ = pca_oracle(x, 32)
    np.testing.assert_allclose(basis, expected, rtol=0, atol=1e-10)


def spectrum_matrix(evals, seed):
    """U diag(evals) U' for a random orthogonal U."""
    u, _ = np.linalg.qr(make_rng(seed).normal(size=(len(evals), len(evals))))
    return (u * evals) @ u.T


@pytest.mark.parametrize("evals, grown_to", [
    # 100 eigenvalues within 1e-3 of each other, then a drop: 64 columns stall
    (np.concatenate([np.linspace(1.0, 0.999, 100), np.linspace(0.01, 0.001, 200)]), 128),
    # all 300 within 1e-4: every block stalls, up to the whole matrix
    (1.0 + 1e-4 * make_rng(11).random(300), 300),
])
def test_top_eigh_grows_its_block_on_a_clustered_or_flat_spectrum(monkeypatch, evals,
                                                                  grown_to):
    a = spectrum_matrix(evals, seed=12)
    expected = np.linalg.eigvalsh(a)[::-1][:32]
    sizes = eigh_sizes(monkeypatch)
    values, vectors = pca.top_eigh(a, 32)
    assert max(sizes) == grown_to
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(32), rtol=0, atol=1e-12)
    np.testing.assert_allclose(a @ vectors, vectors * values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n, d", [(900, 700), (200, 2000)])
def test_two_pca_fits_return_bitwise_equal_bases(n, d):
    x = decaying_blob(n, d, seed=3)
    first, second = pca_fit(x, 32), pca_fit(x.copy(), 32)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_top_eigh_holds_a_few_blocks_where_eigh_holds_the_whole_matrix(traced_peak):
    """At most eight (m, 32 + BLOCK_EXTRA) blocks (5.7 measured), against the
    (m, m) eigenvectors a full `eigh` returns."""
    x = separated_blob(900, 700, seed=7)
    a = pca._covariance(x, x.mean(axis=0))
    block = 700 * (32 + pca.BLOCK_EXTRA) * 8
    assert traced_peak(pca.top_eigh, a, 32) < 8 * block < a.nbytes
    assert traced_peak(np.linalg.eigh, a) >= a.nbytes


def test_pca_fit_peaks_below_two_copies_of_its_input(traced_peak):
    x = decaying_blob(200, 2000, seed=5)
    assert traced_peak(pca_fit, x, 32) < 2 * x.nbytes


def test_pca_fit_with_more_samples_than_dims_holds_one_centred_copy(traced_peak):
    """One centred copy of x and the d x d covariance, not np.cov's copies."""
    x = decaying_blob(900, 700, seed=6)
    assert traced_peak(pca_fit, x, 32) < x.nbytes + 1.25 * 700 * 700 * 8


# ---------------------------------------------------------------------------
# isolation forest
# ---------------------------------------------------------------------------

def test_c2_is_exactly_one():
    assert average_path_length(2) == 1.0
    assert average_path_length(1) == 0.0


def test_iforest_outliers_rank_top():
    rng = make_rng(5)
    inliers = np.concatenate([rng.normal(size=(100, 4)) * 0.1,
                              rng.normal(size=(100, 4)) * 0.1 + 2.0])
    outliers = rng.normal(size=(5, 4)) * 0.1 + 40.0   # 10-sigma-scale separation
    x = np.concatenate([inliers, outliers])
    model = detect.fit(["iforest"], x.copy(), CFG)["iforest"]
    order = np.argsort(detect.score_many(model, x))[::-1]
    assert set(order[:5]) == set(range(200, 205))


def test_iforest_scores_in_unit_interval(small_e2e):
    emb = embed_many(small_e2e["t2v_model"], small_e2e["corpus"].train_windows.data)
    scores = detect.score_many(small_e2e["detectors"]["iforest"], emb)
    assert np.all(scores > 0) and np.all(scores <= 1)


def test_iforest_far_point_scores_higher():
    x = gaussian_blob(n=300, d=4, seed=6)
    model = detect.fit(["iforest"], x.copy(), CFG)["iforest"]
    near = detect.score_many(model, x[:1])[0]
    far = detect.score_many(model, x[:1] + 100.0)[0]
    assert far > near


def draw_table(n, n_trees, subsample, rng):
    """The forest's draws: every tree's subsample, then the (n_trees,
    2^max_depth - 1) `pick` and `cut` tables, read by heap position."""
    size = min(subsample, n)
    max_depth = int(np.ceil(np.log2(max(size, 2))))
    samples = [rng.choice(n, size=size, replace=False) for _ in range(n_trees)]
    pick = rng.random((n_trees, 2 ** max_depth - 1))
    cut = rng.random((n_trees, 2 ** max_depth - 1))
    return size, max_depth, samples, pick, cut


def table_split(x, pick, cut):
    """The split a node of rows `x` takes from its table entries by a min/max
    search over every column, or None if no column varies there."""
    mins, maxs = x.min(axis=0), x.max(axis=0)
    usable = np.flatnonzero(maxs > mins)
    if usable.size == 0:
        return None
    f = int(usable[min(int(pick * usable.size), usable.size - 1)])
    return f, float(mins[f] + (maxs[f] - mins[f]) * cut)


def recursive_forest(x, n_trees, subsample, rng):
    """The nested-list forest the flat arrays replaced, with its recursive scorer."""
    def build(x, t, h, depth):
        m = len(x)
        if m <= 1 or depth >= max_depth:
            return ["leaf", m]
        chosen = table_split(x, pick[t, h], cut[t, h])
        if chosen is None:
            return ["leaf", m]
        f, u = chosen
        mask = x[:, f] < u
        if mask.all() or not mask.any():
            return ["leaf", m]
        return ["split", f, u, build(x[mask], t, 2 * h + 1, depth + 1),
                build(x[~mask], t, 2 * h + 2, depth + 1)]

    def path_lengths(node, q, idx, depth, out):
        if idx.size == 0:
            return
        if node[0] == "leaf":
            out[idx] = depth + average_path_length(node[1])
            return
        _, f, u, left, right = node
        mask = q[idx, f] < u
        path_lengths(left, q, idx[mask], depth + 1, out)
        path_lengths(right, q, idx[~mask], depth + 1, out)

    def score(q):
        paths = np.zeros(len(q))
        for tree in trees:
            lengths = np.zeros(len(q))
            path_lengths(tree, q, np.arange(len(q)), 0, lengths)
            paths += lengths
        return np.power(2.0, -(paths / len(trees)) / average_path_length(size))

    size, max_depth, samples, pick, cut = draw_table(len(x), n_trees, subsample, rng)
    trees = [build(x[rows], t, 0, 0) for t, rows in enumerate(samples)]
    return score


@pytest.mark.parametrize("n, d, n_trees, subsample, duplicates", [
    (300, 6, 40, 256, 1),
    (60, 3, 25, 48, 4),      # each row 4 times: leaves of size > 1
])
def test_flat_forest_scores_are_bitwise_the_recursive_forest(n, d, n_trees, subsample,
                                                             duplicates):
    x = np.repeat(gaussian_blob(n=n // duplicates, d=d, seed=n), duplicates, axis=0)
    state = fit_iforest(x, n_trees, subsample, make_rng(7))
    split = state["feature"] >= 0
    on_a_split = np.repeat(state["value"][split][:, None], d, axis=1)
    queries = np.concatenate([x, gaussian_blob(n=50, d=d, seed=1, shift=0.5) * 3.0, on_a_split])
    recursive_score = recursive_forest(x, n_trees, subsample, make_rng(7))
    assert score_iforest(state, queries).tolist() == recursive_score(queries).tolist()
    assert (~split & (state["value"] > 0)).any()    # a leaf of size > 1
    assert len(split) - 2 * split.sum() == n_trees


def reference_fit_iforest(x, n_trees, subsample, rng):
    """The forest grown by a min/max search over every column at every node,
    on row copies, node by node breadth-first from the same draw table (a
    FIFO queue seeded with every tree's root in tree order): the growth
    `fit_iforest` must reproduce array for array."""
    size, max_depth, samples, pick, cut = draw_table(len(x), n_trees, subsample, rng)
    queue = deque((x[rows], t, 0, 0) for t, rows in enumerate(samples))
    nodes = []
    while queue:
        x, t, h, depth = queue.popleft()
        m = len(x)
        chosen = table_split(x, pick[t, h], cut[t, h]) if m > 1 and depth < max_depth else None
        mask = x[:, chosen[0]] < chosen[1] if chosen else np.ones(m, dtype=bool)
        if mask.all() or not mask.any():
            nodes.append([-1, average_path_length(m)])
            continue
        nodes.append(list(chosen))
        queue.append((x[mask], t, 2 * h + 1, depth + 1))
        queue.append((x[~mask], t, 2 * h + 2, depth + 1))
    feature, value = (np.array(column) for column in zip(*nodes))
    return {"feature": feature, "value": value, "subsample": size}


def signed_zeros(n=300, d=5):
    """Feature 0 holds only -0.0 and 0.0; feature 1 mixes them with other values."""
    x = gaussian_blob(n=n, d=d, seed=3)
    x[:, 0] = np.where(np.arange(n) % 2, -0.0, 0.0)
    x[::3, 1] = np.where(np.arange(0, n, 3) % 2, -0.0, 0.0)
    return x


FOREST_INPUTS = {
    "random": lambda: gaussian_blob(n=400, d=12, seed=5),
    "duplicated-rows": lambda: np.repeat(gaussian_blob(n=75, d=4, seed=6), 4, axis=0),
    "one-constant-feature": lambda: np.c_[gaussian_blob(n=300, d=5, seed=7),
                                          np.full(300, 0.7)],
    "signed-zeros": signed_zeros,
    "n-below-subsample": lambda: gaussian_blob(n=100, d=6, seed=8),
    "n-2": lambda: gaussian_blob(n=2, d=3, seed=9),
    "every-feature-tied": lambda: np.repeat(gaussian_blob(n=50, d=64, seed=10), 4, axis=0),
}


def assert_same_forest(state, reference):
    for key in ("feature", "value"):
        assert state[key].dtype == reference[key].dtype, key
        assert np.array_equal(state[key], reference[key]), key


@pytest.mark.parametrize("name", FOREST_INPUTS)
def test_forest_is_array_equal_to_the_full_search_reference(name):
    x = FOREST_INPUTS[name]()
    state = fit_iforest(x, 30, SUBSAMPLE, make_rng(11))
    reference = reference_fit_iforest(x, 30, SUBSAMPLE, make_rng(11))
    assert_same_forest(state, reference)
    assert state["subsample"] == reference["subsample"] == min(SUBSAMPLE, len(x))


@pytest.mark.parametrize("name", ["random", "every-feature-tied"])
def test_forest_on_a_subsample_not_a_power_of_two_is_the_reference(name):
    x = FOREST_INPUTS[name]()
    state = fit_iforest(x, 30, 77, make_rng(12))      # depth at most 7, tables 127 wide
    assert_same_forest(state, reference_fit_iforest(x, 30, 77, make_rng(12)))
    assert state["subsample"] == 77


@pytest.mark.parametrize("name", ["every-feature-tied", "one-constant-feature", "signed-zeros"])
def test_forest_does_not_depend_on_the_block_size(name, monkeypatch):
    """Blocks of 97 values cut the tied-feature checks into many chunks of
    nodes and of columns: the forest stays the same."""
    x = FOREST_INPUTS[name]()
    state = fit_iforest(x, 30, SUBSAMPLE, make_rng(13))
    monkeypatch.setattr(iforest, "BLOCK", 97)
    assert_same_forest(fit_iforest(x, 30, SUBSAMPLE, make_rng(13)), state)


def test_forest_draws_do_not_depend_on_the_data():
    """Every tree's subsample, then the two (trees, 2^8 - 1) tables: the
    generator ends where a fresh one does after just these draws, however
    the trees grow."""
    n, d, n_trees = 300, 6, 20
    fresh = make_rng(14)
    for _ in range(n_trees):
        fresh.choice(n, size=SUBSAMPLE, replace=False)
    fresh.random((n_trees, 255))
    fresh.random((n_trees, 255))
    for x in (gaussian_blob(n=n, d=d, seed=15), np.zeros((n, d)),
              np.repeat(gaussian_blob(n=n // 3, d=d, seed=16), 3, axis=0)):
        rng = make_rng(14)
        fit_iforest(x, n_trees, SUBSAMPLE, rng)
        assert rng.bit_generator.state == fresh.bit_generator.state


def test_forest_on_every_feature_tied_holds_at_most_two_copies_of_x(traced_peak):
    """Rows repeated, so every feature needs the per-node check: it runs in
    blocks, never as one tied x (trees * subsample) array (143 MB here)."""
    x = np.repeat(gaussian_blob(n=450, d=700, seed=17), 2, axis=0)
    assert traced_peak(fit_iforest, x, TREES, SUBSAMPLE, make_rng(0)) <= 2 * x.nbytes


QUERIES = np.concatenate([gaussian_blob(n=30, d=3, seed=18) * 4.0, np.zeros((1, 3))])


@settings(max_examples=300, deadline=None)
@given(feature=st.lists(st.integers(-4, 2).map(lambda f: max(f, -1)), min_size=1, max_size=40),
       data=st.data())
def test_any_forest_the_check_admits_scores_finite_values(feature, data):
    """Any integer `feature` in [-1, dim) with more nodes than twice the
    splits is a whole forest: every walk from a root ends at a leaf. With
    no more nodes than that there is no tree, and with a negative leaf
    value (c(size) never is) a score could overflow: the check refuses."""
    value = data.draw(st.lists(st.sampled_from([-1e300, -1.0, 0.0, 0.5, 1.0, 1e300])
                               | st.floats(-9, 9), min_size=len(feature), max_size=len(feature)))
    state = {"feature": np.array(feature, dtype=np.float64), "value": np.array(value),
             "subsample": 8}
    sizes = {"nodes": len(feature), "dim": 3}
    if len(feature) <= 2 * sum(f >= 0 for f in feature):
        with pytest.raises(ValueError, match="no room for a tree"):
            checked_state(state, sizes)
    elif any(f < 0 and v < 0 for f, v in zip(feature, value)):
        with pytest.raises(ValueError, match="leaf value is negative"):
            checked_state(state, sizes)
    else:
        assert np.isfinite(score_iforest(checked_state(state, sizes), QUERIES)).all()


# ---------------------------------------------------------------------------
# local outlier factor
# ---------------------------------------------------------------------------

def test_lof_near_one_on_uniform_grid():
    # lattice corners sit at ~1.23 once k reaches lof.K = 20 (boundary effect),
    # so the homogeneous-density check runs with a tighter neighborhood
    xs, ys = np.meshgrid(np.arange(15.0), np.arange(15.0))
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
    train_lof = fit_lof(grid, 10)["train_lof"]
    assert np.all(train_lof >= 0.8)
    assert np.all(train_lof <= 1.2)


def test_lof_needs_more_than_k_points():
    with pytest.raises(ValueError, match="more than k"):
        detect.fit(["lof"], gaussian_blob(n=15, d=3), CFG)


def test_lof_flags_isolated_point():
    x = gaussian_blob(n=150, d=3, seed=7)
    model = detect.fit(["lof"], x.copy(), CFG)["lof"]
    assert detect.score_many(model, x[:1] + 25.0)[0] > np.max(fit_scores(model, x))


def lof_oracle(train, query, k):
    """LOF by a full stable argsort of every distance row (test oracle): the
    training state, and the scores of `query`."""
    d = _cross_distances(train, train)
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")
    neighbors = order[:, :k]
    kdist = np.take_along_axis(d, order[:, k - 1:k], axis=1)[:, 0]
    reach = np.maximum(kdist[neighbors], np.take_along_axis(d, neighbors, axis=1))
    lrd = 1.0 / np.maximum(reach.mean(axis=1), 1e-10)
    state = {"x": train, "k": k, "kdist": kdist, "lrd": lrd,
             "train_lof": lrd[neighbors].mean(axis=1) / lrd}
    dq = _cross_distances(query, train)
    neighbors = np.argsort(dq, axis=1, kind="stable")[:, :k]
    reach = np.maximum(kdist[neighbors], np.take_along_axis(dq, neighbors, axis=1))
    lrd_query = 1.0 / np.maximum(reach.mean(axis=1), 1e-10)
    return state, lrd[neighbors].mean(axis=1) / lrd_query


def tied_points(case, n=2 * BLOCK + 37):
    """Three inputs whose distance rows are full of ties, over several blocks."""
    rng = make_rng(21)
    if case == "duplicated rows":
        x = rng.normal(size=(n, 4))
        x[::3] = x[0]                  # a third of the rows are one point
        x[1::7] = x[1]
        return x
    if case == "ties straddling the k-th value":
        return rng.integers(0, 3, size=(n, 3)).astype(np.float64)   # 27 lattice points
    return np.full((n, 5), 2.5)        # all-constant


CASES = ["duplicated rows", "ties straddling the k-th value", "all-constant"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("k", [1, 20])
def test_nearest_is_the_first_k_of_a_stable_argsort(case, k):
    x = tied_points(case)
    d = _cross_distances(x, x)
    np.fill_diagonal(d, np.inf)
    kth = np.sort(d, axis=1)[:, k - 1:k]
    if case != "all-constant":    # the k-th value is tied within and beyond the first k
        assert ((d == kth).sum(axis=1) > 1).any()
    assert np.array_equal(_nearest(d, k), np.argsort(d, axis=1, kind="stable")[:, :k])
    assert np.array_equal(_nearest(d[:5, :40], k), np.argsort(d[:5, :40], axis=1,
                                                             kind="stable")[:, :k])


@pytest.mark.parametrize("case", CASES)
def test_fit_and_score_lof_equal_the_full_sort_oracle(case):
    x = tied_points(case)
    query = np.concatenate([x[:BLOCK + 3], x[:40] + 0.5])
    expected, expected_scores = lof_oracle(x, query, 20)
    state = fit_lof(x, 20)
    for key in ("kdist", "lrd", "train_lof"):
        assert np.array_equal(state[key], expected[key]), key
    assert np.array_equal(score_lof(state, query), expected_scores)


def test_row_norms_are_bitwise_the_one_shot_sum_a_block_at_a_time(traced_peak):
    a = gaussian_blob(n=2 * BLOCK + 37, d=64, seed=23)
    assert _row_norms(a).tobytes() == (a * a).sum(axis=1).tobytes()
    assert traced_peak(_row_norms, a) < a.nbytes


def test_distance_and_kernel_peak_below_one_and_a_half_matrices(traced_peak):
    n = 1500
    x = gaussian_blob(n=n, d=16, seed=22)
    matrix = n * n * 8
    assert traced_peak(_cross_distances, x, x) < 1.5 * matrix
    assert traced_peak(rbf_kernel, x, x, ocsvm.default_gamma(x)) < 1.5 * matrix


# ---------------------------------------------------------------------------
# one-class SVM
# ---------------------------------------------------------------------------

def test_ocsvm_dual_constraints_hold():
    x = gaussian_blob(n=300, d=6, seed=8)
    model = detect.fit(["ocsvm"], x, CFG)["ocsvm"]
    alpha = model.state["alpha"]            # the support vectors' weights; every other is 0
    box = 1.0 / (ocsvm.NU * len(x))
    assert np.all(alpha >= -1e-12)
    assert np.all(alpha <= box + 1e-12)
    assert abs(alpha.sum() - 1.0) < 1e-6


def test_ocsvm_nu_property():
    # count points clearly outside the boundary; free SVs straddle zero
    # within the solver tolerance
    x = gaussian_blob(n=400, d=6, seed=9)
    model = detect.fit(["ocsvm"], x.copy(), CFG)["ocsvm"]
    outlier_fraction = float(np.mean(detect.score_many(model, x) > TOL))
    assert outlier_fraction <= ocsvm.NU + 0.02
    at_box = float(np.sum(model.state["alpha"] >= 1.0 / (ocsvm.NU * len(x)) - 1e-9) / len(x))
    assert at_box <= ocsvm.NU + 0.02     # margin errors are box-bound alphas


def test_ocsvm_score_is_rho_minus_kernel_sum():
    x = gaussian_blob(n=120, d=4, seed=10)
    model = detect.fit(["ocsvm"], x.copy(), CFG)["ocsvm"]
    state = model.state
    z = (x[0] - model.scaler_mean) / model.scaler_std
    k = rbf_kernel(z[None], state["sv"], state["gamma"])[0]
    expected = state["rho"] - float(k @ state["alpha"])
    assert detect.score_many(model, x[:1])[0] == pytest.approx(expected, abs=1e-12)


def test_ocsvm_rejects_bad_nu():
    with pytest.raises(ValueError, match="nu must be in"):
        fit_ocsvm(gaussian_blob(), 1.5)


# ---------------------------------------------------------------------------
# robust covariance envelope
# ---------------------------------------------------------------------------

def test_ee_covariance_psd(small_e2e):
    cov = small_e2e["detectors"]["ee"].state["cov"]
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_ee_score_zero_at_robust_mean():
    x = gaussian_blob(n=200, d=5, seed=11)
    state = fit_ee(x, 4, 10, make_rng(1))
    # score_ee projects its input first: map the robust mean back to the full space
    robust_mean = state["pca_mean"] + state["pca_basis"] @ state["mu"]
    assert score_ee(state, robust_mean[None])[0] == pytest.approx(0.0)


def test_ee_state_holds_its_pca_reduction():
    x = gaussian_blob(n=200, d=5, seed=11)
    state = fit_ee(x, 3, 5, make_rng(1))
    basis, mean = pca_fit(x, 3)
    assert np.array_equal(state["pca_basis"], basis)
    assert np.array_equal(state["pca_mean"], mean)
    assert state["mu"].shape == (3,) and state["cov"].shape == (3, 3)


def test_ee_resists_contamination():
    rng = make_rng(12)
    x = np.concatenate([rng.normal(size=(300, 4)),
                        rng.normal(size=(30, 4)) + 12.0])
    state = fit_ee(x, 3, 10, make_rng(2))
    scores = score_ee(state, x)
    clean_scores = scores[:300]
    dirty_scores = scores[300:]
    assert np.median(dirty_scores) > np.max(np.median(clean_scores, keepdims=True))


# ---------------------------------------------------------------------------
# one-class network
# ---------------------------------------------------------------------------

def test_deep_svdd_separates_shifted_copies():
    x = gaussian_blob(n=200, d=6, seed=13) * 0.5
    state = fit_deep_svdd(x, (16, 4), epochs=30, batch=32, lr=1e-3,
                          weight_decay=1e-4, seed=3)
    shifted = x + 5.0
    assert score_deep_svdd(state, x).mean() < score_deep_svdd(state, shifted).mean()


def test_deep_svdd_zero_weights_give_constant_objective():
    net = build_network(4, (8, 2), make_rng(14))
    for layer in net.layers:
        for arr in layer.params().values():
            arr[...] = 0.0
    x = gaussian_blob(n=40, d=4, seed=15)
    out = net.forward(x)
    assert np.array_equal(out, np.zeros((40, 2)))


def test_deep_svdd_deterministic():
    x = gaussian_blob(n=64, d=5, seed=16)
    kw = dict(widths=(8, 4), epochs=5, batch=16, lr=1e-3, weight_decay=1e-4, seed=4)
    a = fit_deep_svdd(x, **kw)
    b = fit_deep_svdd(x, **kw)
    assert np.array_equal(score_deep_svdd(a, x), score_deep_svdd(b, x))


def test_deep_svdd_needs_32_points():
    with pytest.raises(ValueError, match="32"):
        fit_deep_svdd(gaussian_blob(n=20, d=4), (8, 4), 5, 16, 1e-3, 1e-4, 0)


@pytest.mark.parametrize("epochs, batch", [(0, 16), (-3, 16), (2, 0)])
def test_deep_svdd_rejects_fewer_than_one_epoch_or_batch_row(epochs, batch):
    with pytest.raises(ValueError, match="epochs and batch size must be >= 1"):
        fit_deep_svdd(gaussian_blob(n=48, d=10), (16, 4), epochs, batch, 1e-3, 1e-4, 0)


def test_deep_svdd_widths_must_decrease():
    with pytest.raises(ValueError, match="decreasing"):
        fit_deep_svdd(gaussian_blob(n=64, d=4), (4, 8), 5, 16, 1e-3, 1e-4, 0)


def test_deep_svdd_non_finite_objective_is_training_diverged():
    """1e39 is finite in float64 but inf in the float32 training copy; one
    batch holds all 40 rows."""
    x = gaussian_blob(n=40, d=4, seed=17)
    x[3, 1] = 1e39
    with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"), \
            np.errstate(over="ignore", invalid="ignore"):
        fit_deep_svdd(x, (8, 4), epochs=2, batch=64, lr=1e-3, weight_decay=1e-4, seed=6)


def test_deep_svdd_collapse_guard():
    x = np.zeros((64, 4))          # zero input -> zero initial center
    state = fit_deep_svdd(x, (8, 2), epochs=1, batch=32, lr=1e-3,
                          weight_decay=0.0, seed=5)
    assert np.linalg.norm(state["center"]) >= 1e-6


# ---------------------------------------------------------------------------
# uniform contract
# ---------------------------------------------------------------------------

def test_fit_deterministic_per_seed():
    x = gaussian_blob(n=120, d=6, seed=18)
    cfg = DetectorConfig(seed=6)
    for kind in detect.KINDS:
        a = detect.fit([kind], x.copy(), cfg)[kind]
        b = detect.fit([kind], x.copy(), cfg)[kind]
        assert np.array_equal(fit_scores(a, x), fit_scores(b, x)), kind
        assert a.threshold == b.threshold


def test_score_is_pure_post_fit(small_e2e):
    model = small_e2e["detectors"]["deep_svdd"]
    probe = make_rng(19).normal(size=(1, 700))
    first = detect.score_many(model, probe)
    assert np.array_equal(first, detect.score_many(model, probe))
    assert first[0] >= 0.0    # squared distance to the center


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown detector kind"):
        detect.fit(["dbscan"], gaussian_blob(), CFG)


def test_detector_model_validates_kind():
    with pytest.raises(ValueError, match="unknown detector kind"):
        DetectorModel("nope", np.zeros(2), np.ones(2), {}, 0.0)


# ---------------------------------------------------------------------------
# non-finite embeddings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", detect.KINDS)
def test_fit_rejects_non_finite_embedding_row(kind, value):
    x = gaussian_blob(n=48, d=6, seed=30)
    x[17, 3] = value
    x[30, 0] = value
    with pytest.raises(ValueError, match="embedding row 17 contains NaN/Inf"):
        detect.fit([kind], x, CFG)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", detect.KINDS)
def test_score_rejects_non_finite_embedding_row(small_e2e, kind, value):
    model = small_e2e["detectors"][kind]
    x = np.tile(model.scaler_mean, (4, 1))
    x[2, 5] = value
    with pytest.raises(ValueError, match="embedding row 2 contains NaN/Inf"):
        detect.score_many(model, x)
    with pytest.raises(ValueError, match="embedding row 0 contains NaN/Inf"):
        detect.score_many(model, x[2:3])


@pytest.mark.parametrize("what", ["dtw_batch", "embed_many", *detect.KINDS])
def test_an_empty_batch_gives_an_empty_result(small_e2e, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if what == "dtw_batch":
            out = dtw_batch(np.zeros((0, 3, 2)), np.zeros((0, 3, 2)))
        elif what == "embed_many":
            out = embed_many(small_e2e["t2v_model"], np.zeros((0, 100, 6)))
        else:
            out = detect.score_many(small_e2e["detectors"][what], np.zeros((0, 700)))
    assert out.shape == ((0, 700) if what == "embed_many" else (0,))


# ---------------------------------------------------------------------------
# degenerate training sets: finite scores and threshold, or a ValueError
# ---------------------------------------------------------------------------

def degenerate_sets(d=6):
    """name -> (n, d) training set. The sizes are each kind's minimum n and one
    below it: LOF k+1 (k=20), Deep SVDD 32, EE d+1 (PCA keeps all d dims
    here), the isolation forest 2, and 1 for OCSVM and the baseline."""
    signed_zero = np.where(np.arange(48)[:, None] % 2, -0.0, 0.0)
    sets = {"duplicated-rows": np.repeat(gaussian_blob(n=24, d=d, seed=40), 2, axis=0),
            "one-constant-feature": np.where(np.arange(d) == 2, 1.5, gaussian_blob(48, d, 41)),
            "all-constant": np.full((48, d), 0.7),
            "d=1": gaussian_blob(48, 1, 42),
            "near-1e154": 1e154 * gaussian_blob(48, d, 43),
            "near-1e-300": 1e-300 * gaussian_blob(48, d, 44),
            "signed-zero-column": np.where(np.arange(d) == 1, signed_zero,
                                           gaussian_blob(48, d, 45))}
    for n in (21, 20, 32, 31, d + 1, d, 2, 1, 0):
        sets[f"n={n}"] = gaussian_blob(n=n, d=d, seed=n)
    return sets


def expected_error(kind, name, n):
    """The ValueError a kind raises on a degenerate set, or None if it must fit.

    Near 1e-300 every std is floored at 1e-12, so LOF, OCSVM and Deep SVDD
    score every row the same: finite, so within the contract.
    """
    if n == 0:
        return r"non-empty \(n, d\) array, not \(0, 6\)"
    if name == "near-1e154":        # the std overflows
        return "feature 0: training mean or std is not finite"
    if kind == "iforest" and n < 2:
        return "at least 2 training points, got 1"
    if kind == "lof" and n <= 20:
        return "more than k=20"
    if kind == "deep_svdd" and n < 32:
        return "at least 32"
    if kind == "ee":
        if name in ("all-constant", "near-1e-300"):
            return "covariance rank 0 < requested dims 6"
        if name in ("one-constant-feature", "signed-zero-column"):
            return "covariance rank 5 < requested dims 6"
        if n <= 6:
            return "need more than 6 samples"
    return None


@pytest.mark.parametrize("name", degenerate_sets())
@pytest.mark.parametrize("kind", detect.SPECS)
def test_degenerate_training_set_fits_finite_or_raises(kind, name):
    x = degenerate_sets()[name]
    cfg = DetectorConfig(seed=0)
    error = expected_error(kind, name, len(x))
    if error is not None:
        with pytest.raises(ValueError, match=error):
            detect.fit([kind], x, cfg)
        return
    model = detect.fit([kind], x.copy(), cfg)[kind]
    assert np.isfinite(model.threshold) and np.isfinite(fit_scores(model, x)).all()
    assert np.isfinite(detect.score_many(model, x)).all()


@pytest.mark.parametrize("kind, name", [
    (kind, name) for kind in detect.SPECS for name, x in degenerate_sets().items()
    if expected_error(kind, name, len(x)) is None])
def test_no_fit_writes_into_its_writeable_input(kind, name):
    """Each kind's own fit, given a writeable array, leaves it as it was."""
    x = degenerate_sets()[name]
    given = x.copy()
    detect.SPECS[kind].fit(given, 0)
    assert given.tobytes() == x.tobytes()


@pytest.mark.parametrize("kind", detect.SPECS)
def test_score_many_rejects_input_of_another_width(kind):
    """Rows narrower or wider than the scaler raise, naming both shapes; a (1,)
    scaler does not broadcast over wider rows."""
    x = gaussian_blob(n=48, d=6, seed=37)
    model = detect.fit([kind], x.copy(), CFG)[kind]
    for width in (5, 7):
        with pytest.raises(ValueError, match=rf"{kind} input is \(4, {width}\), "
                                             r"its scaler \(6,\)"):
            detect.score_many(model, gaussian_blob(4, width, 38))
    narrow = detect.fit([kind], x[:, :1].copy(), CFG)[kind]
    with pytest.raises(ValueError, match=rf"{kind} input is \(48, 6\), its scaler \(1,\)"):
        detect.score_many(narrow, x)


def test_lof_scores_points_off_an_all_constant_training_set_finite_and_above_the_threshold():
    x = degenerate_sets()["all-constant"]
    model = detect.fit(["lof"], x.copy(), CFG)["lof"]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        scores = detect.score_many(model, np.concatenate([x[:2] + 3.0, x[:2] + 1e-9]))
    assert np.isfinite(scores).all() and (scores > model.threshold).all()


# ---------------------------------------------------------------------------
# the kind table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", detect.KINDS)
def test_fit_calls_the_module_level_fit_function_bound_at_call_time(monkeypatch, kind):
    """Rebinding `detect.fit_<kind>` (as a tracer does) reaches `detect.fit`."""
    original = getattr(detect, f"fit_{kind}")
    calls = []

    def recording(*args, **kwargs):
        calls.append(kind)
        return original(*args, **kwargs)

    monkeypatch.setattr(detect, f"fit_{kind}", recording)
    x = gaussian_blob(n=48, d=6, seed=31)
    model = detect.fit([kind], x.copy())[kind]
    assert calls == [kind]
    assert fit_scores(model, x).shape == (48,)


@pytest.mark.parametrize("kind", detect.KINDS)
def test_a_fitted_state_holds_exactly_what_its_file_stores(kind):
    """A fitted model and its reloaded copy hold the same state entries; the
    one extra is LOF's in-sample `train_lof`, which `train_scores` reads."""
    state = detect.fit([kind], gaussian_blob(n=48, d=6, seed=35), CFG)[kind].state
    extra = {"train_lof"} if kind == "lof" else set()
    assert set(state) == set(detect.KINDS[kind].stored) | extra


# ---------------------------------------------------------------------------
# one standardized matrix for every kind
# ---------------------------------------------------------------------------

def test_fitting_every_kind_at_once_saves_the_bytes_of_fitting_each_alone(tmp_path):
    x = gaussian_blob(n=120, d=8, seed=33)
    together = detect.fit(detect.KINDS, x.copy(), CFG)
    assert list(together) == list(detect.KINDS) == ["iforest", "lof", "ocsvm", "ee", "deep_svdd"]
    for kind, model in together.items():
        save_detector(tmp_path / "together.json", model)
        save_detector(tmp_path / "alone.json", detect.fit([kind], x.copy(), CFG)[kind])
        assert ((tmp_path / "together.json").read_bytes()
                == (tmp_path / "alone.json").read_bytes()), kind


def test_lof_stores_the_read_only_standardized_matrix():
    """`fit` takes its input over: the caller's array ends standardized,
    bitwise `(x - mean) / std`, read-only, and it is the one (n, d) array
    that the fitted detectors hold."""
    x = gaussian_blob(n=120, d=8, seed=34)
    mean, std = x.mean(axis=0), np.maximum(x.std(axis=0), 1e-12)
    expected = (x - mean) / std
    fitted = detect.fit(detect.KINDS, x, CFG)
    assert x.tobytes() == expected.tobytes() and not x.flags.writeable
    assert fitted["lof"].state["x"] is x
    held = [v for model in fitted.values() for v in model.state.values()
            if isinstance(v, np.ndarray) and v.shape == x.shape]
    assert len(held) == 1 and held[0] is x


def read_only(x):
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("make", [lambda x: x.astype(np.float32), np.ndarray.tolist, read_only])
def test_fit_copies_an_input_it_cannot_standardize_in_place(make):
    """A float32 array, a list or a read-only array is left as it was."""
    x = gaussian_blob(n=48, d=6, seed=36)
    given = make(x.copy())
    model = detect.fit(["lof"], given, CFG)["lof"]
    assert np.array_equal(given, make(x.copy()))
    stored = model.state["x"]
    assert stored.dtype == np.float64 and not stored.flags.writeable
    assert stored.tobytes() == ((np.asarray(given, dtype=np.float64) - model.scaler_mean)
                                / model.scaler_std).tobytes()


def test_a_fit_that_writes_into_the_standardized_matrix_raises(monkeypatch):
    """Every kind fits on the one matrix LOF stores; a kind that writes into it
    raises instead of changing LOF's `x` under it."""
    original = detect.fit_iforest

    def writing(z, *args):
        z[0, 0] = 0.0
        return original(z, *args)

    monkeypatch.setattr(detect, "fit_iforest", writing)
    with pytest.raises(ValueError, match="read-only"):
        detect.fit(["lof", "iforest"], gaussian_blob(n=48, d=6, seed=34), CFG)


def test_fitting_every_kind_on_900_embeddings_holds_one_standardized_copy(traced_peak):
    """The input is standardized in place, so it is the one standardized copy:
    the traced peak is 2.37 x.nbytes, and was 3.37 with a second (n, d) one."""
    x = gaussian_blob(n=900, d=700, seed=35)
    assert traced_peak(detect.fit, detect.KINDS, x, CFG) < 3.0 * x.nbytes


def test_lof_training_scores_are_the_fitted_lof_values():
    x = gaussian_blob(n=48, d=6, seed=32)
    model = detect.fit(["lof"], x.copy(), CFG)["lof"]
    assert model.threshold == detect.fitted_threshold(model.state["train_lof"],
                                                      CFG.threshold_quantile)
    assert model.threshold != detect.fitted_threshold(detect.score_many(model, x),
                                                      CFG.threshold_quantile)


@pytest.mark.parametrize("module", ["t2vad", "t2vad.detect"])
def test_every_exported_name_resolves(module):
    """`from <module> import *` raises if `__all__` names something deleted."""
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)
