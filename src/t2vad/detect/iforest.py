"""Isolation forest on random axis-aligned splits.

Score of a point is 2^(-E[h(x)] / c(m)) where h is the path length over the
trees, m the per-tree subsample size and c(m) the expected path length of an
unsuccessful BST search: c(m) = 2 H(m-1) - 2(m-1)/m. Harmonic numbers are
exact up to a cached bound so c(2) == 1 exactly.
"""

from __future__ import annotations

import math

import numpy as np

_HARMONIC_BOUND = 4096
_harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, _HARMONIC_BOUND + 1))])
_EULER_GAMMA = 0.5772156649015329


def average_path_length(m: int) -> float:
    """c(m): normalizing expected path length for a sample of size m."""
    if m <= 1:
        return 0.0
    if m - 1 <= _HARMONIC_BOUND:
        h = float(_harmonic[m - 1])
    else:
        h = math.log(m - 1) + _EULER_GAMMA
    return 2.0 * h - 2.0 * (m - 1) / m


def _build_tree(x: np.ndarray, depth: int, max_depth: int, rng) -> list:
    m = len(x)
    if m <= 1 or depth >= max_depth:
        return ["leaf", m]
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    usable = np.flatnonzero(maxs > mins)
    if usable.size == 0:
        return ["leaf", m]
    f = int(rng.choice(usable))
    u = float(rng.uniform(mins[f], maxs[f]))
    mask = x[:, f] < u
    if mask.all() or not mask.any():
        return ["leaf", m]
    return ["split", f, u,
            _build_tree(x[mask], depth + 1, max_depth, rng),
            _build_tree(x[~mask], depth + 1, max_depth, rng)]


def fit_iforest(x: np.ndarray, n_trees: int, subsample: int, rng) -> dict:
    n = len(x)
    size = min(subsample, n)
    max_depth = int(math.ceil(math.log2(max(size, 2))))
    trees = [
        _build_tree(x[rng.choice(n, size=size, replace=False)], 0, max_depth, rng)
        for _ in range(n_trees)
    ]
    return {"trees": trees, "subsample": size}


def _path_lengths(node: list, x: np.ndarray, idx: np.ndarray, depth: int,
                  out: np.ndarray) -> None:
    if idx.size == 0:
        return
    if node[0] == "leaf":
        out[idx] = depth + average_path_length(node[1])
        return
    _, f, u, left, right = node
    mask = x[idx, f] < u
    _path_lengths(left, x, idx[mask], depth + 1, out)
    _path_lengths(right, x, idx[~mask], depth + 1, out)


def score_iforest(state: dict, x: np.ndarray) -> np.ndarray:
    paths = np.zeros(len(x))
    idx = np.arange(len(x))
    for tree in state["trees"]:
        lengths = np.zeros(len(x))
        _path_lengths(tree, x, idx, 0, lengths)
        paths += lengths
    mean_path = paths / len(state["trees"])
    return np.power(2.0, -mean_path / average_path_length(state["subsample"]))
