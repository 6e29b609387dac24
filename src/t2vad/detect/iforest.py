"""Isolation forest on random axis-aligned splits.

Score of a point is 2^(-E[h(x)] / c(m)) where h is the path length over the
trees, m the per-tree subsample size and c(m) the expected path length of an
unsuccessful BST search: c(m) = 2 H(m-1) - 2(m-1)/m. Harmonic numbers are
exact up to a cached bound so c(2) == 1 exactly.

The fitted forest is stored as two per-node arrays in breadth-first order
over all trees: the roots in tree order, then the children of each split,
left before right. `feature` is the split feature (-1 at a leaf) and
`value` a split's threshold or a leaf's c(size). With T trees and S
splits (T = nodes - 2 S), the children of the j-th split are nodes
T + 2j and T + 2j + 1, so no pointer is stored. Scoring advances every
(tree, window) pair one level per step, at most ceil(log2(subsample))
steps, and adds the per-tree path lengths in tree order, so a score is
bitwise that of a recursive descent of each tree in turn.

The forest grows one depth level at a time, all trees at once. The rows
of one depth's nodes lie end to end in one array of row indices, so a
level is a few whole-level array operations: pick every node's feature,
gather that column for every row of every node, take each node's range
by `reduceat`, and sort every split's rows, left child's then right
child's, into the next depth's array. The draws are a table, not a
stream: after every tree's subsample, two (trees, 2^max_depth - 1)
`rng.random` arrays `pick` and `cut`, read at each node's heap position
(root 0, children 2h + 1 and 2h + 2). So the forest is a function of the
data and the table alone, whatever order its nodes grow in. The levels,
laid end to end, are the stored layout above.

A feature whose training values are all distinct (no two equal, -0.0 ==
0.0 included) differs within any node of two or more distinct rows, so it
is usable there without a look; only the features that repeat a value get
the per-node max > min check, BLOCK values at a time.
"""

from __future__ import annotations

import math

import numpy as np

TREES = 100
SUBSAMPLE = 256          # per-tree sample size (capped at n)
BLOCK = 1 << 16          # elements per temporary of the tied-feature checks

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


def _tied_features(x: np.ndarray) -> np.ndarray:
    """The columns of `x` (n, d) that repeat a value, -0.0 == 0.0 included;
    sorted a block of columns at a time."""
    n, d = x.shape
    step = max(1, BLOCK // max(n, 1))
    distinct = np.empty(d, dtype=bool)
    for start in range(0, d, step):
        block = np.array(x[:, start:start + step].T, order="C")   # a copy: it sorts in place
        block.sort(axis=1)
        distinct[start:start + step] = (block[:, 1:] > block[:, :-1]).all(axis=1)
    return np.flatnonzero(~distinct)


def _pick_features(d, tied, tied_x, rows, offsets, count, pick) -> np.ndarray:
    """Per node of `count` >= 2 rows (`rows[offsets[j]:][:count[j]]`): the
    floor(pick * c)-th, clamped to c - 1, of its c usable features in
    ascending order, or -1 if it has none.

    A feature is usable where its values are not all equal, so only the
    `tied` ones (columns of `tied_x`) need a look. They are checked on
    chunks of nodes of one power-of-two size class and about BLOCK //
    len(tied) rows, each node's rows padded to the chunk's largest by
    repeating its last row, BLOCK values at a time. The chosen feature is k
    plus the number of unusable features before it, which are the unusable
    ones with at most k usable features before them.
    """
    if not tied.size:
        return np.minimum((pick * d).astype(np.int64), d - 1)
    feature = np.empty(len(count), dtype=np.int64)
    by_size = np.argsort(count, kind="stable")
    sizes = count[by_size]
    chunk_of = np.cumsum(sizes) // max(1, BLOCK // len(tied)) + np.ceil(np.log2(sizes))
    bounds = [0, *(np.flatnonzero(np.diff(chunk_of)) + 1), len(count)]
    untied_before = tied - np.arange(len(tied))      # features before each tied one that need no look
    for a, b in zip(bounds[:-1], bounds[1:]):
        nodes = by_size[a:b]
        padded = rows[offsets[nodes, None]
                      + np.minimum(np.arange(sizes[b - 1]), count[nodes, None] - 1)]
        spread = np.empty((b - a, len(tied)), dtype=bool)
        width = max(1, BLOCK // padded.size)
        for f in range(0, len(tied), width):
            values = tied_x[padded, f:f + width]              # (nodes, rows, features)
            spread[:, f:f + width] = values.max(axis=1) > values.min(axis=1)
        c = d - len(tied) + spread.sum(axis=1)
        k = np.minimum((pick[nodes] * c).astype(np.int64), c - 1)
        before = untied_before + np.cumsum(spread, axis=1) - spread
        feature[nodes] = np.where(c > 0, k + ((before <= k[:, None]) & ~spread).sum(axis=1), -1)
    return feature


def _split(x, tied, tied_x, rows, count, pick, cut):
    """The split of each node of `count` >= 2 rows, laid end to end in
    `rows`, by its table entries `pick` and `cut`: its feature (-1 if it
    stays a leaf) and threshold, and the sizes and rows of the children of
    the nodes that split, in node order: each split's left child's, then
    its right child's."""
    offsets = np.cumsum(count) - count
    member = np.repeat(np.arange(len(count)), count)
    feature = _pick_features(x.shape[1], tied, tied_x, rows, offsets, count, pick)
    values = x.take(rows * x.shape[1] + np.maximum(feature, 0)[member])
    lo, hi = np.minimum.reduceat(values, offsets), np.maximum.reduceat(values, offsets)
    threshold = lo + (hi - lo) * cut             # numpy's `uniform(lo, hi)` formula
    left = values < threshold[member]
    n_left = np.add.reduceat(left, offsets, dtype=np.int64)
    split = (n_left > 0) & (n_left < count)
    feature[~split] = -1
    kept = split[member]
    child = (2 * member + ~left)[kept]           # node j's left child 2j, right child 2j + 1
    return (feature, threshold, np.column_stack([n_left, count - n_left])[split].ravel(),
            rows[kept][np.argsort(child, kind="stable")])


def fit_iforest(x: np.ndarray, n_trees: int, subsample: int, rng) -> dict:
    """`n_trees` isolation trees, each grown on `subsample` rows of `x` (n, d)
    drawn without replacement, as the breadth-first node arrays above.

    The node at heap position h of tree t (children 2h + 1 and 2h + 2)
    splits on the floor(pick[t, h] * c)-th, clamped to c - 1, of its c
    usable features (values not all equal there) in ascending order, at
    lo + (hi - lo) * cut[t, h] between that feature's min and max there;
    `pick` and `cut` are two (n_trees, 2^max_depth - 1) `rng.random`
    tables drawn after every tree's subsample.
    """
    x = np.ascontiguousarray(x)
    n = len(x)
    if n < 2:                       # c(1) = 0 would score every window NaN
        raise ValueError(f"the isolation forest needs at least 2 training points, got {n}")
    size = min(subsample, n)
    max_depth = int(math.ceil(math.log2(max(size, 2))))
    tied = _tied_features(x)
    tied_x = x[:, tied]
    rows = np.concatenate([rng.choice(n, size=size, replace=False) for _ in range(n_trees)])
    pick = rng.random((n_trees, 2 ** max_depth - 1))
    cut = rng.random((n_trees, 2 ** max_depth - 1))
    leaf_path = np.array([average_path_length(m) for m in range(size + 1)])   # c(m) for every node size
    # one depth's nodes: the r-th split's children are the next depth's nodes
    # 2r (left) and 2r + 1 (right); `rows` holds the rows of the nodes of two
    # or more, end to end
    tree, heap, count = np.arange(n_trees), np.zeros(n_trees, dtype=np.int64), np.full(n_trees, size)
    levels = []          # per depth: feature, value
    for depth in range(max_depth + 1):
        feature, threshold = np.full(len(tree), -1), np.zeros(len(tree))
        grow = (count >= 2) & (depth < max_depth)
        if not grow.all():
            rows = rows[np.repeat(grow, count)]
        grow = np.flatnonzero(grow)
        if grow.size:
            cell = tree[grow] * pick.shape[1] + heap[grow]
            feature[grow], threshold[grow], children, rows = _split(
                x, tied, tied_x, rows, count[grow], pick.take(cell), cut.take(cell))
        levels.append((feature, np.where(feature >= 0, threshold, leaf_path[count])))
        splits = np.flatnonzero(feature >= 0)
        if not splits.size:
            break
        tree = np.repeat(tree[splits], 2)
        heap = (2 * heap[splits, None] + [1, 2]).ravel()
        count = children
    feature, value = map(np.concatenate, zip(*levels))
    return {"feature": feature, "value": value, "subsample": size}


def checked_state(state: dict, sizes: dict) -> dict:
    """A forest read from a file, with an integer `feature`; ValueError unless
    `subsample` is at least 2, every feature is -1 (a leaf) or below the
    scaler width, the nodes outnumber twice the splits (T >= 1) and no leaf
    value, a c(size), is negative. Then every reachable split's children lie
    after it, so every walk ends at a leaf, and every score is finite."""
    if state["subsample"] < 2:
        raise ValueError("iforest subsample must be an integer >= 2")
    feature = state["feature"].astype(np.int64)
    if (feature != state["feature"]).any():
        raise ValueError("iforest feature holds a non-integer")
    if not ((feature >= -1) & (feature < sizes["dim"])).all():
        raise ValueError("iforest feature out of range (want -1 or a feature below dim)")
    if sizes["nodes"] <= 2 * np.count_nonzero(feature >= 0):
        raise ValueError("iforest has no room for a tree (want more nodes than twice the splits)")
    if (state["value"][feature < 0] < 0).any():
        raise ValueError("iforest leaf value is negative (want c(size) >= 0)")
    return {**state, "feature": feature}


def score_iforest(state: dict, x: np.ndarray) -> np.ndarray:
    """2^(-mean path / c(subsample)): every (tree, window) pair descends one
    level per step; the per-tree lengths are added in tree order."""
    feature, value = state["feature"], state["value"]
    split = feature >= 0
    n_trees, n = len(feature) - 2 * np.count_nonzero(split), len(x)
    left = n_trees + 2 * (np.cumsum(split) - split)   # j-th split's children: T + 2j, T + 2j + 1
    node = np.repeat(np.arange(n_trees), n)          # pair t * n + i: tree t, window i
    row = np.tile(np.arange(n), n_trees)
    depth = np.zeros(n_trees * n, dtype=np.int64)
    live = np.flatnonzero(split[node])
    level = 0
    while live.size:
        level += 1
        at = node[live]
        node[live] = left[at] + (x[row[live], feature[at]] >= value[at])
        depth[live] = level
        live = live[split[node[live]]]
    lengths = (depth + value[node]).reshape(n_trees, n)
    paths = np.zeros(n)
    for tree_lengths in lengths:
        paths += tree_lengths
    mean_path = paths / n_trees
    return np.power(2.0, -mean_path / average_path_length(state["subsample"]))
