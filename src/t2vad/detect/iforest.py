"""Isolation forest on random axis-aligned splits.

Score of a point is 2^(-E[h(x)] / c(m)) where h is the path length over the
trees, m the per-tree subsample size and c(m) the expected path length of an
unsuccessful BST search: c(m) = 2 H(m-1) - 2(m-1)/m. Harmonic numbers are
exact up to a cached bound so c(2) == 1 exactly.

The fitted forest is stored as flat per-node arrays in preorder: `feature`,
`threshold`, `right` (-1 at a leaf) and `path` = c(leaf size), plus each
tree's root node in `roots`. A split's left child is the next node, so no
`left` array is stored. Scoring advances every (tree, window) pair
one level per step, at most ceil(log2(subsample)) steps, and adds the
per-tree path lengths in tree order, so a score is bitwise that of a
recursive descent of each tree in turn.

The forest grows one depth level at a time, all trees at once. The rows
of one depth's nodes lie end to end in one array of row indices, so a
level is a few whole-level array operations: pick every node's feature,
gather that column for every row of every node, take each node's range
by `reduceat`, and split every node's rows by one mask into the next
depth's array. The draws are a table, not a stream: after every tree's
subsample, two (trees, 2^max_depth - 1) `rng.random` arrays `pick` and
`cut`, read at each node's heap position (root 0, children 2h + 1 and
2h + 2). So the forest is a function of the data and the table alone,
whatever order its nodes grow in. The nodes are then placed in the
preorder layout above from their subtree sizes.

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


NODE_ARRAYS = ("feature", "threshold", "right", "path")


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
    stays a leaf), threshold and left child's size, and the rows of the
    children of the nodes that split: every left child's, then every right
    child's, in node order."""
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
    return (feature, np.where(split, threshold, 0.0), n_left,
            np.concatenate([rows[left & kept], rows[~left & kept]]))


def fit_iforest(x: np.ndarray, n_trees: int, subsample: int, rng) -> dict:
    """`n_trees` isolation trees, each grown on `subsample` rows of `x` (n, d)
    drawn without replacement, as flat preorder node arrays.

    A node is [feature, threshold, right, path]: a leaf has feature and
    right -1 and path c(its size); a split has path 0 and its left subtree
    right after it. The node at heap position h of tree t (children 2h + 1
    and 2h + 2) splits on the floor(pick[t, h] * c)-th, clamped to c - 1,
    of its c usable features (values not all equal there) in ascending
    order, at lo + (hi - lo) * cut[t, h] between that feature's min and max
    there; `pick` and `cut` are two (n_trees, 2^max_depth - 1) `rng.random`
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
    # one depth's nodes: a split's children are the next depth's nodes r
    # (left) and len(splits) + r (right) for the r-th split; `rows` holds the
    # rows of the nodes of two or more, end to end
    tree, heap, count = np.arange(n_trees), np.zeros(n_trees, dtype=np.int64), np.full(n_trees, size)
    levels = []          # per depth: feature, threshold, count, the nodes that split
    for depth in range(max_depth + 1):
        feature, threshold = np.full(len(tree), -1), np.zeros(len(tree))
        n_left = np.zeros(len(tree), dtype=np.int64)
        grow = (count >= 2) & (depth < max_depth)
        if not grow.all():
            rows = rows[np.repeat(grow, count)]
        grow = np.flatnonzero(grow)
        if grow.size:
            cell = tree[grow] * pick.shape[1] + heap[grow]
            feature[grow], threshold[grow], n_left[grow], rows = _split(
                x, tied, tied_x, rows, count[grow], pick.take(cell), cut.take(cell))
        splits = np.flatnonzero(feature >= 0)
        levels.append((feature, threshold, count, splits))
        if not splits.size:
            break
        tree = np.tile(tree[splits], 2)
        heap = np.concatenate([2 * heap[splits] + 1, 2 * heap[splits] + 2])
        count = np.concatenate([n_left[splits], count[splits] - n_left[splits]])
    # preorder: every node's subtree size bottom up, then its place top down
    sizes = [np.zeros(0, dtype=np.int64)]
    for feature, _, _, splits in reversed(levels):
        below = sizes[0]
        sizes.insert(0, np.ones(len(feature), dtype=np.int64))
        sizes[0][splits] += below[:len(splits)] + below[len(splits):]
    leaf_path = np.array([average_path_length(m) for m in range(size + 1)])   # c(m) for every node size
    n_nodes = sum(map(len, sizes))
    out = {"feature": np.full(n_nodes, -1), "threshold": np.zeros(n_nodes),
           "right": np.full(n_nodes, -1), "path": np.zeros(n_nodes)}
    place = roots = np.cumsum(sizes[0]) - sizes[0]
    for depth, (feature, threshold, count, splits) in enumerate(levels):
        out["feature"][place], out["threshold"][place] = feature, threshold
        out["path"][place] = np.where(feature < 0, leaf_path[count], 0.0)
        left = place[splits] + 1                   # a split's left subtree comes right after it
        out["right"][place[splits]] = right = left + sizes[depth + 1][:len(splits)]
        place = np.concatenate([left, right])
    return {**out, "roots": roots, "subsample": size}


def checked_state(state: dict, sizes: dict) -> dict:
    """A forest read from a file, its node arrays of one length, with integer
    index arrays; ValueError unless `subsample` is at least 2 and every node
    index points where a fitted forest's can: a leaf has feature and right
    -1; a split has a feature below the scaler width and a right child after
    its left child (the next node), so every walk from a root ends at a leaf."""
    if state["subsample"] < 2:
        raise ValueError("iforest subsample must be an integer >= 2")
    ints = {key: state[key].astype(np.int64) for key in ("feature", "right", "roots")}
    if any((ints[key] != state[key]).any() for key in ints):
        raise ValueError("iforest feature, right or roots holds a non-integer")
    feature, right, roots = ints["feature"], ints["right"], ints["roots"]
    n_nodes = sizes["nodes"]
    valid = np.where(right >= 0,
                     (np.arange(n_nodes) + 1 < right) & (right < n_nodes)
                     & (feature >= 0) & (feature < sizes["dim"]),
                     (right == -1) & (feature == -1))
    if not (valid.all() and ((roots >= 0) & (roots < n_nodes)).all()):
        raise ValueError("iforest feature, right or roots index out of range")
    return {**state, **ints}


def score_iforest(state: dict, x: np.ndarray) -> np.ndarray:
    """2^(-mean path / c(subsample)): every (tree, window) pair descends one
    level per step; the per-tree lengths are added in tree order."""
    feature, threshold, right = (state[k] for k in ("feature", "threshold", "right"))
    n_trees, n = len(state["roots"]), len(x)
    node = np.repeat(state["roots"], n)          # pair t * n + i: tree t, window i
    row = np.tile(np.arange(n), n_trees)
    depth = np.zeros(n_trees * n, dtype=np.int64)
    live = np.flatnonzero(right[node] >= 0)
    level = 0
    while live.size:
        level += 1
        at = node[live]
        node[live] = np.where(x[row[live], feature[at]] < threshold[at], at + 1, right[at])
        depth[live] = level
        live = live[right[node[live]] >= 0]
    lengths = (depth + state["path"][node]).reshape(n_trees, n)
    paths = np.zeros(n)
    for tree_lengths in lengths:
        paths += tree_lengths
    mean_path = paths / n_trees
    return np.power(2.0, -mean_path / average_path_length(state["subsample"]))
