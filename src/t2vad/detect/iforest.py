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

A tree grows from arrays of row indices into one (d, n) transposed copy
of the training data, so a split reads only the column it cuts. A feature
whose training values are all distinct (no two equal, -0.0 == 0.0
included) differs within any node of two or more distinct rows, so it is
usable there without a look; only the features that repeat a value get
the per-node max > min check. The random draws are those of a search over
every column at every node, in the same order, so the forest is the same.
"""

from __future__ import annotations

import math

import numpy as np

TREES = 100
SUBSAMPLE = 256          # per-tree sample size (capped at n)

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


def fit_iforest(x: np.ndarray, n_trees: int, subsample: int, rng) -> dict:
    """`n_trees` isolation trees, each grown on `subsample` rows of `x` (n, d)
    drawn without replacement, as flat preorder node arrays.

    A node is [feature, threshold, right, path]: a leaf has feature and
    right -1 and path c(its size); a split has path 0 and its left subtree
    right after it. A split draws its feature uniformly from those whose
    values at the node are not all equal, then a threshold uniformly
    between that feature's min and max there.
    """
    n = len(x)
    size = min(subsample, n)
    max_depth = int(math.ceil(math.log2(max(size, 2))))
    xt = np.ascontiguousarray(x.T)                 # (d, n): one feature's values are contiguous
    # the sorted copy lives for this expression only, not through the trees
    distinct = np.array([(row[1:] > row[:-1]).all() for row in np.sort(xt, axis=1)], dtype=bool)
    everywhere = np.flatnonzero(distinct)        # usable at every node of >= 2 rows
    tied = np.flatnonzero(~distinct)
    tied_xt = xt[tied]
    path = [average_path_length(m) for m in range(size + 1)]   # c(m) for every node size
    integers, uniform = rng.integers, rng.uniform
    nodes: list = []
    roots = []
    for _ in range(n_trees):
        roots.append(len(nodes))
        # (rows, depth, the split whose right child this is, or -1); a split
        # pushes its right child below its left one, so nodes come in preorder
        stack = [(rng.choice(n, size=size, replace=False), 0, -1)]
        while stack:
            rows, depth, parent = stack.pop()
            if parent >= 0:
                nodes[parent][2] = len(nodes)
            nodes.append([-1, 0.0, -1, path[len(rows)]])
            if len(rows) <= 1 or depth >= max_depth:
                continue
            usable = everywhere
            if tied.size:
                values = tied_xt[:, rows]
                spread = distinct.copy()
                spread[tied] = values.max(axis=1) > values.min(axis=1)
                usable = np.flatnonzero(spread)
            if usable.size == 0:
                continue
            f = int(usable[integers(usable.size)])
            column = xt[f, rows]
            u = float(uniform(column.min(), column.max()))
            mask = column < u
            if not 0 < np.count_nonzero(mask) < len(rows):
                continue
            nodes[-1] = [f, u, -1, 0.0]
            stack.append((rows[~mask], depth + 1, len(nodes) - 1))
            stack.append((rows[mask], depth + 1, -1))
    columns = (np.array(column) for column in zip(*nodes))
    return {**dict(zip(NODE_ARRAYS, columns)), "roots": np.array(roots), "subsample": size}


def checked_state(state: dict, dim: int) -> dict:
    """A forest read from a file, with integer index arrays; ValueError unless
    its node arrays are 1-D, of one length and finite, and every node index
    points where a fitted forest's can: a leaf has feature and right -1; a
    split has a feature below `dim` and a right child after its left child
    (the next node), so every walk from a root ends at a leaf."""
    arrays = {key: state.get(key) for key in NODE_ARRAYS + ("roots",)}
    if not all(isinstance(v, np.ndarray) and v.ndim == 1 and np.isfinite(v).all()
               for v in arrays.values()):
        raise ValueError(f"iforest state needs finite 1-D arrays {sorted(arrays)}")
    if type(state.get("subsample")) is not int or state["subsample"] < 1:
        raise ValueError("iforest subsample must be a positive integer")
    n_nodes = len(arrays["feature"])
    if any(len(arrays[key]) != n_nodes for key in NODE_ARRAYS):
        raise ValueError(f"iforest node arrays {list(NODE_ARRAYS)} differ in length")
    ints = {key: arrays[key].astype(np.int64) for key in ("feature", "right", "roots")}
    if any((ints[key] != arrays[key]).any() for key in ints):
        raise ValueError("iforest feature, right or roots holds a non-integer")
    feature, right, roots = ints["feature"], ints["right"], ints["roots"]
    valid = np.where(right >= 0,
                     (np.arange(n_nodes) + 1 < right) & (right < n_nodes)
                     & (feature >= 0) & (feature < dim),
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
