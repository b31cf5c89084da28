"""Weighted regression trees and MM-based gradient boosting.

One boosting loop, :func:`fit_boosted`, fits every model, the propensity
included. It checks the monotone-descent guarantee of the MM scheme: each
round's working response and instance weights (the Proxy Hessian: Welsch
weights for the robust loss) come from :mod:`rxlearner.losses`, a tree is fit
by weighted least squares, and the step at the learning rate is accepted only
if the training loss does not increase. There is no step halving: a step that
raises the loss stops the fit (see :func:`fit_boosted`). The loop reads the
loss kind only to check that logistic labels are 0 or 1.

Trees are grown by the exact presorted split search (the sorted column blocks
of XGBoost, Chen & Guestrin, KDD 2016, section 4.1). ``FeatureIndex(features)``
checks a matrix by prediction's rule (2-D, finite) and holds it as a
column-major copy together with its sort by every feature. An index is passed
wherever features are, so the matrix and its sort travel as one object; every
fit passed one index reuses its sort, and a fit passed a matrix indexes it
first. A node keeps, per feature, its rows in that feature's order, and
scores all cut points of a block of features from prefix sums in
:func:`_best_splits`. The trees are the same bit for bit as sorting each
node's rows stably; the argument for each step sits with its code: the
index's stable order in :class:`FeatureIndex`, the per-tree products, the
gathers, the split and the leaves in :func:`fit_tree`, and the prefix sums
and gains in :func:`_best_splits`.

Prediction compiles the trees first. :func:`_compile` joins an ensemble's
pre-order trees into one routing table and turns every leaf into a node that
loops to itself (both children the leaf, feature 0), so after as many steps
as the deepest tree every row of every tree sits on its leaf, whatever depth
the leaf is at. The table is indexed by child slot: node i owns slots 2i (left)
and 2i + 1 (right), each holding node i's feature and threshold and the doubled
id of that child, so a row's next slot is its node's slot plus the comparison
``x > threshold``. A row at a threshold therefore goes left, as in training.
:func:`_route` moves all trees' rows a level at a time in blocks of
``PREDICT_CELLS`` (tree, row) cells, on doubled ids, and halves them
(``node >> 1``) once per block to get the leaves: one step gathers each row's
split feature and threshold, so the cost grows linearly with the depth, and a
block's memory does not grow with the row count. An ensemble compiles its
table and scales its leaf values by its learning rate when it is built, so a
fitted, hand-built or loaded model that cannot be routed raises there.
Predictions are bit-identical to walking each tree node by node: they gather
the same leaf values and add the trees in the same order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .losses import (
    LOGISTIC,
    LossSpec,
    _check_real,
    _objective,
    _start,
    _working_response,
)

#: Relative slack when accepting a boosting step as non-increasing.
DESCENT_RTOL = 1e-12

#: :func:`predict_proba` clips propensities to [PROPENSITY_CLIP, 1 - PROPENSITY_CLIP].
PROPENSITY_CLIP = 0.01

#: Cells (features x rows) one batched split search takes at a node. Small
#: nodes search all their features in one call, which is where the time goes
#: at a few hundred rows: the cost is per numpy call, not per cell. The cap
#: exists for large nodes: at a 29,988-row root with 12 features, each
#: unbatched (12, m) float temporary of the search would be 2.9 MB, and a
#: dozen of them would lift peak memory well past the benchmark's 10% bound
#: on ``peak_rss_mb``. Those nodes search one feature per call.
SEARCH_CELLS = 1 << 14

#: (tree, row) cells one prediction block routes: an ensemble of T trees
#: takes PREDICT_CELLS // T rows at a time. A block holds a handful of (T, rows)
#: index and value arrays of 256 KB each, whatever the row count or depth.
#: Larger blocks measured no faster at 61,200 rows and 100 trees; smaller
#: ones pay the per-call cost of each level more often.
PREDICT_CELLS = 1 << 15


class BoostingError(ValueError):
    """Raised for invalid boosting inputs or malformed model files."""


#: A :class:`RegressionTree`'s node arrays and their dtypes, in field order: the
#: schema of its fields and of its entry in a model file.
TREE_ARRAYS = (("feature", np.int64), ("threshold", np.float64), ("left", np.int64),
               ("right", np.int64), ("value", np.float64))
#: The integer fields of a :class:`BoostConfig` and their least values.
BOOST_COUNTS = {"n_rounds": 0, "max_depth": 1, "min_samples_leaf": 1}


@dataclass(frozen=True)
class BoostConfig:
    n_rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 3
    min_child_weight: float = 1.0
    min_samples_leaf: int = 5

    def __post_init__(self):
        for name, low in BOOST_COUNTS.items():
            _check_count(name, getattr(self, name), low)
        for name in ("learning_rate", "min_child_weight"):
            _check_real(name, getattr(self, name), BoostingError)
        if not 0.0 < self.learning_rate <= 1.0:
            raise BoostingError("learning_rate must lie in (0, 1]")
        if self.min_child_weight < 0:
            raise BoostingError("min_child_weight must be >= 0")


def _check_count(name, value, low) -> None:
    """Raise BoostingError unless value is an integer, not a bool, of at least low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BoostingError(f"{name} must be an integer")
    if value < low:
        raise BoostingError(f"{name} must be >= {low}")


@dataclass
class RegressionTree:
    """Flat-array binary tree in pre-order; feature == -1 marks a leaf node.

    An internal node sends a row to ``left`` when ``x[feature] <= threshold``
    and to ``right`` otherwise, so ties go left. :meth:`predict` routes
    through the compiled table of :func:`_compile` (see the module docstring),
    in which each leaf loops to itself. Each field is cast to its :data:`TREE_ARRAYS`
    dtype by a safe cast only: a fractional node id raises, not truncates.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        for name, dtype in TREE_ARRAYS:
            array = np.asarray(getattr(self, name))
            if array.size and not np.can_cast(array.dtype, dtype):
                kind = "integer" if np.issubdtype(dtype, np.integer) else "numeric"
                raise BoostingError(f"{name} holds non-{kind} values")
            setattr(self, name, array.astype(dtype, copy=False))
        n = self.feature.size
        if n == 0 or any(getattr(self, name).shape != (n,) for name, _ in TREE_ARRAYS):
            raise BoostingError("node arrays are empty or of unequal length")

    def predict(self, X: np.ndarray) -> np.ndarray:
        top = int(self.feature.max(initial=-1))
        X = _as_features(X, top + 1, None, f"the tree (needs at least {top + 1})")
        out = np.empty(X.shape[0])
        for rows, leaf in _route(_compile([self]), X):
            out[rows] = self.value.take(leaf[0])
        return out

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))


def _as_features(X, min_width, max_width, owner) -> np.ndarray:
    """X as a finite float matrix of min_width to max_width (None: any) columns."""
    X = np.asarray(X, dtype=float)
    width = X.shape[1] if X.ndim == 2 else None
    if width is None or width < min_width or (max_width is not None and width > max_width):
        raise BoostingError(
            f"feature count {'?' if width is None else width} does not match {owner}")
    if not np.all(np.isfinite(X)):
        raise BoostingError("features contain non-finite values")
    return X


def _compile(trees, max_depth=None, n_features=None):
    """Routing table of pre-order trees: (feature, threshold, child, roots, depth).

    Node ids run across all trees, tree k's from ``roots[k]``. The first three
    arrays are indexed by child slot, two per node: slots 2i and 2i + 1 both
    hold node i's feature and threshold, and ``child[2i]`` and ``child[2i + 1]``
    hold twice the ids of its left and right child, so a routed id is always
    a slot pair's first slot. A leaf gets feature 0 and itself as both
    children. ``depth`` is the deepest tree's depth, found by walking the nodes
    reachable at each level of all trees at once. A tree that splits on a
    feature of ``n_features`` or more, points a split at a node outside
    itself, splits at a NaN threshold, has a cycle, or is deeper than
    ``max_depth`` raises BoostingError naming it.
    """
    sizes = [tree.feature.size for tree in trees]
    roots = np.zeros(len(trees), dtype=np.intp)
    np.cumsum(sizes[:-1], out=roots[1:])

    def joined(name, dtype):
        return np.concatenate([np.empty(0, dtype), *(getattr(tree, name) for tree in trees)])

    def tree_of(node):
        return np.searchsorted(roots, node, "right") - 1

    feature, threshold = joined("feature", np.intp), joined("threshold", float)
    leaf = feature < 0
    local = np.stack([joined("left", np.intp), joined("right", np.intp)], axis=1)
    size = np.repeat(sizes, sizes)[:, None]
    if n_features is not None and np.any(feature >= n_features):
        k = np.argmax(feature >= n_features)
        raise BoostingError(f"tree {tree_of(k)}: feature index {feature[k]} is out of "
                            f"range for {n_features} features")
    outside = ~leaf & np.any((local < 0) | (local >= size), axis=1)
    if np.any(outside):
        k = np.argmax(outside)
        raise BoostingError(f"tree {tree_of(k)}: child index out of range for {size[k, 0]} nodes")
    nan_split = ~leaf & np.isnan(threshold)
    if np.any(nan_split):
        raise BoostingError(f"tree {tree_of(np.argmax(nan_split))}: NaN threshold at a split")
    ids = np.arange(feature.size)
    child = np.where(leaf[:, None], ids[:, None], local + np.repeat(roots, sizes)[:, None])
    node, depth, deep = roots[~leaf[roots]], 0, None
    while node.size:
        if depth == feature.size:  # a path longer than all the nodes repeats one
            raise BoostingError(f"tree {tree_of(node[0])} has a cycle")
        if depth == max_depth and deep is None:
            deep = tree_of(node[0])
        node = np.unique(child[node])
        node, depth = node[~leaf[node]], depth + 1
    if deep is not None:
        raise BoostingError(f"tree {deep} is deeper than max_depth {max_depth}")
    return (np.repeat(np.maximum(feature, 0), 2), np.repeat(threshold, 2),
            2 * child.ravel(), roots, depth)


def _route(table, X):
    """Yield (rows, leaf) per block of X's rows; leaf[k] holds each row's leaf in tree k.

    ``table`` is a :func:`_compile` result and ``rows`` the block's slice of X.
    Each (tree, row) cell starts at twice its tree's root, and every step moves
    it to a child's doubled id:
    node = child[node + (x[row, feature[node]] > threshold[node])].
    The leaf ids are ``node >> 1``, taken once per block.
    """
    feature, threshold, child, roots, depth = table
    block = max(1, PREDICT_CELLS // max(1, roots.size))
    start = 2 * roots[:, None]
    for r0 in range(0, X.shape[0], block):
        x = np.ascontiguousarray(X[r0:r0 + block])
        at = np.arange(x.shape[0]) * x.shape[1]  # each row's offset in x
        x = x.ravel()
        node = np.repeat(start, at.size, axis=1)
        for _ in range(depth):
            node = child.take(node + (x.take(at + feature.take(node)) > threshold.take(node)))
        node >>= 1
        yield slice(r0, r0 + at.size), node


def _best_splits(sums, ws, xs, config: BoostConfig):
    """Best (gain, cut position) of each row of a block of sorted features.

    Each row of the (k, m) block is one feature's rows at a node in ascending
    order of that feature. ``sums`` holds their w*t (real part) and t*(w*t)
    (imaginary part), gathered from the tree's vector of them, and ``ws``
    their weights, or None when every weight is exactly 1; the search
    overwrites both. ``xs`` holds their feature values, or None when no
    feature of the block repeats a value in its whole column. A row's cut
    position p splits its sorted rows after position p, at the threshold
    halfway between the values at p and p + 1. The caller ignores divide and
    invalid floating-point errors.

    Gain is the weighted-SSE reduction from prefix sums; a cumsum along a row
    adds sequentially, so each row's sums equal those of a 1-D search. The
    sums of w*t and w*t*t are the parts of one complex cumsum: complex
    addition adds the parts separately, so each part gets the same doubles as
    a real cumsum of it. With unit weights the sum of w up to position p is
    exactly p + 1, so it is not computed: the weights' prefix sum is an
    ``arange``, and ``min_child_weight`` narrows the window of positions
    instead of masking it. Otherwise a side also needs a positive sum of w,
    whatever ``min_child_weight``: a side of zero weights would score 0/0, and
    argmax would pick that NaN. A cut between equal values is masked, and
    only the mask reads ``xs``: a sorted subset of a strictly increasing
    column is strictly increasing, so a block without ties needs neither.
    Every expression keeps the order of its operations, so writing through
    ``out=`` gives each gain the same double. A row with no valid split gets
    gain -inf, and so does a row whose best gain is at most 1e-12 of its sum
    of w*t*t: the gain is a difference of such sums, so below that it is
    rounding noise, in any unit of the targets. Ties on gain resolve to the
    lowest cut position (argmax picks the first).
    """
    k, m = sums.shape
    leaf = config.min_samples_leaf
    if ws is None:
        leaf = max(leaf, math.ceil(config.min_child_weight))
    # The left block [:, :pos + 1] keeps ``leaf`` rows on each side for pos
    # in [lo, hi).
    lo, hi = leaf - 1, m - leaf
    if hi <= lo:
        return np.full(k, -np.inf), np.full(k, -1)
    valid = None if xs is None else xs[:, lo:hi] < xs[:, lo + 1:hi + 1]
    if ws is None:
        total_w = float(m)
        lw = np.arange(lo + 1, hi + 1, dtype=float)
        rw = total_w - lw
    else:
        cw = ws.cumsum(axis=1, out=ws)
        total_w, lw = cw[:, -1:], cw[:, lo:hi]
        rw = total_w - lw
        least = max(config.min_child_weight, math.ulp(0.0))  # at 0: sum(w) > 0
        heavy = (lw >= least) & (rw >= least)
        valid = heavy if valid is None else valid & heavy
    sums.cumsum(axis=1, out=sums)
    cwt, cwt2 = sums.real, sums.imag
    total_wt, total_wt2 = cwt[:, -1:], cwt2[:, -1:]
    total_sse = total_wt2 - total_wt * total_wt / total_w

    # sse_l = cwt2 - cwt**2 / lw, sse_r = (total_wt2 - cwt2) - (total_wt - cwt)**2 / rw
    # and gain = total_sse - (sse_l + sse_r), evaluated in place in that order.
    sse_l = np.square(cwt[:, lo:hi])
    sse_l /= lw
    np.subtract(cwt2[:, lo:hi], sse_l, out=sse_l)
    sse_r = np.subtract(total_wt, cwt[:, lo:hi])
    np.square(sse_r, out=sse_r)
    sse_r /= rw
    right_wt2 = np.subtract(total_wt2, cwt2[:, lo:hi], out=cwt2[:, lo:hi])  # not read again
    np.subtract(right_wt2, sse_r, out=sse_r)
    sse_l += sse_r
    gain = np.subtract(total_sse, sse_l, out=sse_l)
    if valid is not None:
        gain[~valid] = -np.inf
    best = gain.argmax(axis=1)
    best_gain = gain[np.arange(k), best]
    best_gain[best_gain <= 1e-12 * total_wt2[:, 0]] = -np.inf
    return best_gain, best + lo


def _offsets(o, j0, n):
    """Flat positions, in a C-contiguous (d, n) matrix, of rows ``o[i]`` of column j0 + i.

    The result is intp: ``o`` holds int32 row numbers, and the column starts
    ``j * n`` would wrap in int32 once d * n reaches 2**31.
    """
    return o + np.arange(j0 * n, (j0 + o.shape[0]) * n, n, dtype=np.intp)[:, None]


class FeatureIndex:
    """An (n, d) feature matrix together with its presorted split-search index.

    ``FeatureIndex(features)`` checks the matrix as prediction does (2-D and
    finite) and keeps two (d, n) arrays, 12 bytes per cell: ``columns``, the
    matrix in column-major layout, a C-contiguous copy whose row j is feature j,
    so a node reads one feature's values from one contiguous column; and
    ``order``, whose row j is the stable int32 argsort of feature j (ties in
    ascending row order). ``ties[j]`` is True when feature j holds a value more
    than once (0.0 and -0.0 are one value); a node's rows of a column without
    ties are strictly increasing in that column's order, whatever the subset,
    so the split search needs no mask of cuts between equal values there, and
    no values. Every column takes the same two sorts. Numpy's default argsort
    puts equal values next to each other in some order, and ``ties`` is read
    from it. Numbering each row's value in ascending order (``run``), one
    integer sort of the keys run * n + row then orders the rows by (value,
    row), which is the stable order whatever the first sort did with ties; the
    sorted keys' run parts are ``run`` again, and subtracting them leaves the
    rows.

    An index is itself a valid ``features`` argument: numpy reads it as the
    matrix it indexes, and :func:`fit_tree` and :func:`fit_boosted` reuse its
    sort. A meta-learner fits one arm's matrix several times, so it sorts it
    once.
    """

    def __init__(self, features):
        self.columns = np.ascontiguousarray(_as_features(features, 0, None, "an (n, d) matrix").T)
        d, n = self.columns.shape
        self.order = np.empty((d, n), dtype=np.int32)
        self.ties = np.empty(d, dtype=bool)
        for j, column in enumerate(self.columns):
            order = column.argsort()
            ascending = column.take(order)
            new_value = ascending[1:] != ascending[:-1]
            del ascending  # free the sorted values before run takes their size
            self.ties[j] = not new_value.all()
            run = np.zeros(n, dtype=np.intp)
            new_value.cumsum(out=run[1:])
            run *= n
            order += run
            order.sort()
            self.order[j] = order - run

    def __array__(self, dtype=None, copy=None):
        """The indexed (n, d) matrix: the Fortran-ordered view ``columns.T``.

        It is copied only for ``copy=True`` or another dtype; a copy that
        ``copy=False`` forbids raises ValueError, as numpy 2 asks.
        """
        matrix = self.columns.T
        dtype = matrix.dtype if dtype is None else np.dtype(dtype)
        if copy is False and dtype != matrix.dtype:
            raise ValueError(f"reading the {matrix.dtype} feature index as {dtype} needs a copy")
        return matrix.astype(dtype, copy=bool(copy))


@np.errstate(divide="ignore", invalid="ignore")  # the split search's, once per tree
def fit_tree(X, targets, instance_weights, config: BoostConfig, *,
             leaves=None) -> RegressionTree:
    """Greedy top-down weighted CART; each split maximizes weighted-SSE reduction.

    Leaf value is the weighted mean of its targets (the exact weighted
    least-squares minimizer, i.e. the MM inner step); a unit of weight 0 pulls
    on no leaf, and a split leaves positive weight on each side. Split ties
    resolve to the lowest feature index, then the lowest threshold.

    X is a feature matrix or its :class:`FeatureIndex`; a matrix is indexed
    here, which rejects non-finite features, as non-finite targets and weights
    are rejected. Each node splits its per-feature sorted row lists stably
    instead of sorting again (the exact presorted method), so every prefix sum
    adds in the same order as a per-node stable sort would. The split is an
    index selection: ``compress`` takes the rows of each side from the
    parent's flattened order, and of its row list, in the order they hold
    there, as a boolean subscript would. A node searches its features in
    blocks of up to ``SEARCH_CELLS`` cells with one :func:`_best_splits` call
    per block. Once per tree, each row's w*t and t*(w*t) form one complex
    vector z, and a block gathers its cells' pairs with ``z.take``: the
    products a per-cell multiply of the same doubles gives. Its weights come
    from ``take`` too, and its feature values, only if one of its columns has
    ties, from one flat ``take`` on the index's column-major copy at the intp
    offsets of :func:`_offsets`. The winner's threshold is 0.5 * (a + b) of
    the values on either side of its cut position in its order at the node,
    the same two doubles and operations as a search over the gathered values;
    when that rounds up to b (adjacent doubles whose sum is a rounding tie) it
    is a, so each side still gets the rows the search scored for it. A leaf's
    value is its rows' sum of w*t, read from z, over their sum of weights.

    The weights are checked once per tree: if every one is exactly 1, no
    weight is gathered or summed. The search's prefix sum of ones at position
    p is exactly p + 1, and a leaf divides by its size, the same double as
    sum(1), since a sum of ones below 2**53 is exact; w*t is then t.
    Floating-point divide and invalid errors of the search are ignored once
    for the whole tree.

    ``leaves``, if given, is a length-n integer array that receives each
    training row's leaf node, so ``tree.value[leaves]`` equals
    ``tree.predict(X)`` bit for bit without routing the rows again.
    """
    index = X if isinstance(X, FeatureIndex) else FeatureIndex(X)
    columns, order, ties = index.columns, index.order, index.ties
    d, n = columns.shape
    t = np.asarray(targets, dtype=float)
    w = np.asarray(instance_weights, dtype=float)
    if t.shape != (n,) or w.shape != t.shape:
        raise BoostingError("features, targets, and weights must have matching lengths")
    for name, values in (("targets", t), ("weights", w)):
        if not np.all(np.isfinite(values)):
            raise BoostingError(f"{name} contain non-finite values")
    if np.any(w < 0) or not np.any(w > 0):
        raise BoostingError("weights must be nonnegative with at least one positive")
    z = np.empty(n, dtype=complex)  # w*t + i*t*(w*t), each cell's pair for _best_splits
    np.multiply(w, t, out=z.real)
    np.multiply(t, z.real, out=z.imag)
    if np.all(w == 1.0):
        w = None  # unit weights: see _best_splits
    flat = columns.reshape(-1)
    if leaves is not None and np.shape(leaves) != (n,):
        raise BoostingError(f"leaf array has shape {np.shape(leaves)}, expected {(n,)}")
    in_left = np.zeros(n, dtype=bool)  # reused: each split writes, then reads, its own rows

    feature, threshold, left, right, value = [], [], [], [], []
    # Depth-first with an explicit stack, numbering nodes in pre-order. Each
    # entry: the node's rows in ascending row order, its (d, rows) feature
    # index (row j sorted by feature j; None at max_depth), its depth, and the
    # parent's child list and index to point at it. A recursive closure would
    # be a reference cycle, keeping each call's arrays (and the index) alive
    # until a full garbage collection.
    stack = [(np.arange(n), order, 0, None, -1)]
    while stack:
        idx, node_order, depth, children, parent = stack.pop()
        node = len(feature)
        if children is not None:
            children[parent] = node
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        best_gain, best_feat, best_cut = -np.inf, -1, -1
        if depth < config.max_depth and idx.size >= 2 * config.min_samples_leaf:
            block = max(1, SEARCH_CELLS // idx.size)
            for j0 in range(0, d, block):
                o = node_order[j0:j0 + block]
                xs = flat.take(_offsets(o, j0, n)) if ties[j0:j0 + block].any() else None
                ws = None if w is None else w.take(o)
                gains, cuts = _best_splits(z.take(o), ws, xs, config)
                for j, gain, cut in zip(range(j0, d), gains.tolist(), cuts.tolist()):
                    if gain > best_gain:
                        best_gain, best_feat, best_cut = gain, j, cut
        if best_feat < 0:
            # the sum of idx.size ones is exactly idx.size
            size = idx.size if w is None else w.take(idx).sum()
            value[node] = float(z.real.take(idx).sum() / size)
            if leaves is not None:
                leaves[idx] = node
            continue
        a, b = columns[best_feat].take(node_order[best_feat, best_cut:best_cut + 2])
        mid = 0.5 * (a + b)  # b if a, b are adjacent and a + b is a tie; a splits alike
        feature[node] = best_feat
        threshold[node] = float(mid if mid < b else a)
        go_left = columns[best_feat].take(idx) <= threshold[node]
        left_order = right_order = None  # children at max_depth are leaves
        if depth + 1 < config.max_depth:
            n_left = int(np.count_nonzero(go_left))
            in_left[idx] = go_left
            rows = node_order.ravel()
            mask = in_left.take(rows)
            left_order = rows.compress(mask).reshape(d, n_left)
            right_order = rows.compress(~mask).reshape(d, idx.size - n_left)
        stack.append((idx.compress(~go_left), right_order, depth + 1, right, node))
        stack.append((idx.compress(go_left), left_order, depth + 1, left, node))
    return RegressionTree(feature, threshold, left, right, value)


@dataclass
class BoostedEnsemble:
    """Additive tree model with its (non-increasing) training loss trace; every
    tree is scaled by ``config.learning_rate``."""

    base_prediction: float
    trees: list = field(default_factory=list)
    loss_spec: LossSpec = field(default_factory=LossSpec)
    loss_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    config: BoostConfig = field(default_factory=BoostConfig)
    n_features: int = 0
    # The routing table of _compile and the scaled leaf values, built with
    # the model; the trees of a fitted, hand-built or loaded model do not change.
    _table: tuple = field(default=None, init=False, repr=False, compare=False)
    _scaled: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check and compile the trees: the one place an ensemble becomes usable."""
        _check_count("n_features", self.n_features, 0)
        _check_real("base_prediction", self.base_prediction, BoostingError)
        self._table = _compile(self.trees, self.config.max_depth, self.n_features)
        # (eta * value)[leaf] is eta * value[leaf] bit for bit: scale once, then gather
        eta = self.config.learning_rate
        self._scaled = np.concatenate([np.empty(0), *(eta * tree.value for tree in self.trees)])

    def predict(self, X) -> np.ndarray:
        X = _as_features(X, self.n_features, self.n_features, f"training ({self.n_features})")
        out = np.full(X.shape[0], self.base_prediction)
        for rows, leaf in _route(self._table, X):
            block = out[rows]
            # a loop, not np.add.reduce: numpy sums a one-row block's trees pairwise
            for tree_leaf in self._scaled.take(leaf):
                block += tree_leaf
        return out


def fit_boosted(features, targets, loss: LossSpec, config: BoostConfig) -> BoostedEnsemble:
    """MM gradient boosting with one descent check per round.

    The loss gives the start value and spec, each round's tree target and
    weight, and the training loss (see :mod:`rxlearner.losses`). The step
    F + eta*h, eta the learning rate, is taken if the training loss rises by
    at most DESCENT_RTOL of its size; otherwise the fit stops, as every later
    round would propose the same tree. A leaf value is a weighted mean of its
    targets under the round's weights, so the step cannot raise the MM
    majorizer of a residual loss (Hunter & Lange, Am. Stat. 2004), and the
    check guards against rounding. Logistic labels must be 0 or 1; their
    steps descend, as the log-loss Hessian is at most 1/4 and each leaf value
    is the mean of its z - p. A collapsed MAD scale raises ValueError.

    ``features`` is a matrix or its :class:`FeatureIndex`, so that fits on one
    matrix can sort it once; a matrix is indexed here. Every round's tree is
    fit on the index, so sharing one changes no bit of the ensemble.
    """
    y = np.asarray(targets, dtype=float)
    if y.size == 0:
        raise BoostingError("targets must be nonempty")
    if not np.all(np.isfinite(y)):
        raise BoostingError("targets contain non-finite values")
    if loss.kind == LOGISTIC and not np.all(np.isin(y, (0.0, 1.0))):
        raise BoostingError("labels must be binary")
    index = features if isinstance(features, FeatureIndex) else FeatureIndex(features)
    d, n = index.columns.shape
    if n != y.size:
        raise BoostingError("features and targets must have matching lengths")

    f0, spec = _start(y, loss)
    F = np.full(y.size, f0)
    cur = _objective(y, F, spec)
    trees, trace = [], []

    leaves = np.empty(y.size, dtype=np.int64)
    for _ in range(config.n_rounds):
        target, w = _working_response(y, F, spec)
        tree = fit_tree(index, target, w, config, leaves=leaves)
        F_new = F + config.learning_rate * tree.value[leaves]
        new = _objective(y, F_new, spec)
        if new > cur + DESCENT_RTOL * abs(cur):
            break
        F, cur = F_new, new
        trees.append(tree)
        trace.append(new)

    return BoostedEnsemble(
        base_prediction=f0,
        trees=trees,
        loss_spec=spec,
        loss_trace=np.asarray(trace),
        config=config,
        n_features=d,
    )


def predict_proba(model: BoostedEnsemble, features) -> np.ndarray:
    """Sigmoid of the boosted log-odds, clipped to [PROPENSITY_CLIP, 1 - PROPENSITY_CLIP]."""
    logits = model.predict(features)
    return np.clip(1.0 / (1.0 + np.exp(-logits)), PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)


def _json_value(value):
    """``json.dumps`` default: a numpy scalar or array as its Python value(s)."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _model_doc(model: BoostedEnsemble) -> dict:
    """The JSON document of a model; its numpy values are left to :func:`_json_value`."""
    return {
        "base_prediction": model.base_prediction,
        "loss_spec": asdict(model.loss_spec),
        "config": asdict(model.config),
        "n_features": model.n_features,
        "loss_trace": model.loss_trace,
        "trees": [{name: getattr(tree, name) for name, _ in TREE_ARRAYS} for tree in model.trees],
    }


def _model_from_doc(doc) -> BoostedEnsemble:
    """The model of a :func:`_model_doc` document. Any flaw in it, unroutable trees
    included, raises KeyError, TypeError or ValueError (BoostingError included); a
    flaw in tree k's arrays is prefixed "tree k: "."""
    if not isinstance(doc, dict):
        raise BoostingError(f"expected a JSON object, got {json.dumps(doc)[:40]}")
    trees = []
    for k, arrays in enumerate(doc["trees"]):
        try:
            trees.append(RegressionTree(**{name: arrays[name] for name, _ in TREE_ARRAYS}))
        except (KeyError, TypeError, ValueError) as exc:
            raise BoostingError(f"tree {k}: {exc}") from None
    return BoostedEnsemble(
        base_prediction=doc["base_prediction"],
        trees=trees,
        loss_spec=LossSpec(**doc["loss_spec"]),
        loss_trace=np.asarray(doc["loss_trace"], dtype=float),
        config=BoostConfig(**doc["config"]),
        n_features=doc["n_features"],
    )
