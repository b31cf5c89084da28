import json
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rxlearner import boosting
from rxlearner.boosting import (
    BoostConfig,
    BoostedEnsemble,
    BoostingError,
    RegressionTree,
    fit_boosted,
    fit_tree,
    predict_proba,
)
from rxlearner.datasets import generate_1d_qualitative
from rxlearner.losses import (
    GAMMA_WELSCH,
    HUBER,
    LOGISTIC,
    SQUARED,
    WEIGHT_FLOOR,
    LossSpec,
    loss_value,
)

LOOSE = BoostConfig(min_samples_leaf=1, min_child_weight=0.0)


def brute_force_depth1_sse(X, t, w, min_samples_leaf=1):
    """Exhaustive best weighted SSE achievable by one split (or no split)."""
    def sse(ts, ws):
        mean = np.sum(ws * ts) / np.sum(ws)
        return float(np.sum(ws * (ts - mean) ** 2))

    best = sse(t, w)
    n, d = X.shape
    for j in range(d):
        for thr in np.unique(X[:, j]):
            left = X[:, j] <= thr
            nl, nr = int(left.sum()), int((~left).sum())
            if nl < min_samples_leaf or nr < min_samples_leaf or nl == 0 or nr == 0:
                continue
            best = min(best, sse(t[left], w[left]) + sse(t[~left], w[~left]))
    return best


def tree_sse(tree, X, t, w):
    pred = tree.predict(X)
    return float(np.sum(w * (t - pred) ** 2))


class TestFitTree:
    def test_constant_targets_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        tree = fit_tree(X, np.full(30, 4.2), np.ones(30), BoostConfig())
        assert tree.n_leaves == 1
        np.testing.assert_allclose(tree.predict(X), 4.2)

    def test_uniform_weights_match_unweighted(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 2))
        t = rng.normal(size=60)
        a = fit_tree(X, t, np.ones(60), BoostConfig())
        b = fit_tree(X, t, np.full(60, 7.5), BoostConfig())
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.threshold, b.threshold)
        np.testing.assert_allclose(a.value, b.value)

    def test_depth1_split_matches_brute_force(self):
        rng = np.random.default_rng(2)
        cfg = BoostConfig(max_depth=1, min_samples_leaf=1, min_child_weight=0.0)
        for _ in range(60):
            n = rng.integers(2, 13)
            d = rng.integers(1, 3)
            X = np.round(rng.normal(size=(n, d)), 2)
            t = rng.normal(size=n)
            w = rng.uniform(0.1, 2.0, size=n)
            tree = fit_tree(X, t, w, cfg)
            assert tree_sse(tree, X, t, w) == pytest.approx(
                brute_force_depth1_sse(X, t, w), abs=1e-9
            )

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 4))
        t = rng.normal(size=100)
        w = rng.uniform(0.0, 1.0, size=100)
        a = fit_tree(X, t, w, BoostConfig())
        b = fit_tree(X, t, w, BoostConfig())
        np.testing.assert_array_equal(a.feature, b.feature)
        np.testing.assert_array_equal(a.threshold, b.threshold)

    def test_leaf_value_is_weighted_mean_optimum(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=8)
        w = rng.uniform(0.1, 2.0, size=8)
        X = np.zeros((8, 1))  # unsplittable: one leaf
        tree = fit_tree(X, t, w, LOOSE)
        v = tree.value[0]
        grid = np.linspace(t.min() - 1, t.max() + 1, 2001)
        obj = [np.sum(w * (t - g) ** 2) for g in grid]
        assert np.sum(w * (t - v) ** 2) <= min(obj) + 1e-9

    def test_weight_floor_keeps_every_unit(self):
        # a zero-weight unit still routes to a leaf and gets a prediction
        X = np.arange(10.0)[:, None]
        t = np.arange(10.0)
        w = np.ones(10)
        w[3] = 0.0
        tree = fit_tree(X, t, w, LOOSE)
        assert np.all(np.isfinite(tree.predict(X)))

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        t = rng.normal(size=40)
        cfg = BoostConfig(max_depth=4, min_samples_leaf=7)
        tree = fit_tree(X, t, np.ones(40), cfg)
        leaf = tree.predict(X)
        for v in np.unique(leaf):
            assert np.sum(leaf == v) >= 7

    def test_input_validation(self):
        with pytest.raises(BoostingError):
            fit_tree(np.ones((3, 1)), np.ones(2), np.ones(3), BoostConfig())
        with pytest.raises(BoostingError):
            fit_tree(np.ones((3, 1)), np.ones(3), -np.ones(3), BoostConfig())

    @pytest.mark.parametrize("cells", [[(3, 0, np.nan), (8, 1, np.inf)], [(5, 1, -np.inf)]])
    def test_non_finite_features_rejected(self, cells):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2))
        for row, col, bad in cells:
            X[row, col] = bad
        with pytest.raises(BoostingError, match="features contain non-finite values"):
            fit_tree(X, rng.normal(size=40), np.ones(40), BoostConfig())

    @pytest.mark.parametrize("name, bad", [("targets", np.nan), ("targets", np.inf),
                                           ("weights", np.nan), ("weights", np.inf)])
    def test_non_finite_targets_and_weights_rejected(self, name, bad):
        rng = np.random.default_rng(7)
        inputs = {"targets": rng.normal(size=40), "weights": np.ones(40)}
        inputs[name][11] = bad
        with pytest.raises(BoostingError, match=f"{name} contain non-finite values"):
            fit_tree(rng.normal(size=(40, 2)), inputs["targets"], inputs["weights"], BoostConfig())


def reference_fit_tree(X, t, w, config):
    """Weighted CART that stably argsorts every feature at every node.

    The split search as it was before the presorted feature index; fit_tree
    must build bit-identical trees.
    """
    w = np.maximum(w, WEIGHT_FLOOR)
    feature, threshold, left, right, value = [], [], [], [], []

    def best_split(xs, ts, ws):
        order = np.argsort(xs, kind="stable")
        xs, ts, ws = xs[order], ts[order], ws[order]
        cw, cwt, cwt2 = np.cumsum(ws), np.cumsum(ws * ts), np.cumsum(ws * ts * ts)
        total_w, total_wt, total_wt2 = cw[-1], cwt[-1], cwt2[-1]
        pos = np.arange(xs.size - 1)
        valid = ((xs[pos] < xs[pos + 1]) & (pos + 1 >= config.min_samples_leaf)
                 & (xs.size - pos - 1 >= config.min_samples_leaf))
        lw = cw[pos]
        rw = total_w - lw
        valid &= (lw >= config.min_child_weight) & (rw >= config.min_child_weight)
        if not np.any(valid):
            return -np.inf, np.nan
        with np.errstate(divide="ignore", invalid="ignore"):
            sse_l = cwt2[pos] - cwt[pos] ** 2 / lw
            sse_r = (total_wt2 - cwt2[pos]) - (total_wt - cwt[pos]) ** 2 / rw
        total_sse = total_wt2 - total_wt * total_wt / total_w
        gain = np.where(valid, total_sse - (sse_l + sse_r), -np.inf)
        best = int(np.argmax(gain))
        if gain[best] <= 1e-12 * total_wt2:  # rounding noise at the scale of the sums
            return -np.inf, np.nan
        return float(gain[best]), float(0.5 * (xs[best] + xs[best + 1]))

    def build(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        ts, ws = t[idx], w[idx]
        value.append(float(np.sum(ws * ts) / np.sum(ws)))
        if depth >= config.max_depth or idx.size < 2 * config.min_samples_leaf:
            return node
        best_gain, best_feat, best_thr = -np.inf, -1, np.nan
        for j in range(X.shape[1]):
            gain, thr = best_split(X[idx, j], ts, ws)
            if gain > best_gain:
                best_gain, best_feat, best_thr = gain, j, thr
        if best_feat < 0:
            return node
        go_left = X[idx, best_feat] <= best_thr
        feature[node], threshold[node], value[node] = best_feat, best_thr, 0.0
        left[node] = build(idx[go_left], depth + 1)
        right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return (np.asarray(feature, dtype=np.int64), np.asarray(threshold, dtype=float),
            np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64),
            np.asarray(value, dtype=float))


def tree_arrays(tree):
    return tree.feature, tree.threshold, tree.left, tree.right, tree.value


@st.composite
def tree_problems(draw):
    """Small problems with many tied feature values, a possibly constant
    column, zero weights and leaf-size limits that bind exactly. Some draw
    columns of distinct values, which the search treats as tie-free, and some
    draw all-one weights, which it searches without a weight prefix sum."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 3))
    levels = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, levels - 1), min_size=n * d, max_size=n * d))
    X = np.asarray(cells, dtype=float).reshape(n, d)
    for j in range(d):
        if draw(st.booleans()):
            X[:, j] = draw(st.permutations(range(n)))
    X *= draw(st.sampled_from([1.0, 0.1, -2.5]))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 3.0
    # Thirds and tenths are inexact, so prefix sums taken in another order differ.
    t = np.asarray(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))) / 3.0
    if draw(st.booleans()):
        w = np.ones(n)
    else:
        w = np.asarray(draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.0]),
                                     min_size=n, max_size=n)))
    if not np.any(w > 0):
        w[draw(st.integers(0, n - 1))] = 1.0
    config = BoostConfig(
        max_depth=draw(st.integers(1, 4)),
        min_samples_leaf=draw(st.integers(1, 6)),
        min_child_weight=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
    )
    return X, t, w, config


class TestPresortedSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(tree_problems())
    def test_bit_identical_to_per_node_sort(self, problem):
        X, t, w, config = problem
        got = tree_arrays(fit_tree(X, t, w, config))
        want = reference_fit_tree(X, t, w, config)
        for name, a, b in zip(("feature", "threshold", "left", "right", "value"), got, want):
            assert np.array_equal(a, b, equal_nan=True), name

    # Unit weights fold min_child_weight into the window of cut positions: with
    # min_child_weight 3.5 each side needs 4 rows, so 8 rows leave one cut
    # position and 7 or 6 rows none.
    @pytest.mark.parametrize("n, min_samples_leaf, min_child_weight",
                             [(12, 1, 3.0), (12, 2, 4.5), (9, 3, 3.2), (8, 1, 3.5), (7, 1, 3.5),
                              (6, 1, 3.5)])
    def test_unit_weight_window_matches_reference(self, n, min_samples_leaf, min_child_weight):
        rng = np.random.default_rng(n)
        X = np.column_stack([rng.permutation(n), rng.integers(0, 3, n)]).astype(float)
        t = rng.normal(size=n) / 3.0
        config = BoostConfig(max_depth=3, min_samples_leaf=min_samples_leaf,
                             min_child_weight=min_child_weight)
        tree = fit_tree(X, t, np.ones(n), config)
        want = reference_fit_tree(X, t, np.ones(n), config)
        for name, a, b in zip(("feature", "threshold", "left", "right", "value"),
                              tree_arrays(tree), want):
            assert np.array_equal(a, b, equal_nan=True), name
        assert (tree.n_leaves == 1) == (n < 8)

    @pytest.mark.parametrize("ties", [True, False])
    def test_empty_unit_weight_window_gains_nothing(self, ties):
        xs = np.arange(14.0).reshape(2, 7)
        config = BoostConfig(min_samples_leaf=1, min_child_weight=3.5)
        gains, thresholds = boosting._best_splits(xs, np.ones((2, 7)), None, ties, config)
        assert gains.tolist() == [-np.inf, -np.inf]
        assert np.isnan(thresholds).all()

    # Long partition masks that no branch predictor guesses: about 3,000 rows
    # in four columns, two with ties (at most 20 levels) and two without, with
    # unit or varying weights. The first tied column has 20 levels of g rows
    # each, every level holding the same (noise, weight) pairs, and the target
    # is symmetric in it (level L and level 19 - L alike), so cutting after
    # k levels and after 20 - k levels gain the same in exact arithmetic. Which
    # of the two wins is then decided by rounding, which depends on the order
    # in which each prefix sum adds a level's rows: a node that does not keep
    # tied rows in row order picks the other cut. The seed is drawn so that
    # CI's fresh-draw step fits new problems on every push.
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), unit=st.booleans())
    def test_large_nodes_match_reference(self, seed, unit):
        rng = np.random.default_rng(seed)
        g = int(rng.integers(140, 160))
        n = 20 * g
        noise = rng.normal(size=g) / 3.0
        weight = np.ones(g) if unit else rng.choice([0.0, 0.1, 0.5, 1.0, 2.0], g)
        pair = np.concatenate([rng.permutation(g) for _ in range(20)])  # each level's pairs
        level = np.repeat(np.arange(20), g)
        rows = rng.permutation(n)
        X = np.empty((n, 4))
        X[rows, 0] = level
        X[:, 1] = rng.integers(0, rng.integers(2, 21), n) * 0.1
        X[:, 2] = rng.permutation(n) / 3.0
        X[:, 3] = rng.normal(size=n)
        t, w = np.empty(n), np.empty(n)
        t[rows] = np.abs(level - 9.5) / 3.0 + noise[pair]
        w[rows] = weight[pair]
        columns = rng.permutation(4)
        X = X[:, columns]
        config = BoostConfig(max_depth=4, min_samples_leaf=int(rng.integers(1, 40)),
                             min_child_weight=float(rng.choice([0.0, 1.0, 5.0])))
        leaves = np.full(n, -1, dtype=np.int64)
        tree = fit_tree(X, t, w, config, leaves=leaves)
        want = RegressionTree(*reference_fit_tree(X, t, w, config))
        assert want.feature[0] == np.argmax(columns == 0)  # the root cuts the symmetric column
        for name, a, b in zip(("feature", "threshold", "left", "right", "value"),
                              tree_arrays(tree), tree_arrays(want)):
            assert np.array_equal(a, b, equal_nan=True), name
        assert leaves.tobytes() == reference_leaves(want, X).tobytes()

    def test_given_order_matches_built_order(self):
        rng = np.random.default_rng(8)
        X = np.round(rng.normal(size=(300, 4)), 1)
        t = rng.normal(size=300)
        w = rng.uniform(0.0, 2.0, size=300)
        index = boosting.FeatureIndex(X)
        leaves, index_leaves = np.empty(300, np.int64), np.empty(300, np.int64)
        a = fit_tree(X, t, w, BoostConfig(max_depth=4), leaves=leaves)
        b = fit_tree(index, t, w, BoostConfig(max_depth=4), leaves=index_leaves)
        for x, y in zip(tree_arrays(a), tree_arrays(b)):
            assert np.array_equal(x, y, equal_nan=True)
        assert leaves.tobytes() == index_leaves.tobytes()
        assert a.predict(index).tobytes() == a.predict(X).tobytes()


class TestBatchedSplitSearch:
    """Nodes search their features in blocks of SEARCH_CELLS cells; trees must
    not depend on how the features fall into blocks."""

    @pytest.mark.parametrize("cells", [1, 7, 40])
    @settings(max_examples=150, deadline=None)
    @given(problem=tree_problems())
    def test_any_block_size_matches_reference(self, cells, problem):
        X, t, w, config = problem
        with mock.patch.object(boosting, "SEARCH_CELLS", cells):
            got = tree_arrays(fit_tree(X, t, w, config))
        want = reference_fit_tree(X, t, w, config)
        for name, a, b in zip(("feature", "threshold", "left", "right", "value"), got, want):
            assert np.array_equal(a, b, equal_nan=True), name

    @pytest.mark.parametrize("n, d", [(37, 3), (980, 5), (5000, 4)])
    def test_leaves_give_the_training_predictions(self, n, d):
        rng = np.random.default_rng(n)
        X = np.round(rng.normal(size=(n, d)), 1)  # ties put rows on both sides of thresholds
        t = rng.standard_cauchy(n)
        w = rng.uniform(0.0, 2.0, size=n)
        leaves = np.full(n, -1, dtype=np.int64)
        tree = fit_tree(X, t, w, BoostConfig(max_depth=4), leaves=leaves)
        assert tree.n_leaves > 1
        assert np.all(tree.feature[leaves] == -1)
        assert tree.value[leaves].tobytes() == tree.predict(X).tobytes()

    def test_leaves_of_wrong_shape_rejected(self):
        X = np.arange(12.0).reshape(6, 2)
        with pytest.raises(BoostingError, match="leaf array"):
            fit_tree(X, np.arange(6.0), np.ones(6), BoostConfig(), leaves=np.empty(5, np.int64))


def ensemble_bytes(model):
    """Every array and number a fit produces, as bytes."""
    parts = [np.float64(model.base_prediction).tobytes(), model.loss_trace.tobytes(),
             repr(model.loss_spec).encode(), repr(model.config).encode()]
    for tree in model.trees:
        parts += [a.tobytes() for a in tree_arrays(tree)]
    return b"|".join(parts)


class TestFeatureIndex:
    """An index is its matrix: one serves every fit on it, and passing it in
    place of the matrix changes no bit."""

    @settings(max_examples=100, deadline=None)
    @given(problem=tree_problems())
    @example(problem=(np.arange(4.0)[:, None], np.array([0.0, 0.0, 0.0, 1.0]), np.ones(4),
                      BoostConfig(min_samples_leaf=1)))  # MAD 0: Huber and Welsch raise
    def test_shared_index_gives_the_same_fits(self, problem):
        X, t, _, config = problem
        config = replace(config, n_rounds=6)
        index = boosting.FeatureIndex(X)
        columns, order = index.columns.copy(), index.order.copy()
        labels = (t > np.median(t)).astype(float)

        def checked_fit_tree(features, targets, weights, tree_config, **kwargs):
            # Squared and logistic rounds fit unit weights, Huber and Welsch
            # rounds mostly other weights: every tree must be the reference's.
            tree = fit_tree(features, targets, weights, tree_config, **kwargs)
            want = reference_fit_tree(X, targets, weights, tree_config)
            for a, b in zip(tree_arrays(tree), want):
                assert np.array_equal(a, b, equal_nan=True)
            return tree

        def fit(features, y, kind):
            """The fit, or the message of a collapsed MAD scale, which only Huber and
            Welsch fits raise."""
            try:
                return fit_boosted(features, y, LossSpec(kind=kind), config)
            except ValueError as exc:
                assert kind in (HUBER, GAMMA_WELSCH) and "has collapsed" in str(exc), exc
                return str(exc)

        collapsed = set()
        for kind, y in ((SQUARED, t), (HUBER, t), (GAMMA_WELSCH, t), (LOGISTIC, labels)):
            with mock.patch.object(boosting, "fit_tree", side_effect=checked_fit_tree):
                shared = fit(index, y, kind)
            alone = fit(X, y, kind)
            if isinstance(alone, str):  # both paths raise the same error
                assert shared == alone, kind
                collapsed.add(kind)
                continue
            assert ensemble_bytes(shared) == ensemble_bytes(alone), kind
            assert shared.predict(index).tobytes() == alone.predict(X).tobytes(), kind
        assert collapsed in (set(), {HUBER, GAMMA_WELSCH})  # one anchor, one MAD
        # No fit writes to the index it was given.
        assert index.columns.tobytes() == columns.tobytes()
        assert index.order.tobytes() == order.tobytes()

    def test_index_holds_the_columns_and_their_order(self):
        X = np.array([[3.0, 0.5], [1.0, 0.5], [2.0, -1.0]])
        index = boosting.FeatureIndex(X)
        assert index.columns.flags.c_contiguous and index.columns.tolist() == X.T.tolist()
        assert index.order.dtype == np.int32 and index.order.tolist() == [[1, 2, 0], [2, 0, 1]]

    def test_index_flags_each_column_that_repeats_a_value(self):
        # constant, one repeat, distinct, and -0.0 == 0.0 (the search cannot cut between them)
        X = np.array([[2.0, 1.0, 0.5, 0.0], [2.0, 3.0, -1.0, -0.0], [2.0, 1.0, 4.0, 1.0],
                      [2.0, 0.0, 2.0, 2.0]])
        assert boosting.FeatureIndex(X).ties.tolist() == [True, True, False, True]
        assert boosting.FeatureIndex(X[:1]).ties.tolist() == [False] * 4

    # Every order is the stable argsort, ties in row order, on columns long
    # enough that numpy's default argsort need not keep that order on ties
    # (three_levels, signed_zeros).
    @pytest.mark.parametrize("column, ties", [
        (np.random.default_rng(10).integers(0, 3, 1000) - 1.0, True),
        (np.random.default_rng(11).choice([-0.0, 0.0, 1.0], 1000), True),
        (np.full(1000, 2.5), True),
        (np.random.default_rng(12).permutation(1000) / 7.0, False),
    ], ids=["three_levels", "signed_zeros", "constant", "permutation"])
    def test_index_order_is_the_stable_argsort(self, column, ties):
        X = np.column_stack([column, column[::-1]])
        index = boosting.FeatureIndex(X)
        for j in range(2):
            assert index.order[j].tolist() == np.argsort(X[:, j], kind="stable").tolist()
        assert index.ties.tolist() == [ties, ties]

    def test_index_reads_as_its_matrix_without_a_copy(self):
        X = np.array([[3.0, 0.5], [1.0, 0.5], [2.0, -1.0]])
        index = boosting.FeatureIndex(X)
        matrix = np.asarray(index)
        assert matrix.shape == (3, 2) and matrix.tolist() == X.tolist()
        assert np.shares_memory(matrix, index.columns) and matrix.flags.f_contiguous
        assert np.asarray(index, dtype=float).base is index.columns
        copied = np.array(index, copy=True)
        assert copied.tolist() == X.tolist() and not np.shares_memory(copied, index.columns)
        assert np.asarray(index, dtype=np.float32).dtype == np.float32
        with pytest.raises(ValueError, match="needs a copy"):
            index.__array__(np.float32, copy=False)

    def test_index_of_a_non_matrix_rejected(self):
        with pytest.raises(BoostingError, match=r"feature count \? does not match an \(n, d\) matrix"):
            boosting.FeatureIndex(np.arange(6.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_index_of_non_finite_features_rejected(self, bad):
        X = np.arange(80.0).reshape(40, 2)
        X[7, 1] = bad
        with pytest.raises(BoostingError, match="features contain non-finite values"):
            boosting.FeatureIndex(X)

    def test_offsets_do_not_wrap_past_int32(self):
        # Rows of columns 1 and 2 of a (3, 2**31) matrix: int32 arithmetic would wrap.
        n = 2 ** 31
        o = np.array([[n - 1, 0], [5, n - 1]], dtype=np.int32)
        got = boosting._offsets(o, 1, n)
        assert got.dtype == np.intp
        assert got.tolist() == [[2 * n - 1, n], [2 * n + 5, 3 * n - 1]]


def reference_leaves(tree, X):
    """Each row's leaf, routed node by node through the pre-order arrays with a mask.

    The router as it was before compiled prediction; RegressionTree.predict and
    BoostedEnsemble.predict must agree with it bit for bit, and so must the
    ``leaves`` that fit_tree writes.
    """
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = tree.feature[node] >= 0
    while np.any(active):
        idx = np.flatnonzero(active)
        nd = node[idx]
        go_left = X[idx, tree.feature[nd]] <= tree.threshold[nd]
        node[idx] = np.where(go_left, tree.left[nd], tree.right[nd])
        active = tree.feature[node] >= 0
    return node


def reference_predict(tree, X):
    return tree.value[reference_leaves(tree, X)]


def reference_ensemble_predict(model, X):
    out = np.full(X.shape[0], model.base_prediction)
    for tree in model.trees:
        out += model.config.learning_rate * reference_predict(tree, X)
    return out


#: Feature values and thresholds share one grid, so rows land exactly on thresholds.
GRID = [-1.5, -0.5, 0.0, 0.25, 1.0, 2.0]
LEAF_VALUES = st.sampled_from([-0.0, 0.0, 1.0 / 3.0]) | st.floats(-1e6, 1e6)


@st.composite
def hand_trees(draw, d, max_depth):
    """Pre-order trees with leaves at mixed depths, a single leaf included."""
    feature, threshold, left, right, value = [], [], [], [], []

    def build(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        if depth < max_depth and draw(st.booleans()):
            feature[node] = draw(st.integers(0, d - 1))
            threshold[node] = draw(st.sampled_from(GRID))
            left[node] = build(depth + 1)
            right[node] = build(depth + 1)
        else:
            value[node] = draw(LEAF_VALUES)
        return node

    build(0)
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
    )


@st.composite
def hand_ensembles(draw):
    """(model, X): 0-5 hand-built trees and 0-60 rows drawn from the threshold grid."""
    d = draw(st.integers(1, 3))
    max_depth = draw(st.integers(1, 5))
    trees = draw(st.lists(hand_trees(d, max_depth), max_size=5))
    model = BoostedEnsemble(
        base_prediction=draw(LEAF_VALUES),
        trees=trees,
        config=BoostConfig(max_depth=max_depth, learning_rate=draw(st.floats(1e-3, 1.0))),
        n_features=d,
    )
    n = draw(st.integers(0, 60))
    X = np.asarray(draw(st.lists(st.sampled_from(GRID), min_size=n * d, max_size=n * d)))
    return model, X.reshape(n, d)


class TestCompiledPredict:
    """Routing all trees a level at a time in blocks of PREDICT_CELLS cells must
    predict exactly what the node-by-node router predicts, for any block size."""

    @pytest.mark.parametrize("cells", [1, 7, 40, 200, boosting.PREDICT_CELLS])
    @settings(max_examples=100, deadline=None)
    @given(case=hand_ensembles())
    # Trees are added one at a time, in order: (((1/3 - 0.0) - 0.0) + 0.25) + 1/6 is
    # 0.7499999999999999, while np.add.reduce(vals, axis=0, initial=base) sums a one-row
    # (trees, 1) block pairwise and gives 0.75.
    @example(case=(BoostedEnsemble(
        base_prediction=1.0 / 3.0,
        trees=[RegressionTree(feature=np.array([-1]), threshold=np.array([np.nan]), left=np.array([-1]),
                              right=np.array([-1]), value=np.array([v]))
               for v in (-0.0, -0.0, 0.25, 1.0 / 6.0)],
        config=BoostConfig(learning_rate=1.0), n_features=1), np.zeros((1, 1))))
    def test_hand_built_trees_match_reference(self, cells, case):
        model, X = case
        with mock.patch.object(boosting, "PREDICT_CELLS", cells):
            got = model.predict(X)
            for tree in model.trees:
                assert tree.predict(X).tobytes() == reference_predict(tree, X).tobytes()
        assert got.tobytes() == reference_ensemble_predict(model, X).tobytes()

    @pytest.mark.parametrize("cells", [1, 7, 40, 200])
    @settings(max_examples=60, deadline=None)
    @given(problem=tree_problems())
    def test_fitted_trees_match_reference(self, cells, problem):
        X, t, w, config = problem
        tree = fit_tree(X, t, w, config)
        model = BoostedEnsemble(base_prediction=0.1, trees=[tree, tree], n_features=X.shape[1],
                                config=replace(config, learning_rate=1.0 / 3.0))
        with mock.patch.object(boosting, "PREDICT_CELLS", cells):
            assert tree.predict(X).tobytes() == reference_predict(tree, X).tobytes()
            assert model.predict(X).tobytes() == reference_ensemble_predict(model, X).tobytes()

    def test_boosted_model_matches_reference_across_blocks(self):
        rng = np.random.default_rng(14)
        X = np.round(rng.normal(size=(300, 4)), 1)
        y = X[:, 0] - X[:, 1] ** 2 + rng.standard_cauchy(300)
        model = fit_boosted(X, y, LossSpec(kind=GAMMA_WELSCH), BoostConfig(n_rounds=40, max_depth=4))
        want = reference_ensemble_predict(model, X)
        # 40 trees = 40 cells a row: blocks of 1, 7, 299, 300 and 301 rows.
        assert len(model.trees) == 40 and boosting._compile(model.trees)[4] == 4
        for cells in (1, 7, 40, 40 * 7, 40 * 299, 40 * 300, 40 * 301):
            with mock.patch.object(boosting, "PREDICT_CELLS", cells):
                assert model.predict(X).tobytes() == want.tobytes()

    def test_no_trees_and_no_rows(self):
        model = BoostedEnsemble(base_prediction=-0.0, n_features=2)
        assert model.predict(np.ones((3, 2))).tobytes() == np.full(3, -0.0).tobytes()
        assert model.predict(np.empty((0, 2))).shape == (0,)
        leaf = RegressionTree(feature=np.array([-1]), threshold=np.array([np.nan]),
                              left=np.array([-1]), right=np.array([-1]), value=np.array([-0.0]))
        assert leaf.predict(np.ones((1, 2))).tobytes() == np.array([-0.0]).tobytes()
        assert leaf.predict(np.empty((0, 2))).shape == (0,)
        # No features at all: nothing to compare, every row gets the constant.
        assert leaf.predict(np.empty((3, 0))).tobytes() == np.full(3, -0.0).tobytes()
        assert BoostedEnsemble(base_prediction=1.5).predict(np.empty((2, 0))).tolist() == [1.5, 1.5]

    def test_row_at_threshold_goes_left(self):
        tree = RegressionTree(feature=np.array([1, -1, -1]), threshold=np.array([0.5, np.nan, np.nan]),
                              left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                              value=np.array([0.0, -1.0, 1.0]))
        X = np.array([[9.0, 0.5], [9.0, np.nextafter(0.5, 1.0)], [9.0, -3.0]])
        np.testing.assert_array_equal(tree.predict(X), [-1.0, 1.0, -1.0])

    @pytest.mark.parametrize("X, message", [
        (np.array([[0.0, np.nan]]), "non-finite"),
        (np.array([[np.inf, 0.0]]), "non-finite"),
        (np.ones((2, 1)), "feature count 1"),
        (np.ones(2), "feature count"),
    ])
    def test_tree_rejects_bad_features(self, X, message):
        tree = RegressionTree(feature=np.array([1, -1, -1]), threshold=np.array([0.5, np.nan, np.nan]),
                              left=np.array([1, -1, -1]), right=np.array([2, -1, -1]),
                              value=np.array([0.0, -1.0, 1.0]))
        with pytest.raises(BoostingError, match=message):
            tree.predict(X)

    def test_cyclic_tree_raises(self):
        tree = RegressionTree(feature=np.array([0, -1]), threshold=np.array([0.5, np.nan]),
                              left=np.array([0, -1]), right=np.array([1, -1]),
                              value=np.array([0.0, 1.0]))
        with pytest.raises(BoostingError, match="tree 0 has a cycle"):
            tree.predict(np.ones((2, 1)))

    def test_shared_child_routes_like_reference(self):
        # Both of the root's children are node 1: not a pre-order tree, but routable.
        tree = RegressionTree(feature=np.array([0, -1]), threshold=np.array([0.5, np.nan]),
                              left=np.array([1, -1]), right=np.array([1, -1]),
                              value=np.array([0.0, 2.0]))
        X = np.array([[0.0], [1.0]])
        assert tree.predict(X).tobytes() == reference_predict(tree, X).tobytes()

    def test_cost_is_linear_in_depth(self):
        # A 30-level chain: routing takes 30 steps, with no 2^30-sized table behind them.
        n = 61
        feature = np.where(np.arange(n) % 2 == 0, 0, -1)
        feature[-1] = -1
        left = np.where(feature >= 0, np.arange(n) + 1, -1)
        right = np.where(feature >= 0, np.arange(n) + 2, -1)
        threshold = np.where(feature >= 0, np.arange(n) / 2.0, np.nan)
        tree = RegressionTree(feature=feature, threshold=threshold, left=left, right=right,
                              value=np.arange(n, dtype=float))
        assert boosting._compile([tree])[4] == 30
        X = np.array([[-1.0], [4.0], [100.0]])
        assert tree.predict(X).tobytes() == reference_predict(tree, X).tobytes()


class TestBoostConfig:
    @pytest.mark.parametrize("bad", [
        dict(n_rounds=-1),
        dict(learning_rate=0.0),
        dict(learning_rate=1.5),
        dict(max_depth=0),
        dict(min_samples_leaf=0),
        dict(max_depth=2.5),
        dict(n_rounds=2.5),
    ])
    def test_validation(self, bad):
        with pytest.raises(BoostingError):
            BoostConfig(**bad)

    @pytest.mark.parametrize("name", ["learning_rate", "min_child_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.1", True, Decimal("0.1"),
                                       Fraction(1, 10), 0.1j])
    def test_float_fields_must_be_finite_numbers(self, name, value):
        with pytest.raises(BoostingError, match=f"^{name} must be a finite number, got "):
            BoostConfig(**{name: value})
        assert getattr(BoostConfig(**{name: np.float32(0.5)}), name) == 0.5

    @pytest.mark.parametrize("name", ["n_rounds", "max_depth", "min_samples_leaf"])
    @pytest.mark.parametrize("value", [3.0, 2.5, True, "3"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(BoostingError, match=f"^{name} must be an integer$"):
            BoostConfig(**{name: value})
        assert getattr(BoostConfig(**{name: np.int64(3)}), name) == 3


@st.composite
def contaminated_problems(draw):
    """(X, y, config): continuous outcomes at scale 2**k, |k| <= 40, with Pareto,
    Cauchy or t2 whales, on features with or without ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(10, 150)), draw(st.integers(1, 4))
    X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        X = np.round(X, draw(st.integers(0, 1)))
    y = X[:, 0] + rng.normal(size=n)
    whales = rng.random(n) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    tails = {"pareto": rng.pareto(1.5, n) + 1.0, "cauchy": rng.standard_cauchy(n),
             "t2": rng.standard_t(2, n)}
    y[whales] += 10.0 * tails[draw(st.sampled_from(sorted(tails)))][whales]
    config = BoostConfig(n_rounds=draw(st.integers(1, 20)), max_depth=draw(st.integers(1, 4)),
                         min_samples_leaf=draw(st.integers(1, 8)),
                         learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])))
    return X, y * 2.0 ** draw(st.integers(-40, 40)), config


class TestFitBoosted:
    def test_squared_converges_on_noiseless_linear(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1]
        model = fit_boosted(X, y, LossSpec(kind=SQUARED),
                            BoostConfig(n_rounds=400, max_depth=3))
        rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
        assert rmse < 0.05 * np.std(y)

    def test_init_median_for_robust_mean_for_squared(self):
        X = np.zeros((5, 1))
        y = np.array([0.0, 0.0, 1.0, 10.0, 100.0])
        robust = fit_boosted(X, y, LossSpec(kind=GAMMA_WELSCH), BoostConfig(n_rounds=0))
        squared = fit_boosted(X, y, LossSpec(kind=SQUARED), BoostConfig(n_rounds=0))
        assert robust.base_prediction == np.median(y)
        assert squared.base_prediction == np.mean(y)

    def test_scale_anchored_from_initial_residuals(self):
        from rxlearner.losses import mad_scale
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        model = fit_boosted(X, y, LossSpec(kind=GAMMA_WELSCH), BoostConfig(n_rounds=3))
        assert model.loss_spec.scale == pytest.approx(mad_scale(y - np.median(y)))

    @pytest.mark.parametrize("kind", [SQUARED, HUBER, GAMMA_WELSCH])
    def test_monotone_descent_all_losses(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(30, 120))
            X = rng.normal(size=(n, 3))
            y = X[:, 0] + rng.normal(size=n)
            whales = rng.random(n) < 0.2
            y[whales] += (rng.pareto(1.5, size=n)[whales] + 1.0) * 10.0
            model = fit_boosted(X, y, LossSpec(kind=kind), BoostConfig(n_rounds=40))
            trace = model.loss_trace
            assert np.all(np.diff(trace) <= 1e-9 * np.abs(trace[:-1]) + 1e-12)

    def test_whale_resistance_1d(self):
        clean = generate_1d_qualitative(200, 0, seed=0)
        dirty = generate_1d_qualitative(200, 5, seed=0)
        cfg = BoostConfig(n_rounds=150)
        magnitude = 25.0
        for kind, bound, robust in ((GAMMA_WELSCH, 0.05, True), (SQUARED, 0.2, False)):
            clean_fit = fit_boosted(clean.features, clean.outcome, LossSpec(kind=kind), cfg)
            dirty_fit = fit_boosted(dirty.features, dirty.outcome, LossSpec(kind=kind), cfg)
            gap = np.max(np.abs(dirty_fit.predict(clean.features) - clean_fit.predict(clean.features)))
            if robust:
                assert gap < bound * magnitude
            else:
                assert gap > bound * magnitude

    def test_zero_rounds_is_constant(self):
        X = np.random.default_rng(2).normal(size=(20, 2))
        y = np.arange(20.0)
        model = fit_boosted(X, y, LossSpec(kind=SQUARED), BoostConfig(n_rounds=0))
        np.testing.assert_allclose(model.predict(X), np.mean(y))
        assert model.trees == []

    def test_single_depth1_tree_is_two_level(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 1))
        y = np.where(X[:, 0] > 0, 5.0, -5.0)
        model = fit_boosted(X, y, LossSpec(kind=SQUARED),
                            BoostConfig(n_rounds=1, max_depth=1, learning_rate=1.0))
        assert len(model.trees) == 1
        assert len(np.unique(model.predict(X))) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        a = fit_boosted(X, y, LossSpec(kind=GAMMA_WELSCH), BoostConfig(n_rounds=30))
        b = fit_boosted(X, y, LossSpec(kind=GAMMA_WELSCH), BoostConfig(n_rounds=30))
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_rejects_non_finite_targets(self):
        with pytest.raises(BoostingError):
            fit_boosted(np.ones((3, 1)), np.array([1.0, np.nan, 2.0]),
                        LossSpec(kind=SQUARED), BoostConfig())

    def test_rejects_non_finite_features(self):
        X = np.arange(20.0).reshape(10, 2)
        model = fit_boosted(X, np.arange(10.0), LossSpec(kind=SQUARED), BoostConfig(n_rounds=2))
        with pytest.raises(BoostingError, match="non-finite"):
            model.predict(np.full((1, 2), np.nan))
        X[3, 1] = np.inf
        with pytest.raises(BoostingError, match="non-finite"):
            fit_boosted(X, np.arange(10.0), LossSpec(kind=SQUARED), BoostConfig(n_rounds=2))

    def test_predict_checks_feature_count(self):
        X = np.ones((10, 2))
        model = fit_boosted(X, np.arange(10.0), LossSpec(kind=SQUARED), BoostConfig(n_rounds=2))
        with pytest.raises(BoostingError):
            model.predict(np.ones((5, 3)))

    @settings(max_examples=100, deadline=None)
    @given(case=contaminated_problems())
    def test_every_round_asked_descends(self, case):
        # A leaf value is a weighted mean of its targets, so a step at the
        # learning rate cannot raise the MM majorizer: with a sound scale no
        # fit stops early.
        X, y, config = case
        for kind in (SQUARED, HUBER, GAMMA_WELSCH):
            model = fit_boosted(X, y, LossSpec(kind=kind), config)
            assert len(model.trees) == len(model.loss_trace) == config.n_rounds, kind

    def test_failed_descent_stops_the_fit(self):
        # sigma-hat = 4.4e-15 passes mad_scale's test (it is 5e-14 of the far point),
        # but the far point's weight, raised to WEIGHT_FLOOR, moves the one leaf by far
        # more than sigma-hat, so the step raises the loss and the fit stops there.
        X, y = np.array([[1.0], [1.0], [2.0]]), np.array([0.0, -3e-15, 0.085])
        config = BoostConfig(n_rounds=10, max_depth=1, min_samples_leaf=2, min_child_weight=0.0)
        for kind in (HUBER, GAMMA_WELSCH):
            model = fit_boosted(X, y, LossSpec(kind=kind), config)
            trace = model.loss_trace
            assert len(model.trees) == trace.size < config.n_rounds, kind
            assert np.all(trace[1:] <= trace[:-1] + boosting.DESCENT_RTOL * np.abs(trace[:-1]))

    @pytest.mark.parametrize("kind", [SQUARED, HUBER, GAMMA_WELSCH])
    def test_last_trace_value_is_loss_of_predictions(self, kind):
        rng = np.random.default_rng(12)
        X = np.round(rng.normal(size=(200, 3)), 1)
        y = X[:, 0] + rng.standard_cauchy(200)
        model = fit_boosted(X, y, LossSpec(kind=kind), BoostConfig(n_rounds=30))
        assert len(model.trees) > 0
        assert model.loss_trace[-1] == loss_value(y - model.predict(X), model.loss_spec)


def doc_round_trip(model, edit=lambda doc: None):
    """The model rebuilt from its document's JSON text, as a bundle stores it, after
    ``edit`` changes the parsed document."""
    doc = json.loads(json.dumps(boosting._model_doc(model), default=boosting._json_value))
    edit(doc)
    return boosting._model_from_doc(doc)


class TestModelIO:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 3))
        y = X[:, 0] ** 2 + rng.normal(size=120)
        model = fit_boosted(X, y, LossSpec(kind=GAMMA_WELSCH), BoostConfig(n_rounds=25))
        back = doc_round_trip(model)
        np.testing.assert_array_equal(back.predict(X), model.predict(X))
        np.testing.assert_array_equal(back.loss_trace, model.loss_trace)
        assert back.loss_spec == model.loss_spec
        assert back.config == model.config
        assert len(back.trees) == len(model.trees)
        for tree, saved in zip(back.trees, model.trees):
            for name, _ in boosting.TREE_ARRAYS:
                got, want = getattr(tree, name), getattr(saved, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", [
        BoostedEnsemble(base_prediction=0.0, n_features=np.int64(2)),
        BoostedEnsemble(base_prediction=np.float32(0.5), config=BoostConfig(
            n_rounds=np.int64(3), max_depth=np.int32(2), min_samples_leaf=np.int64(1))),
        BoostedEnsemble(base_prediction=0.0, config=BoostConfig(min_child_weight=np.float32(1.0)),
                        loss_spec=LossSpec(gamma=np.float32(0.5))),
    ], ids=["n_features", "config_counts", "float32_config_and_loss"])
    def test_numpy_scalars_round_trip(self, model):
        back = doc_round_trip(model)
        assert back.config == model.config and back.n_features == model.n_features
        assert back.base_prediction == model.base_prediction
        assert back.loss_spec == model.loss_spec

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["loss_spec"].update(refresh_every=0), "unexpected keyword.*refresh_every"),
        (lambda doc: doc["config"].update(seed=7), "unexpected keyword.*seed"),
    ], ids=["refresh_every", "config_seed"])
    def test_removed_keys_rejected(self, edit, message):
        # Keys of older model documents name fields that no longer exist.
        X = np.arange(20.0).reshape(10, 2)
        model = fit_boosted(X, np.arange(10.0), LossSpec(kind=GAMMA_WELSCH), BoostConfig(n_rounds=3))
        with pytest.raises(TypeError, match=message):
            doc_round_trip(model, edit)

    @pytest.mark.parametrize("doc", [[1], None, 3])
    def test_document_not_an_object_rejected(self, doc):
        with pytest.raises(BoostingError) as err:
            boosting._model_from_doc(doc)
        assert str(err.value) == f"expected a JSON object, got {json.dumps(doc)}"

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["trees"][0]["left"].__setitem__(0, 0), "tree 0 has a cycle"),
        (lambda doc: doc["trees"][1]["right"].__setitem__(1, 0), "tree 1 has a cycle"),
        (lambda doc: doc["trees"][2]["feature"].__setitem__(0, 40), "tree 2: feature index 40"),
        (lambda doc: doc["trees"][3]["right"].__setitem__(0, 99), "tree 3: child index out of range"),
        (lambda doc: doc["trees"][0]["left"].__setitem__(0, -1), "tree 0: child index out of range"),
        (lambda doc: doc["trees"][1]["value"].pop(), "tree 1: node arrays are empty or of unequal"),
        (lambda doc: doc["trees"][2]["threshold"].__setitem__(0, float("nan")), "tree 2: NaN threshold"),
        (lambda doc: doc["config"].__setitem__("max_depth", 2), "tree 0 is deeper than max_depth 2"),
        (lambda doc: doc["trees"][0]["feature"].__setitem__(0, 0.7), "tree 0: feature holds non-integer"),
        (lambda doc: doc["trees"][0]["left"].__setitem__(0, 1.5), "tree 0: left holds non-integer"),
        (lambda doc: doc["trees"][1].pop("value"), "tree 1: 'value'"),
        (lambda doc: doc["config"].__setitem__("max_depth", 2.5), "max_depth must be an integer"),
        (lambda doc: doc.__setitem__("n_features", 3.9), "n_features must be an integer"),
        (lambda doc: doc.__setitem__("base_prediction", "0.5"), "base_prediction must be a finite"),
    ])
    def test_unroutable_tree_rejected(self, edit, message):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 3))
        model = fit_boosted(X, X[:, 0] * X[:, 1] + X[:, 2], LossSpec(kind=SQUARED),
                            BoostConfig(n_rounds=4, max_depth=3))
        # Node 1 is the root's left child in pre-order; the edits need both to split.
        assert len(model.trees) == 4 and all(np.all(t.feature[:2] >= 0) for t in model.trees)
        with pytest.raises(BoostingError, match=f"^{message}"):
            doc_round_trip(model, edit)

    @pytest.mark.parametrize("edit, message", [
        (lambda parts: parts["trees"][0]["left"].__setitem__(0, 0), "tree 0 has a cycle"),
        (lambda parts: parts["trees"][1]["right"].__setitem__(1, 0), "tree 1 has a cycle"),
        (lambda parts: parts["trees"][2]["feature"].__setitem__(0, 40), "tree 2: feature index 40"),
        (lambda parts: parts["trees"][3]["right"].__setitem__(0, 99), "tree 3: child index out of range"),
        (lambda parts: parts["trees"][0]["left"].__setitem__(0, -1), "tree 0: child index out of range"),
        (lambda parts: parts["trees"][2]["threshold"].__setitem__(0, np.nan), "tree 2: NaN threshold"),
        (lambda parts: parts.update(config=BoostConfig(max_depth=2)), "tree 0 is deeper than max_depth 2"),
        (lambda parts: parts.update(n_features=3.9), "n_features must be an integer"),
        (lambda parts: parts.update(n_features=-1), "n_features must be >= 0"),
    ])
    def test_in_memory_model_checked_like_a_file(self, edit, message):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 3))
        model = fit_boosted(X, X[:, 0] * X[:, 1] + X[:, 2], LossSpec(kind=SQUARED),
                            BoostConfig(n_rounds=4, max_depth=3))
        assert len(model.trees) == 4 and all(np.all(t.feature[:2] >= 0) for t in model.trees)
        parts = dict(base_prediction=model.base_prediction, config=model.config,
                     n_features=model.n_features,
                     trees=[{name: getattr(tree, name).copy() for name, _ in boosting.TREE_ARRAYS}
                            for tree in model.trees])
        edit(parts)
        trees = [RegressionTree(**arrays) for arrays in parts.pop("trees")]
        with pytest.raises(BoostingError, match=message):
            BoostedEnsemble(trees=trees, **parts)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.5", True, None,
                                       Decimal("0.5"), Fraction(1, 2)])
    def test_scalars_must_be_finite_numbers(self, value):
        # An unchecked NaN base prediction predicted NaN for every row.
        with pytest.raises(BoostingError, match="^base_prediction must be a finite number, got "):
            BoostedEnsemble(base_prediction=value, n_features=2)

    def test_tree_predict_checks_its_children(self):
        # Unchecked, -1 wraps to the last node: the row at 0.0 would get 1.0, not -1.0.
        tree = RegressionTree(feature=np.array([1, -1, -1]), threshold=np.array([0.5, np.nan, np.nan]),
                              left=np.array([-1, -1, -1]), right=np.array([2, -1, -1]),
                              value=np.array([0.0, -1.0, 1.0]))
        with pytest.raises(BoostingError, match="tree 0: child index out of range for 3 nodes"):
            tree.predict(np.array([[0.0, 0.0], [0.0, 1.0]]))
        tree.left[0] = 99
        with pytest.raises(BoostingError, match="tree 0: child index out of range for 3 nodes"):
            tree.predict(np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("arrays", [
        dict(feature=[-1], threshold=[np.nan], left=[-1], right=[-1], value=[0.0, 1.0]),
        dict(feature=[], threshold=[], left=[], right=[], value=[]),
        dict(feature=[[-1]], threshold=[[np.nan]], left=[[-1]], right=[[-1]], value=[[0.0]]),
    ])
    def test_tree_arrays_are_nonempty_and_of_one_length(self, arrays):
        with pytest.raises(BoostingError, match="node arrays are empty or of unequal length"):
            RegressionTree(**arrays)


class TestLogisticBoosting:
    def test_calibration_known_propensity(self):
        rng = np.random.default_rng(6)
        n = 10_000
        X = rng.uniform(-1, 1, size=(n, 2))
        pi = 1.0 / (1.0 + np.exp(-2.0 * X[:, 0]))
        w = (rng.random(n) < pi).astype(float)
        model = fit_boosted(X, w, LossSpec(kind=LOGISTIC), BoostConfig(n_rounds=100, max_depth=2))
        assert np.mean(np.abs(predict_proba(model, X) - pi)) < 0.05

    def test_predictions_clipped(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(500, 1))
        w = (X[:, 0] > 0).astype(float)  # perfectly separable
        model = fit_boosted(X, w, LossSpec(kind=LOGISTIC), BoostConfig(n_rounds=200))
        p = predict_proba(model, X)
        assert p.min() >= 0.01 and p.max() <= 0.99

    def test_rejects_non_binary_labels(self):
        with pytest.raises(BoostingError):
            fit_boosted(np.ones((3, 1)), np.array([0.0, 0.5, 1.0]), LossSpec(kind=LOGISTIC),
                        BoostConfig())


def reference_fit_logistic(X, z, config):
    """The propensity fit's own loop from before it became fit_boosted's logistic
    loss, kept as the bit-for-bit reference: Friedman's log-odds boosting, a full
    step every round and no descent check."""
    p0 = float(np.clip(np.mean(z), 1e-6, 1 - 1e-6))
    f0 = float(np.log(p0 / (1 - p0)))
    F = np.full(z.size, f0)
    trees, trace = [], []
    index = boosting.FeatureIndex(X)
    leaves = np.empty(z.size, dtype=np.int64)
    for _ in range(config.n_rounds):
        p = 1.0 / (1.0 + np.exp(-F))
        resid = z - p
        tree = fit_tree(index, resid, np.ones_like(resid), config, leaves=leaves)
        F = F + config.learning_rate * tree.value[leaves]
        trees.append(tree)
        p = np.clip(1.0 / (1.0 + np.exp(-F)), 1e-12, 1 - 1e-12)
        trace.append(float(-np.sum(z * np.log(p) + (1 - z) * np.log(1 - p))))
    return BoostedEnsemble(base_prediction=f0, trees=trees,
                           loss_spec=LossSpec(kind=LOGISTIC), loss_trace=np.asarray(trace),
                           config=config, n_features=X.shape[1])


class TestLogisticLoss:
    """The propensity fit is fit_boosted with the logistic loss: its inputs are
    checked like any fit's, and it fits what its own loop used to, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(problem=tree_problems(), n_rounds=st.integers(0, 25),
           learning_rate=st.sampled_from([0.1, 0.3, 1.0]), cut=st.sampled_from([-np.inf, 0.0, 0.5]))
    def test_equals_the_reference_loop(self, problem, n_rounds, learning_rate, cut):
        X, t, _, config = problem
        config = replace(config, n_rounds=n_rounds, learning_rate=learning_rate)
        # cut -inf gives all-ones labels; 0.5 splits at the median
        labels = (t > (np.quantile(t, cut) if np.isfinite(cut) else cut)).astype(float)
        model = fit_boosted(X, labels, LossSpec(kind=LOGISTIC), config)
        assert ensemble_bytes(model) == ensemble_bytes(reference_fit_logistic(X, labels, config))
        # Non-increasing up to the loop's rounding slack: at the optimum a leaf
        # value of 1e-17 can raise the log-loss by one ulp.
        trace = model.loss_trace
        assert np.all(trace[1:] <= trace[:-1] + boosting.DESCENT_RTOL * np.abs(trace[:-1]))

    def test_non_finite_features_rejected(self):
        X = np.random.default_rng(0).normal(size=(50, 2))
        X[17, 1] = np.nan
        with pytest.raises(BoostingError, match="features contain non-finite values"):
            fit_boosted(X, np.arange(50.0) % 2, LossSpec(kind=LOGISTIC), BoostConfig(n_rounds=3))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(BoostingError, match="matching lengths"):
            fit_boosted(np.ones((40, 2)), np.arange(50.0) % 2, LossSpec(kind=LOGISTIC),
                        BoostConfig(n_rounds=0))
