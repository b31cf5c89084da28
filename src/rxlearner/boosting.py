"""Weighted regression trees and MM-based gradient boosting.

The boosting loop enforces the monotone-descent guarantee of the MM scheme:
each round's residuals define Welsch weights (the Proxy Hessian), a tree is
fit by weighted least squares, and the proposed step is accepted only if the
training loss does not increase, backtracking the step size otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace, asdict

import numpy as np

from .losses import (
    SQUARED,
    WEIGHT_FLOOR,
    LossSpec,
    gradient_and_weight,
    loss_value,
    mad_scale,
)

MODEL_FORMAT_VERSION = 1

#: Relative slack when accepting a boosting step as non-increasing.
DESCENT_RTOL = 1e-12

#: Maximum step-size halvings before a round is abandoned.
MAX_HALVINGS = 8

#: Cells (features x rows) one batched split search takes at a node. Small
#: nodes search all their features in one call, which is where the time goes
#: at a few hundred rows: the cost is per numpy call, not per cell. The cap
#: exists for large nodes: at a 29,988-row root with 12 features, each
#: unbatched (12, m) float temporary of the search would be 2.9 MB, and a
#: dozen of them would lift peak memory well past the benchmark's 10% bound
#: on ``peak_rss_mb``. Those nodes search one feature per call.
SEARCH_CELLS = 1 << 14


class BoostingError(ValueError):
    """Raised for invalid boosting inputs or malformed model files."""


@dataclass(frozen=True)
class BoostConfig:
    n_rounds: int = 200
    learning_rate: float = 0.1
    max_depth: int = 3
    min_child_weight: float = 1.0
    min_samples_leaf: int = 5

    def __post_init__(self):
        if self.n_rounds < 0:
            raise BoostingError("n_rounds must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise BoostingError("learning_rate must lie in (0, 1]")
        if self.max_depth < 1:
            raise BoostingError("max_depth must be >= 1")
        if self.min_child_weight < 0:
            raise BoostingError("min_child_weight must be >= 0")
        if self.min_samples_leaf < 1:
            raise BoostingError("min_samples_leaf must be >= 1")


@dataclass
class RegressionTree:
    """Flat-array binary tree; feature == -1 marks a leaf node."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] <= self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] >= 0
        return self.value[node]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))


def _weighted_mean(t: np.ndarray, w: np.ndarray) -> float:
    return float(np.sum(w * t) / np.sum(w))


def _best_splits(xs, ts, ws, config: BoostConfig):
    """Best (gain, threshold) of each row of a block of sorted features.

    ``xs`` is a (k, m) block, each row one feature's values at a node in
    ascending order, with ``ts`` and ``ws`` aligned to it. Gain is the
    weighted-SSE reduction from prefix sums; ``np.cumsum`` along a row adds
    sequentially, so each row's sums equal those of a 1-D search. A row with no
    valid split gets gain -inf. Ties on gain resolve to the lowest threshold
    (argmax picks the first position in ascending threshold order).
    """
    wt = ws * ts
    cw = np.cumsum(ws, axis=1)
    cwt = np.cumsum(wt, axis=1)
    cwt2 = np.cumsum(wt * ts, axis=1)
    total_w, total_wt, total_wt2 = cw[:, -1:], cwt[:, -1:], cwt2[:, -1:]
    total_sse = total_wt2 - total_wt * total_wt / total_w

    # The left block xs[:, :pos + 1] keeps min_samples_leaf rows on each side
    # for pos in [lo, hi).
    lo, hi = config.min_samples_leaf - 1, xs.shape[1] - config.min_samples_leaf
    valid = xs[:, lo:hi] < xs[:, lo + 1:hi + 1]
    lw = cw[:, lo:hi]
    rw = total_w - lw
    valid &= (lw >= config.min_child_weight) & (rw >= config.min_child_weight)

    with np.errstate(divide="ignore", invalid="ignore"):
        sse_l = cwt2[:, lo:hi] - cwt[:, lo:hi] ** 2 / lw
        sse_r = (total_wt2 - cwt2[:, lo:hi]) - (total_wt - cwt[:, lo:hi]) ** 2 / rw
    gain = np.where(valid, total_sse - (sse_l + sse_r), -np.inf)
    rows = np.arange(xs.shape[0])
    best = lo + np.argmax(gain, axis=1)
    return gain[rows, best - lo], 0.5 * (xs[rows, best] + xs[rows, best + 1])


def _feature_order(X: np.ndarray) -> np.ndarray:
    """Stable argsort of every column of X, as a contiguous (d, n) int32 array.

    Row j lists the row indices in ascending order of feature j, ties in
    ascending row order. The matrix does not change inside a boosting fit, so
    the fit sorts once and every tree reuses the index.
    """
    n, d = X.shape
    order = np.empty((d, n), dtype=np.int32)
    for j in range(d):
        order[j] = np.argsort(X[:, j], kind="stable")
    return order


def fit_tree(X, targets, instance_weights, config: BoostConfig, *, order=None,
             leaves=None) -> RegressionTree:
    """Greedy top-down weighted CART; each split maximizes weighted-SSE reduction.

    Leaf value is the weighted mean of its targets (the exact weighted
    least-squares minimizer, i.e. the MM inner step). Split ties resolve to
    the lowest feature index, then the lowest threshold.

    ``order`` is the feature index of :func:`_feature_order` for X; it is built
    here when omitted. Each node splits its per-feature sorted row lists
    stably instead of sorting again (the exact presorted method), so every
    prefix sum adds in the same order as a per-node stable sort would. A node
    searches its features in blocks of up to ``SEARCH_CELLS`` cells with one
    :func:`_best_splits` call per block.

    ``leaves``, if given, is a length-n integer array that receives each
    training row's leaf node, so ``tree.value[leaves]`` equals
    ``tree.predict(X)`` bit for bit without routing the rows again.
    """
    X = np.asarray(X, dtype=float)
    t = np.asarray(targets, dtype=float)
    w = np.asarray(instance_weights, dtype=float)
    if X.ndim != 2 or t.shape != (X.shape[0],) or w.shape != t.shape:
        raise BoostingError("features, targets, and weights must have matching lengths")
    if np.any(w < 0) or not np.any(w > 0):
        raise BoostingError("weights must be nonnegative with at least one positive")
    w = np.maximum(w, WEIGHT_FLOOR)
    n, d = X.shape
    if order is None:
        order = _feature_order(X)
    elif np.shape(order) != (d, n):
        raise BoostingError(f"feature order has shape {np.shape(order)}, expected {(d, n)}")
    if leaves is not None and np.shape(leaves) != (n,):
        raise BoostingError(f"leaf array has shape {np.shape(leaves)}, expected {(n,)}")
    in_left = np.zeros(n, dtype=bool)  # reused: each split writes, then reads, its own rows
    columns = np.arange(d)[:, None]

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
        best_gain, best_feat, best_thr = 1e-12, -1, np.nan
        if depth < config.max_depth and idx.size >= 2 * config.min_samples_leaf:
            block = max(1, SEARCH_CELLS // idx.size)
            for j0 in range(0, d, block):
                o = node_order[j0:j0 + block]
                # One feature: X[o, j] takes numpy's single-index gather, which
                # at 30k rows is ~40% faster than a pair of broadcast indices.
                xs = X[o, j0] if block == 1 else X[o, columns[j0:j0 + block]]
                gains, thrs = _best_splits(xs, t[o], w[o], config)
                for j, gain, thr in zip(range(j0, d), gains.tolist(), thrs.tolist()):
                    if gain > best_gain:
                        best_gain, best_feat, best_thr = gain, j, thr
        if best_feat < 0:
            value[node] = _weighted_mean(t[idx], w[idx])
            if leaves is not None:
                leaves[idx] = node
            continue
        feature[node] = best_feat
        threshold[node] = best_thr
        go_left = X[idx, best_feat] <= best_thr
        left_order = right_order = None  # children at max_depth are leaves
        if depth + 1 < config.max_depth:
            n_left = int(np.count_nonzero(go_left))
            in_left[idx] = go_left
            mask = in_left[node_order]
            left_order = node_order[mask].reshape(d, n_left)
            right_order = node_order[~mask].reshape(d, idx.size - n_left)
        stack.append((idx[~go_left], right_order, depth + 1, right, node))
        stack.append((idx[go_left], left_order, depth + 1, left, node))
    return RegressionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=float),
    )


@dataclass
class BoostedEnsemble:
    """Additive tree model with its (non-increasing) training loss trace."""

    base_prediction: float
    trees: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    loss_spec: LossSpec = field(default_factory=LossSpec)
    loss_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    config: BoostConfig = field(default_factory=BoostConfig)
    n_features: int = 0

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise BoostingError(
                f"feature count {X.shape[1] if X.ndim == 2 else '?'} does not match "
                f"training ({self.n_features})"
            )
        if not np.all(np.isfinite(X)):
            raise BoostingError("features contain non-finite values")
        out = np.full(X.shape[0], self.base_prediction)
        for eta, tree in zip(self.step_sizes, self.trees):
            out += eta * tree.predict(X)
        return out


def fit_boosted(features, targets, loss: LossSpec, config: BoostConfig) -> BoostedEnsemble:
    """MM gradient boosting with a step-halving monotonicity safeguard.

    Robust losses initialize at the target median and anchor sigma-hat via
    MAD of the initial residuals; squared error uses the mean. A proposed
    step F + eta*h is accepted only if the training loss does not increase;
    otherwise eta is halved up to MAX_HALVINGS times and the loop stops if
    descent still fails (further rounds would propose the identical tree).
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.size == 0:
        raise BoostingError("targets must be nonempty")
    if not np.all(np.isfinite(y)):
        raise BoostingError("targets contain non-finite values")
    if X.ndim != 2 or X.shape[0] != y.size:
        raise BoostingError("features and targets must have matching lengths")
    if not np.all(np.isfinite(X)):
        raise BoostingError("features contain non-finite values")

    if loss.kind == SQUARED:
        f0 = float(np.mean(y))
        spec = loss
    else:
        f0 = float(np.median(y))
        spec = replace(loss, scale=mad_scale(y - f0))

    F = np.full(y.size, f0)
    r = y - F
    cur = loss_value(r, spec)
    trees, steps, trace = [], [], []

    order = _feature_order(X)
    leaves = np.empty(y.size, dtype=np.int64)
    for _ in range(config.n_rounds):
        _, w = gradient_and_weight(r, spec)
        tree = fit_tree(X, r, w, config, order=order, leaves=leaves)
        h = tree.value[leaves]
        eta = config.learning_rate
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            r_new = y - (F + eta * h)
            new = loss_value(r_new, spec)
            if new <= cur + DESCENT_RTOL * abs(cur):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        F = F + eta * h
        r = y - F
        cur = new
        trees.append(tree)
        steps.append(eta)
        trace.append(new)

    return BoostedEnsemble(
        base_prediction=f0,
        trees=trees,
        step_sizes=steps,
        loss_spec=spec,
        loss_trace=np.asarray(trace),
        config=config,
        n_features=X.shape[1],
    )


def fit_boosted_logistic(features, labels, config: BoostConfig) -> BoostedEnsemble:
    """Log-odds boosting for binary labels with squared-error trees on
    log-loss gradient residuals. Used for propensity estimation."""
    X = np.asarray(features, dtype=float)
    z = np.asarray(labels, dtype=float)
    if not np.all(np.isin(z, (0.0, 1.0))):
        raise BoostingError("labels must be binary")
    p0 = float(np.clip(np.mean(z), 1e-6, 1 - 1e-6))
    f0 = float(np.log(p0 / (1 - p0)))
    F = np.full(z.size, f0)
    trees, steps, trace = [], [], []
    order = _feature_order(X)
    leaves = np.empty(z.size, dtype=np.int64)
    for _ in range(config.n_rounds):
        p = 1.0 / (1.0 + np.exp(-F))
        resid = z - p
        tree = fit_tree(X, resid, np.ones_like(resid), config, order=order, leaves=leaves)
        F = F + config.learning_rate * tree.value[leaves]
        trees.append(tree)
        steps.append(config.learning_rate)
        p = np.clip(1.0 / (1.0 + np.exp(-F)), 1e-12, 1 - 1e-12)
        trace.append(float(-np.sum(z * np.log(p) + (1 - z) * np.log(1 - p))))
    return BoostedEnsemble(
        base_prediction=f0,
        trees=trees,
        step_sizes=steps,
        loss_spec=LossSpec(kind=SQUARED),
        loss_trace=np.asarray(trace),
        config=config,
        n_features=X.shape[1],
    )


def predict_proba(model: BoostedEnsemble, features, clip: float = 0.01) -> np.ndarray:
    """Sigmoid of the boosted log-odds, clipped away from 0 and 1."""
    logits = model.predict(features)
    return np.clip(1.0 / (1.0 + np.exp(-logits)), clip, 1.0 - clip)


def save_model(model: BoostedEnsemble, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "base_prediction": model.base_prediction,
        "step_sizes": list(map(float, model.step_sizes)),
        "loss_spec": asdict(model.loss_spec),
        "config": asdict(model.config),
        "n_features": model.n_features,
        "loss_trace": [float(v) for v in model.loss_trace],
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
            }
            for tree in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> BoostedEnsemble:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise BoostingError(f"{path}: malformed model file: {exc}") from None
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise BoostingError(
            f"{path}: unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})"
        )
    try:
        loss_doc = {**doc["loss_spec"]}
        # Older v1 files carry refresh_every, which only 0 (a fixed anchor) can mean now,
        # and a config seed that no fit ever read.
        refresh_every = loss_doc.pop("refresh_every", 0)
        config_doc = {**doc["config"]}
        config_doc.pop("seed", None)
    except (KeyError, TypeError) as exc:
        raise BoostingError(f"{path}: malformed model file: {exc}") from None
    if refresh_every != 0:
        raise BoostingError(
            f"{path}: refresh_every={refresh_every!r} is not supported; "
            "the scale anchor is fixed"
        )
    try:
        trees = [
            RegressionTree(
                feature=np.asarray(td["feature"], dtype=np.int64),
                threshold=np.asarray(td["threshold"], dtype=float),
                left=np.asarray(td["left"], dtype=np.int64),
                right=np.asarray(td["right"], dtype=np.int64),
                value=np.asarray(td["value"], dtype=float),
            )
            for td in doc["trees"]
        ]
        return BoostedEnsemble(
            base_prediction=float(doc["base_prediction"]),
            trees=trees,
            step_sizes=[float(v) for v in doc["step_sizes"]],
            loss_spec=LossSpec(**loss_doc),
            loss_trace=np.asarray(doc["loss_trace"], dtype=float),
            config=BoostConfig(**config_doc),
            n_features=int(doc["n_features"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError: an out-of-range LossSpec or BoostConfig field, or a non-numeric array.
        raise BoostingError(f"{path}: malformed model file: {exc}") from None
