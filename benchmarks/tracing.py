"""Span recording around rxlearner's public functions, and the per-layer metrics
derived from the spans.

The program is measured from outside: each public function (and public method
of a public class) of the layer modules is replaced by a wrapper in every
rxlearner module that looks the name up, so intra-package calls such as
``metalearners.fit_boosted`` or ``boosting.loss_value`` are seen too. A span is
(id, parent id, name, start, end) plus a few attributes read from arguments or
results. Spans stay in memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

#: Layer modules of the package, in dependency order.
LAYERS = ("datasets", "losses", "boosting", "metalearners", "evaluation", "config", "cli")

#: What an untraced run wraps: only the call the end-to-end metrics and the
#: correctness checks read (predict time and the predictions themselves).
BOUNDARY = ("metalearners.predict_cate",)

FIT_META = "metalearners.fit_meta"
FIT_BOOSTED = "boosting.fit_boosted"
PREDICT_CATE = "metalearners.predict_cate"
#: A fit_boosted call inside fit_meta is stage 1 until one of these starts.
STAGE1_ENDS = ("metalearners.fit_propensity", "metalearners.impute_pseudo_outcomes")


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "attrs")

    def __init__(self, span_id, parent, name, t0):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.attrs = {}

    def to_json(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if not isinstance(v, np.ndarray)}
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.t0, "end": self.t1, **attrs}


def public_callables(package):
    """Yield (span name, owner, attribute, function) for every public function of
    each layer module and every public method of the classes defined there."""
    for layer in LAYERS:
        module = sys.modules.get(f"{package.__name__}.{layer}")
        if module is None:
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", module, attr, obj
            elif inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield f"{layer}.{obj.__name__}.{meth}", obj, meth, fn


class Tracer:
    """Installs wrappers, records spans, and removes the wrappers again."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def open(self, name) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def enclosing(self, name):
        for span in reversed(self._stack):
            if span.name == name:
                return span
        return None

    # -- patching ------------------------------------------------------------

    def install(self, names=None) -> None:
        """Wrap the named callables (all public ones when names is None); names
        that no longer exist in the package are skipped."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        found = {name: rest for name, *rest in public_callables(self.package)}
        wanted = list(found) if names is None else list(names)
        modules = [m for n, m in sys.modules.items()
                   if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")]
        for name in wanted:
            if name not in found:
                continue
            owner, attr, fn = found[name]
            wrapper = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._undo.append((module, key, fn))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _wrap(self, name, fn):
        tracer = self
        on_start, on_end = _HOOKS.get(name, (None, None))
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            if on_start is not None:
                on_start(tracer, span, _bind(signature, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_end is not None:
                on_end(span, result)
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def _bind(signature, args, kwargs) -> dict:
    try:
        return signature.bind(*args, **kwargs).arguments
    except TypeError:
        return {}


# -- attributes read at span boundaries ---------------------------------------

def _rows(key):
    def start(tracer, span, bound):
        if key in bound:
            span.attrs["rows"] = int(np.shape(bound[key])[0])
    return start


def _fit_boosted_start(tracer, span, bound):
    meta = tracer.enclosing(FIT_META)
    if meta is None:
        return
    span.attrs["stage"] = 3 if meta.attrs.get("past_stage1") else 1
    if span.attrs["stage"] == 1 and {"features", "targets", "loss", "config"} <= set(bound):
        X = np.ascontiguousarray(bound["features"], dtype=float)
        y = np.ascontiguousarray(bound["targets"], dtype=float)
        digest = hashlib.sha256()
        for part in (str(X.shape).encode(), X.tobytes(), y.tobytes(),
                     repr(bound["loss"]).encode(), repr(bound["config"]).encode()):
            digest.update(part)
        span.attrs["fit_key"] = digest.hexdigest()


def _fit_boosted_end(span, result):
    span.attrs["rounds_run"] = len(result.trees)
    span.attrs["rounds_requested"] = int(result.config.n_rounds)


def _stage1_ends(tracer, span, bound):
    meta = tracer.enclosing(FIT_META)
    if meta is not None:
        meta.attrs["past_stage1"] = True


def _keep_output(span, result):
    span.attrs["output"] = np.asarray(result)


_HOOKS = {
    "boosting.fit_tree": (None, lambda span, tree: span.attrs.update(nodes=int(tree.feature.size))),
    FIT_BOOSTED: (_fit_boosted_start, _fit_boosted_end),
    "boosting.RegressionTree.predict": (_rows("X"), None),
    PREDICT_CATE: (_rows("features"), _keep_output),
    "datasets.load_dataset_csv": (None, lambda span, data: span.attrs.update(rows=data.n_units)),
    **{name: (_stage1_ends, None) for name in STAGE1_ENDS},
}


# -- statistics over one scope's spans ----------------------------------------

class SpanStats:
    """Counts and times over the spans of one set-up or one pass."""

    def __init__(self, spans):
        self.by_id = {s.id: s for s in spans}
        self.by_name = defaultdict(list)
        self.child_time = defaultdict(float)
        for s in spans:
            self.by_name[s.name].append(s)
            if s.parent in self.by_id:
                self.child_time[s.parent] += s.t1 - s.t0

    def of(self, *names):
        return [s for n in names for s in self.by_name.get(n, ())]

    def calls(self, *names) -> int:
        return len(self.of(*names))

    def seconds(self, *names) -> float:
        """Wall time covered by the named spans, counting nested ones once."""
        group = set(names)
        total = 0.0
        for s in self.of(*names):
            p = self.by_id.get(s.parent)
            while p is not None and p.name not in group:
                p = self.by_id.get(p.parent)
            if p is None:
                total += s.t1 - s.t0
        return total

    def self_seconds(self, name) -> float:
        return sum(s.t1 - s.t0 - self.child_time[s.id] for s in self.of(name))

    def attr_sum(self, name, key) -> float:
        return sum(s.attrs.get(key, 0) for s in self.of(name))

    def stage(self, number):
        return [s for s in self.of(FIT_BOOSTED) if s.attrs.get("stage") == number]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _evals_per_step(st: SpanStats) -> float:
    fits = st.of(FIT_BOOSTED)
    fit_ids = {s.id for s in fits}
    evals = sum(1 for s in st.of("losses.loss_value") if s.parent in fit_ids)
    # each fit evaluates its initial loss once before the first round
    return _ratio(evals - len(fits), st.attr_sum(FIT_BOOSTED, "rounds_run"))


def _unique_ratio(st: SpanStats) -> float:
    fits = st.stage(1)
    return _ratio(len({s.attrs.get("fit_key", s.id) for s in fits}), len(fits))


def _s(*names):
    return lambda st: st.seconds(*names)


def _calls(*names):
    return lambda st: st.calls(*names)


TREE_PREDICT = "boosting.RegressionTree.predict"
GENERATORS = ("datasets.generate_synthetic", "datasets.apply_semi_synthetic_dgp",
              "datasets.generate_surrogate_covariates")
SCORERS = ("evaluation.pehe", "evaluation.core_pehe", "evaluation.ate_bias")

# name -> (unit, better, scope, span names it needs, value from SpanStats).
# Scope "setup" reads the traced set-up; "pass" reads each traced timed pass.
LAYER_METRICS = {
    "boosting.fit_tree.calls": ("count", "lower", "pass", ["boosting.fit_tree"], _calls("boosting.fit_tree")),
    "boosting.fit_tree.s": ("s", "lower", "pass", ["boosting.fit_tree"], _s("boosting.fit_tree")),
    "boosting.fit_tree.ms_per_call": ("ms", "lower", "pass", ["boosting.fit_tree"],
                                      lambda st: 1e3 * _ratio(st.seconds("boosting.fit_tree"),
                                                              st.calls("boosting.fit_tree"))),
    "boosting.tree_nodes": ("count", "lower", "pass", ["boosting.fit_tree"],
                            lambda st: st.attr_sum("boosting.fit_tree", "nodes")),
    "boosting.fit_boosted.calls": ("count", "lower", "pass", [FIT_BOOSTED], _calls(FIT_BOOSTED)),
    "boosting.fit_boosted.s": ("s", "lower", "pass", [FIT_BOOSTED], _s(FIT_BOOSTED)),
    "boosting.fit_boosted.self_s": ("s", "lower", "pass", [FIT_BOOSTED],
                                    lambda st: st.self_seconds(FIT_BOOSTED)),
    "boosting.rounds_run": ("count", "higher", "pass", [FIT_BOOSTED],
                            lambda st: st.attr_sum(FIT_BOOSTED, "rounds_run")),
    "boosting.rounds_requested": ("count", "lower", "pass", [FIT_BOOSTED],
                                  lambda st: st.attr_sum(FIT_BOOSTED, "rounds_requested")),
    "boosting.s_per_round": ("s", "lower", "pass", [FIT_BOOSTED],
                             lambda st: _ratio(st.seconds(FIT_BOOSTED),
                                               st.attr_sum(FIT_BOOSTED, "rounds_run"))),
    "boosting.tree_predict.calls": ("count", "lower", "pass", [TREE_PREDICT], _calls(TREE_PREDICT)),
    "boosting.tree_predict.s": ("s", "lower", "pass", [TREE_PREDICT], _s(TREE_PREDICT)),
    "boosting.tree_predict.rows_per_s": ("rows/s", "higher", "pass", [TREE_PREDICT],
                                         lambda st: _ratio(st.attr_sum(TREE_PREDICT, "rows"),
                                                           st.seconds(TREE_PREDICT))),
    "boosting.ensemble_predict.s": ("s", "lower", "pass", ["boosting.BoostedEnsemble.predict"],
                                    _s("boosting.BoostedEnsemble.predict")),
    "losses.loss_value.calls": ("count", "lower", "pass", ["losses.loss_value"], _calls("losses.loss_value")),
    "losses.loss_value.s": ("s", "lower", "pass", ["losses.loss_value"], _s("losses.loss_value")),
    "losses.gradient_and_weight.calls": ("count", "lower", "pass", ["losses.gradient_and_weight"],
                                         _calls("losses.gradient_and_weight")),
    "losses.gradient_and_weight.s": ("s", "lower", "pass", ["losses.gradient_and_weight"],
                                     _s("losses.gradient_and_weight")),
    "losses.mad_scale.calls": ("count", "lower", "pass", ["losses.mad_scale"], _calls("losses.mad_scale")),
    "losses.mad_scale.s": ("s", "lower", "pass", ["losses.mad_scale"], _s("losses.mad_scale")),
    "losses.evals_per_accepted_step": ("ratio", "lower", "pass", ["losses.loss_value", FIT_BOOSTED],
                                       _evals_per_step),
    "metalearners.fit_meta.calls": ("count", "lower", "pass", [FIT_META], _calls(FIT_META)),
    "metalearners.fit_meta.s": ("s", "lower", "pass", [FIT_META], _s(FIT_META)),
    "metalearners.stage1.s": ("s", "lower", "pass", [FIT_META, FIT_BOOSTED, *STAGE1_ENDS],
                              lambda st: sum(s.t1 - s.t0 for s in st.stage(1))),
    "metalearners.stage1.fits": ("count", "lower", "pass", [FIT_META, FIT_BOOSTED, *STAGE1_ENDS],
                                 lambda st: len(st.stage(1))),
    "metalearners.stage1_unique_ratio": ("ratio", "higher", "pass", [FIT_META, FIT_BOOSTED, *STAGE1_ENDS],
                                         _unique_ratio),
    "metalearners.propensity.s": ("s", "lower", "pass", ["metalearners.fit_propensity"],
                                  _s("metalearners.fit_propensity")),
    "metalearners.impute.s": ("s", "lower", "pass", ["metalearners.impute_pseudo_outcomes"],
                              _s("metalearners.impute_pseudo_outcomes")),
    "metalearners.stage3.s": ("s", "lower", "pass", [FIT_META, FIT_BOOSTED, *STAGE1_ENDS],
                              lambda st: sum(s.t1 - s.t0 for s in st.stage(3))),
    "metalearners.aggregate.s": ("s", "lower", "pass", ["metalearners.aggregation_weights"],
                                 _s("metalearners.aggregation_weights")),
    "metalearners.predict_cate.s": ("s", "lower", "pass", [PREDICT_CATE], _s(PREDICT_CATE)),
    "metalearners.predict_cate.rows_per_s": ("rows/s", "higher", "pass", [PREDICT_CATE],
                                             lambda st: _ratio(st.attr_sum(PREDICT_CATE, "rows"),
                                                               st.seconds(PREDICT_CATE))),
    "metalearners.bundle_load.s": ("s", "lower", "pass", ["metalearners.load_meta"],
                                   _s("metalearners.load_meta")),
    "metalearners.bundle_save.s": ("s", "lower", "setup", ["metalearners.save_meta"],
                                   _s("metalearners.save_meta")),
    "datasets.csv_load.s": ("s", "lower", "pass", ["datasets.load_dataset_csv"],
                            _s("datasets.load_dataset_csv")),
    "datasets.csv_load.rows_per_s": ("rows/s", "higher", "pass", ["datasets.load_dataset_csv"],
                                     lambda st: _ratio(st.attr_sum("datasets.load_dataset_csv", "rows"),
                                                       st.seconds("datasets.load_dataset_csv"))),
    "datasets.csv_save.s": ("s", "lower", "setup", ["datasets.save_dataset_csv"],
                            _s("datasets.save_dataset_csv")),
    "datasets.generate.s": ("s", "lower", "setup", list(GENERATORS), _s(*GENERATORS)),
    "datasets.subset.s": ("s", "lower", "pass", ["datasets.CausalDataset.subset"],
                          _s("datasets.CausalDataset.subset")),
    "evaluation.trial.self_s": ("s", "lower", "pass", ["evaluation.evaluate_learners_on"],
                                lambda st: st.self_seconds("evaluation.evaluate_learners_on")),
    "evaluation.split.s": ("s", "lower", "pass", ["evaluation.stratified_split"],
                           _s("evaluation.stratified_split")),
    "evaluation.score.s": ("s", "lower", "pass", list(SCORERS), _s(*SCORERS)),
    "config.load.s": ("s", "lower", "setup", ["config.load_config"], _s("config.load_config")),
    "cli.predict.self_s": ("s", "lower", "pass", ["cli.cmd_predict"],
                           lambda st: st.self_seconds("cli.cmd_predict")),
}


def layer_metrics(setup_spans, pass_spans_list, installed):
    """Per-layer values (median over traced passes) and the names not measurable.

    A metric is unmeasured when a span it needs has no function left to wrap.
    """
    setup = SpanStats(setup_spans)
    passes = [SpanStats(spans) for spans in pass_spans_list]
    values, unmeasured = {}, []
    for name, (unit, _better, scope, needs, fn) in LAYER_METRICS.items():
        if not set(needs) <= installed:
            unmeasured.append(name)
        elif scope == "setup":
            values[name] = (float(fn(setup)), unit)
        else:
            values[name] = (float(statistics.median(fn(st) for st in passes)), unit)
    return values, unmeasured
