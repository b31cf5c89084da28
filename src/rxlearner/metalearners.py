"""Meta-learner zoo: T-Learner, X-Learner variants, clipped DR-Learner, and
the robust X-Learner with inverse-variance aggregation."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .boosting import (
    PROPENSITY_CLIP,
    BoostConfig,
    BoostedEnsemble,
    FeatureIndex,
    _json_value,
    _model_doc,
    _model_from_doc,
    fit_boosted,
    predict_proba,
)
from .datasets import CausalDataset, winsorize_outcomes
from .losses import GAMMA_WELSCH, SQUARED, HUBER, LOGISTIC, LossSpec, _check_real, mad_scale

KIND_T = "t"
KIND_X = "x"
KIND_RX = "rx"
KIND_DR = "dr_clipped"
KIND_WINSORIZED_X = "winsorized_x"
LEARNER_KINDS = (KIND_T, KIND_X, KIND_RX, KIND_DR, KIND_WINSORIZED_X)

AGG_PROPENSITY = "propensity"
AGG_INVERSE_VARIANCE = "inverse_variance"
AGG_FIXED = "fixed"
AGG_KINDS = (AGG_PROPENSITY, AGG_INVERSE_VARIANCE, AGG_FIXED)

PROPENSITY_KNOWN = "known"
PROPENSITY_FITTED = "fitted"

BUNDLE_FORMAT_VERSION = 3
# bundle parts beside mu0/mu1 (and propensity_model when fitted); every X kind has tau0/tau1
STAGE3_PARTS = {KIND_T: (), KIND_DR: ("final_model",)}


class MetaLearnerError(ValueError):
    """Raised for invalid meta-learner specs or degenerate inputs."""


@dataclass(frozen=True)
class AggregationScheme:
    kind: str = AGG_INVERSE_VARIANCE
    g: float = 0.5

    def __post_init__(self):
        if self.kind not in AGG_KINDS:
            raise MetaLearnerError(f"unknown aggregation kind {self.kind!r}")
        _check_real("g", self.g, MetaLearnerError)
        if self.kind == AGG_FIXED and not 0.0 <= self.g <= 1.0:
            raise MetaLearnerError("fixed aggregation weight must lie in [0, 1]")


@dataclass(frozen=True)
class MetaLearnerSpec:
    kind: str = KIND_RX
    loss: LossSpec = field(default_factory=LossSpec)  # stage 1, stage 3 and dr's final model
    aggregation: AggregationScheme = field(default_factory=AggregationScheme)
    boost_config: BoostConfig = field(default_factory=BoostConfig)
    propensity: str = PROPENSITY_KNOWN
    propensity_value: Optional[float] = None  # None = observed treated fraction

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise MetaLearnerError(f"unknown learner kind {self.kind!r}")
        if self.loss.kind == LOGISTIC:
            raise MetaLearnerError(f"the {LOGISTIC!r} loss fits propensities, not outcome models")
        if self.kind == KIND_RX and self.loss.kind != GAMMA_WELSCH:
            raise MetaLearnerError("rx learner requires the gamma_welsch loss")
        if self.propensity not in (PROPENSITY_KNOWN, PROPENSITY_FITTED):
            raise MetaLearnerError(f"unknown propensity mode {self.propensity!r}")
        if self.propensity_value is not None:
            _check_real("propensity_value", self.propensity_value, MetaLearnerError)


#: Each learner a config can name: its spec kind, its loss kind and its aggregation.
LEARNERS = {
    "rx": (KIND_RX, GAMMA_WELSCH, AggregationScheme(AGG_INVERSE_VARIANCE)),
    "mse_x": (KIND_X, SQUARED, AggregationScheme(AGG_PROPENSITY)),
    "huber_x": (KIND_X, HUBER, AggregationScheme(AGG_PROPENSITY)),
    "winsorized_x": (KIND_WINSORIZED_X, SQUARED, AggregationScheme(AGG_PROPENSITY)),
    "dr_clipped": (KIND_DR, SQUARED, AggregationScheme(AGG_FIXED, g=1.0)),
    "t": (KIND_T, SQUARED, AggregationScheme(AGG_FIXED, g=0.5)),
}


def learner_spec(name: str, boost_config: BoostConfig = BoostConfig(), **loss) -> MetaLearnerSpec:
    """The spec of the learner ``name`` of :data:`LEARNERS`; ``loss`` sets LossSpec fields."""
    kind, loss_kind, aggregation = LEARNERS[name]
    return MetaLearnerSpec(kind=kind, loss=LossSpec(kind=loss_kind, **loss),
                           aggregation=aggregation, boost_config=boost_config)


def rx_spec(gamma: float = 0.2, boost_config: BoostConfig = BoostConfig()) -> MetaLearnerSpec:
    return learner_spec("rx", boost_config, gamma=gamma)


def mse_x_spec(boost_config: BoostConfig = BoostConfig()) -> MetaLearnerSpec:
    return learner_spec("mse_x", boost_config)


@dataclass
class FittedCate:
    """Fitted meta-learner: response models, CATE models, variances, propensity."""

    kind: str
    mu0: BoostedEnsemble
    mu1: BoostedEnsemble
    tau0: Optional[BoostedEnsemble] = None
    tau1: Optional[BoostedEnsemble] = None
    final_model: Optional[BoostedEnsemble] = None  # dr_clipped only
    arm_variance: tuple = (1.0, 1.0)
    propensity_constant: Optional[float] = None
    propensity_model: Optional[BoostedEnsemble] = None
    aggregation: AggregationScheme = field(default_factory=AggregationScheme)

    def propensity_at(self, X) -> np.ndarray:
        if self.propensity_model is not None:
            return predict_proba(self.propensity_model, X)
        if self.propensity_constant is None:
            raise MetaLearnerError("model has neither a propensity model nor a propensity constant")
        p = float(np.clip(self.propensity_constant, PROPENSITY_CLIP, 1 - PROPENSITY_CLIP))
        return np.full(np.asarray(X).shape[0], p)


def impute_pseudo_outcomes(mu0: BoostedEnsemble, mu1: BoostedEnsemble, data: CausalDataset):
    """Cross-imputed pseudo-outcomes: d1 = Y - mu0(X) on treated,
    d0 = mu1(X) - Y on control."""
    treated, control = data.treated_idx, data.control_idx
    if treated.size == 0 or control.size == 0:
        raise MetaLearnerError("both arms must be nonempty for imputation")
    d1 = data.outcome[treated] - mu0.predict(data.features[treated])
    d0 = mu1.predict(data.features[control]) - data.outcome[control]
    return d1, d0


def fit_propensity(data: CausalDataset, spec: MetaLearnerSpec):
    """Constant propensity (known randomization) or a boosted logistic fit.

    Returns (constant, model); exactly one of the pair is set.
    """
    if spec.propensity == PROPENSITY_KNOWN:
        if spec.propensity_value is not None:
            return float(spec.propensity_value), None
        if data.true_propensity is not None:
            return float(data.true_propensity), None
        return float(np.mean(data.treatment)), None
    model = fit_boosted(data.features, data.treatment.astype(float), LossSpec(kind=LOGISTIC),
                        spec.boost_config)
    return None, model


def estimate_arm_variance(tau_model: BoostedEnsemble, features, pseudo_outcomes) -> float:
    """Precision proxy: squared MAD scale of stage-3 residuals over arm size."""
    resid = np.asarray(pseudo_outcomes, dtype=float) - tau_model.predict(features)
    return mad_scale(resid) ** 2 / resid.size


def _named(part, fit, *args):
    """fit(*args), its ValueError (a collapsed scale, say) raised again naming ``part``."""
    try:
        return fit(*args)
    except ValueError as exc:
        raise MetaLearnerError(f"{part}: {exc}") from exc


def _check_arms(data: CausalDataset, config: BoostConfig):
    for name, idx in (("treated", data.treated_idx), ("control", data.control_idx)):
        if idx.size == 0:
            raise MetaLearnerError(f"{name} arm is empty")
        if idx.size < config.min_samples_leaf:
            raise MetaLearnerError(
                f"{name} arm has only {idx.size} units "
                f"(min_samples_leaf = {config.min_samples_leaf})"
            )


def fit_meta(data: CausalDataset, spec: MetaLearnerSpec) -> FittedCate:
    """Fit a meta-learner end to end on one dataset.

    Each arm's matrix is sorted once: stage 1 and stage 3 fit on the same arm
    matrices, so every fit on an arm is passed its :class:`FeatureIndex`. The
    propensity and dr_clipped's final model each fit the full matrix once.
    """
    cfg = spec.boost_config
    _check_arms(data, cfg)

    if spec.kind == KIND_WINSORIZED_X:
        data = winsorize_outcomes(data, 0.01, 0.99)

    treated, control = data.treated_idx, data.control_idx
    Xt, Xc = FeatureIndex(data.features[treated]), FeatureIndex(data.features[control])
    mu0 = _named("mu0 (control arm)", fit_boosted, Xc, data.outcome[control], spec.loss, cfg)
    mu1 = _named("mu1 (treated arm)", fit_boosted, Xt, data.outcome[treated], spec.loss, cfg)

    p_const, p_model = fit_propensity(data, spec)
    fitted = FittedCate(
        kind=spec.kind, mu0=mu0, mu1=mu1,
        propensity_constant=p_const, propensity_model=p_model,
        aggregation=spec.aggregation,
    )

    if spec.kind == KIND_T:
        return fitted

    if spec.kind == KIND_DR:
        pi = fitted.propensity_at(data.features)
        w = data.treatment.astype(float)
        m1, m0 = mu1.predict(data.features), mu0.predict(data.features)
        mu_w = np.where(w == 1, m1, m0)
        phi = m1 - m0 + (w - pi) / (pi * (1.0 - pi)) * (data.outcome - mu_w)
        fitted.final_model = _named("final_model (both arms)", fit_boosted, data.features, phi,
                                    spec.loss, cfg)
        return fitted

    d1, d0 = impute_pseudo_outcomes(mu0, mu1, data)
    fitted.tau1 = _named("tau1 (treated arm)", fit_boosted, Xt, d1, spec.loss, cfg)
    fitted.tau0 = _named("tau0 (control arm)", fit_boosted, Xc, d0, spec.loss, cfg)
    if spec.aggregation.kind == AGG_INVERSE_VARIANCE:  # the one aggregation that reads them
        fitted.arm_variance = (
            _named("tau0 (control arm) variance", estimate_arm_variance, fitted.tau0, Xc, d0),
            _named("tau1 (treated arm) variance", estimate_arm_variance, fitted.tau1, Xt, d1))
    return fitted


def aggregation_weights(model: FittedCate, X) -> np.ndarray:
    """Per-unit weight g on tau0 (weight on tau1 is 1 - g)."""
    n = np.asarray(X).shape[0]
    agg = model.aggregation
    if agg.kind == AGG_FIXED:
        return np.full(n, agg.g)
    if agg.kind == AGG_PROPENSITY:
        return model.propensity_at(X)
    v0, v1 = model.arm_variance
    return np.full(n, (1.0 / v0) / (1.0 / v0 + 1.0 / v1))


def predict_cate(model: FittedCate, features) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    if model.kind == KIND_T:
        return model.mu1.predict(X) - model.mu0.predict(X)
    if model.kind == KIND_DR:
        return model.final_model.predict(X)
    g = aggregation_weights(model, X)
    return g * model.tau0.predict(X) + (1.0 - g) * model.tau1.predict(X)


# --- bundle serialization ----------------------------------------------------

def save_meta(model: FittedCate, path) -> None:
    """Persist a fitted meta-learner as one JSON file, creating missing parent directories.

    The whole text is built first, written beside ``path`` and moved onto it by
    ``os.replace``, so a failed save leaves the previous file whole.
    """
    text = json.dumps({
        "format_version": BUNDLE_FORMAT_VERSION,
        "kind": model.kind,
        "arm_variance": model.arm_variance,
        "propensity_constant": model.propensity_constant,
        "aggregation": {"kind": model.aggregation.kind, "g": model.aggregation.g},
        "parts": {name: _model_doc(value) for name, value in vars(model).items()
                  if isinstance(value, BoostedEnsemble)},
    }, default=_json_value)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_meta(path) -> FittedCate:
    """Read a :func:`save_meta` file. Any flaw in it raises MetaLearnerError naming the
    path and, where it lies in a part, the part and the tree."""
    where = ""  # names the part being read, if any
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {json.dumps(doc)[:40]}")
        if doc["format_version"] != BUNDLE_FORMAT_VERSION:
            raise ValueError(f"unsupported format version {doc['format_version']!r} "
                             f"(expected {BUNDLE_FORMAT_VERSION})")
        kind, parts = doc["kind"], doc["parts"]
        if kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {kind!r}")
        p_const = doc["propensity_constant"]
        needed = {"mu0", "mu1", *STAGE3_PARTS.get(kind, ("tau0", "tau1"))}
        if p_const is None:
            needed.add("propensity_model")
        else:
            _check_real("propensity_constant", p_const, ValueError)
            p_const = float(p_const)
        got = sorted(parts) if isinstance(parts, dict) else f"of type {type(parts).__name__}"
        if got != sorted(needed):
            raise ValueError(f"parts {got} do not match a {kind} bundle with "
                             f"propensity_constant {p_const!r}: expected {sorted(needed)}")
        v0, v1 = doc["arm_variance"]
        for k, v in enumerate((v0, v1)):
            _check_real(f"arm_variance[{k}]", v, ValueError)
            if v <= 0:  # aggregation divides by it
                raise ValueError(f"arm_variance[{k}] must be > 0, got {v!r}")
        aggregation = AggregationScheme(**doc["aggregation"])
        loaded = {}
        for name in sorted(needed):
            where = f"part {name}: "
            loaded[name] = _model_from_doc(parts[name])
    except OSError as exc:
        raise MetaLearnerError(f"{path}: cannot read bundle: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        cause = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise MetaLearnerError(f"{path}: malformed bundle: {where}{cause}") from None
    return FittedCate(kind=kind, arm_variance=(float(v0), float(v1)), propensity_constant=p_const,
                      aggregation=aggregation, **loaded)
