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
    feature_index,
    fit_boosted,
    load_model,
    predict_proba,
    save_model,
)
from .datasets import CausalDataset, winsorize_outcomes
from .losses import GAMMA_WELSCH, SQUARED, HUBER, LOGISTIC, LossSpec, mad_scale

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

VARIANCE_FLOOR = 1e-16

MANIFEST_VERSION = 1
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
    var = mad_scale(resid) ** 2 / resid.size
    return max(var, VARIANCE_FLOOR)


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
    matrices, so every fit on an arm is passed its :func:`feature_index`. The
    propensity and dr_clipped's final model each fit the full matrix once.
    """
    cfg = spec.boost_config
    _check_arms(data, cfg)

    if spec.kind == KIND_WINSORIZED_X:
        data = winsorize_outcomes(data, 0.01, 0.99)

    treated, control = data.treated_idx, data.control_idx
    Xt, Xc = feature_index(data.features[treated]), feature_index(data.features[control])
    mu0 = fit_boosted(Xc, data.outcome[control], spec.loss, cfg)
    mu1 = fit_boosted(Xt, data.outcome[treated], spec.loss, cfg)

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
        fitted.final_model = fit_boosted(data.features, phi, spec.loss, cfg)
        return fitted

    d1, d0 = impute_pseudo_outcomes(mu0, mu1, data)
    fitted.tau1 = fit_boosted(Xt, d1, spec.loss, cfg)
    fitted.tau0 = fit_boosted(Xc, d0, spec.loss, cfg)
    fitted.arm_variance = (
        estimate_arm_variance(fitted.tau0, Xc, d0),
        estimate_arm_variance(fitted.tau1, Xt, d1),
    )
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

def save_meta(model: FittedCate, bundle_dir) -> None:
    """Persist a fitted meta-learner as a directory of model files + manifest."""
    os.makedirs(bundle_dir, exist_ok=True)
    parts = {"mu0": model.mu0, "mu1": model.mu1}
    for name in ("tau0", "tau1", "final_model", "propensity_model"):
        part = getattr(model, name)
        if part is not None:
            parts[name] = part
    for name, part in parts.items():
        save_model(part, os.path.join(bundle_dir, f"{name}.json"))
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "kind": model.kind,
        "parts": sorted(parts),
        "arm_variance": list(model.arm_variance),
        "propensity_constant": model.propensity_constant,
        "aggregation": {"kind": model.aggregation.kind, "g": model.aggregation.g},
    }
    with open(os.path.join(bundle_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def load_meta(bundle_dir) -> FittedCate:
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise ValueError(f"expected a JSON object, got {json.dumps(manifest)[:40]}")
        if manifest["manifest_version"] != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version {manifest['manifest_version']!r}")
        kind, parts = manifest["kind"], manifest["parts"]
        if kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {kind!r}")
        p_const = manifest["propensity_constant"]
        needed = {"mu0", "mu1", *STAGE3_PARTS.get(kind, ("tau0", "tau1"))}
        if p_const is None:
            needed.add("propensity_model")
        else:
            p_const = float(p_const)
        if not isinstance(parts, list) or sorted(map(str, parts)) != sorted(needed):
            raise ValueError(f"parts {parts!r} do not match a {kind} bundle with "
                             f"propensity_constant {p_const!r}: expected {sorted(needed)}")
        v0, v1 = (float(v) for v in manifest["arm_variance"])
        aggregation = AggregationScheme(**manifest["aggregation"])
    except OSError as exc:
        raise MetaLearnerError(f"{manifest_path}: cannot read manifest: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        cause = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise MetaLearnerError(f"{manifest_path}: malformed manifest: {cause}") from None
    loaded = {name: load_model(os.path.join(bundle_dir, f"{name}.json")) for name in sorted(needed)}
    return FittedCate(kind=kind, arm_variance=(v0, v1), propensity_constant=p_const,
                      aggregation=aggregation, **loaded)
