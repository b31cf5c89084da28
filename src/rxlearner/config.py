"""Declarative run configuration: YAML schema, validation, and preset lookup.

Configs are versioned and strict: unknown keys are rejected, and validation
collects every violation before raising.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional

import yaml

from .boosting import BoostConfig
from .datasets import (
    ContaminationSpec,
    ScenarioSpec,
    SemiSyntheticSpec,
)
from .losses import LossSpec
from .metalearners import (
    AggregationScheme,
    MetaLearnerSpec,
    dr_clipped_spec,
    huber_x_spec,
    mse_x_spec,
    rx_spec,
    t_spec,
    winsorized_x_spec,
)

CONFIG_VERSION = 1

KIND_SCENARIO = "scenario"
KIND_SEMI_SYNTHETIC = "semi_synthetic"
RUN_KINDS = (KIND_SCENARIO, KIND_SEMI_SYNTHETIC)


class ConfigError(ValueError):
    """Raised with every collected validation violation, newline separated."""


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


_CONTAMINATION_KEYS = _field_names(ContaminationSpec)
_SCENARIO_KEYS = _field_names(ScenarioSpec)
_SEMI_KEYS = _field_names(SemiSyntheticSpec)
_BOOST_KEYS = _field_names(BoostConfig)
_LEARNER_KEYS = {
    "name", "kind", "gamma", "delta_multiplier", "aggregation", "g", "boost",
    "propensity", "propensity_value",
}
_TOP_KEYS = {
    "version", "kind", "seed", "n_trials", "out_dir", "scenario", "semi_synthetic",
    "covariates_csv", "surrogate", "learners", "rates", "magnitudes",
    "curve_n", "curve_outliers",
}
_SURROGATE_KEYS = {"rows", "cols", "seed"}

_LEARNER_FACTORIES = {
    "rx": rx_spec,
    "mse_x": mse_x_spec,
    "huber_x": huber_x_spec,
    "winsorized_x": winsorized_x_spec,
    "dr_clipped": dr_clipped_spec,
    "t": t_spec,
}


@dataclass
class RunConfig:
    """Validated run document ready to execute."""

    kind: str
    seed: int
    n_trials: int
    out_dir: Optional[str]
    scenario: Optional[ScenarioSpec]
    semi_synthetic: Optional[SemiSyntheticSpec]
    covariates_csv: Optional[str]
    surrogate: Optional[dict]
    learners: Dict[str, MetaLearnerSpec]
    rates: List[float] = field(default_factory=list)
    magnitudes: List[float] = field(default_factory=list)
    curve_n: int = 200
    curve_outliers: int = 5


def _check_keys(doc: dict, allowed: set, where: str, errors: list):
    if not isinstance(doc, dict):
        errors.append(f"{where}: expected a mapping")
        return False
    unknown = sorted(set(doc) - allowed)
    if unknown:
        errors.append(f"{where}: unknown keys {unknown}")
    return True


def _build_boost(doc: dict, where: str, errors: list) -> BoostConfig:
    if not _check_keys(doc, _BOOST_KEYS, where, errors):
        return BoostConfig()
    try:
        return BoostConfig(**{k: v for k, v in doc.items() if k in _BOOST_KEYS})
    except Exception as exc:
        errors.append(f"{where}: {exc}")
        return BoostConfig()


def _build_learner(doc: dict, index: int, errors: list):
    where = f"learners[{index}]"
    if not _check_keys(doc, _LEARNER_KEYS, where, errors):
        return None
    kind = doc.get("kind")
    if kind not in _LEARNER_FACTORIES:
        errors.append(f"{where}.kind: unknown learner kind {kind!r}")
        return None
    boost = _build_boost(doc.get("boost", {}), f"{where}.boost", errors)
    try:
        if kind == "rx":
            spec = rx_spec(gamma=float(doc.get("gamma", 0.2)), boost_config=boost)
        else:
            spec = _LEARNER_FACTORIES[kind](boost_config=boost)
        updates = {}
        if kind != "rx" and "gamma" in doc:
            errors.append(f"{where}.gamma: only meaningful for the rx learner")
        if "delta_multiplier" in doc:
            updates["base_loss"] = LossSpec(
                kind=spec.base_loss.kind,
                gamma=spec.base_loss.gamma,
                delta_multiplier=float(doc["delta_multiplier"]),
            )
            updates["stage3_loss"] = updates["base_loss"]
        if "aggregation" in doc:
            updates["aggregation"] = AggregationScheme(
                kind=doc["aggregation"], g=float(doc.get("g", 0.5))
            )
        if "propensity" in doc:
            updates["propensity"] = doc["propensity"]
        if "propensity_value" in doc and doc["propensity_value"] is not None:
            updates["propensity_value"] = float(doc["propensity_value"])
        if updates:
            spec = replace(spec, **updates)
    except Exception as exc:
        errors.append(f"{where}: {exc}")
        return None
    name = doc.get("name", kind)
    return name, spec


def parse_config(doc: dict) -> RunConfig:
    """Validate a raw config mapping; raises ConfigError listing all violations."""
    errors: list = []
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(doc, _TOP_KEYS, "config", errors)

    if doc.get("version") != CONFIG_VERSION:
        errors.append(f"version: expected {CONFIG_VERSION}, got {doc.get('version')!r}")
    kind = doc.get("kind", KIND_SCENARIO)
    if kind not in RUN_KINDS:
        errors.append(f"kind: expected one of {RUN_KINDS}, got {kind!r}")

    scenario = None
    if "scenario" in doc:
        sdoc = dict(doc["scenario"]) if isinstance(doc["scenario"], dict) else {}
        if _check_keys(doc["scenario"], _SCENARIO_KEYS, "scenario", errors):
            cont = ContaminationSpec()
            if "contamination" in sdoc:
                if _check_keys(sdoc["contamination"], _CONTAMINATION_KEYS,
                               "scenario.contamination", errors):
                    try:
                        cont = ContaminationSpec(**sdoc["contamination"])
                    except Exception as exc:
                        errors.append(f"scenario.contamination: {exc}")
                sdoc.pop("contamination")
            try:
                scenario = ScenarioSpec(contamination=cont, **sdoc)
            except Exception as exc:
                errors.append(f"scenario: {exc}")

    semi = None
    if "semi_synthetic" in doc:
        if _check_keys(doc["semi_synthetic"], _SEMI_KEYS, "semi_synthetic", errors):
            try:
                semi = SemiSyntheticSpec(**doc["semi_synthetic"])
            except Exception as exc:
                errors.append(f"semi_synthetic: {exc}")

    surrogate = None
    if doc.get("surrogate") is not None:
        if _check_keys(doc["surrogate"], _SURROGATE_KEYS, "surrogate", errors):
            surrogate = {"seed": 0, **doc["surrogate"]}
            for k in ("rows", "cols"):
                if k not in surrogate:
                    errors.append(f"surrogate.{k}: required")

    learners: Dict[str, MetaLearnerSpec] = {}
    for i, ldoc in enumerate(doc.get("learners", []) or []):
        built = _build_learner(ldoc, i, errors)
        if built is not None:
            name, spec = built
            if name in learners:
                errors.append(f"learners[{i}].name: duplicate learner name {name!r}")
            learners[name] = spec

    n_trials = doc.get("n_trials", 1)
    if not isinstance(n_trials, int) or n_trials < 1:
        errors.append(f"n_trials: must be a positive integer, got {n_trials!r}")

    rates = [float(r) for r in doc.get("rates", []) or []]
    for r in rates:
        if not 0.0 <= r < 1.0:
            errors.append(f"rates: rate {r} outside [0, 1)")
    magnitudes = [float(m) for m in doc.get("magnitudes", []) or []]

    if errors:
        raise ConfigError("\n".join(errors))
    return RunConfig(
        kind=kind,
        seed=int(doc.get("seed", 0)),
        n_trials=n_trials,
        out_dir=doc.get("out_dir"),
        scenario=scenario,
        semi_synthetic=semi,
        covariates_csv=doc.get("covariates_csv"),
        surrogate=surrogate,
        learners=learners,
        rates=rates,
        magnitudes=magnitudes,
        curve_n=int(doc.get("curve_n", 200)),
        curve_outliers=int(doc.get("curve_outliers", 5)),
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    return parse_config(doc)


def preset_path(name: str) -> str:
    """Filesystem path of a shipped preset config (without the .yaml suffix)."""
    ref = importlib.resources.files("rxlearner").joinpath("presets", f"{name}.yaml")
    if not ref.is_file():
        raise ConfigError(f"unknown preset {name!r}")
    return str(ref)


def list_presets() -> List[str]:
    root = importlib.resources.files("rxlearner").joinpath("presets")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))
