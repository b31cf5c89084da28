"""Declarative run configuration: YAML schema, validation, and preset lookup.

Configs are versioned and strict: unknown keys are rejected, and validation
collects every violation before raising.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Dict, List, Optional

from .boosting import BoostConfig
from .datasets import ScenarioSpec, SemiSyntheticSpec
from .losses import GAMMA_WELSCH, HUBER
from .metalearners import (
    AGG_FIXED,
    LEARNERS,
    STAGE3_PARTS,
    AggregationScheme,
    MetaLearnerSpec,
    learner_spec,
)

CONFIG_VERSION = 1

KIND_SCENARIO = "scenario"
KIND_SEMI_SYNTHETIC = "semi_synthetic"
RUN_KINDS = (KIND_SCENARIO, KIND_SEMI_SYNTHETIC)


class ConfigError(ValueError):
    """Raised with every collected validation violation, newline separated."""


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


@dataclass
class RunConfig:
    """Validated run document ready to execute; ``seed`` is its one draw seed."""

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

    def with_seed(self, seed: int) -> "RunConfig":
        """The same run drawn at ``seed`` instead."""
        if not _is_int(seed) or seed < 0:
            raise ConfigError(f"seed: must be an integer >= 0, got {seed!r}")
        blocks = {name: replace(block, seed=seed) for name in ("scenario", "semi_synthetic")
                  if (block := getattr(self, name)) is not None}
        return replace(self, seed=seed, **blocks)


def _check_keys(doc: dict, allowed: set, where: str, errors: list):
    if not isinstance(doc, dict):
        errors.append(f"{where}: expected a mapping")
        return False
    unknown = sorted(set(doc) - allowed)
    if unknown:
        errors.append(f"{where}: unknown keys {unknown}")
    return True


def _build_spec(cls, doc, where: str, errors: list, **fixed):
    """Build the dataclass ``cls`` from the mapping ``doc``, whose keys are the
    fields of ``cls`` not given in ``fixed``. A field whose default is a nested
    spec is built the same way. Violations go to ``errors``; returns None if
    ``cls`` cannot be built."""
    if not _check_keys(doc, {f.name for f in fields(cls)} - set(fixed), where, errors):
        return None
    kwargs = {}
    for f in fields(cls):
        if f.name in doc:
            value = doc[f.name]
            if is_dataclass(f.default_factory):
                value = _build_spec(f.default_factory, value, f"{where}.{f.name}", errors)
                if value is None:
                    continue
            kwargs[f.name] = value
    try:
        return cls(**{**kwargs, **fixed})
    except (TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
        return None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_value(doc: dict, key: str, default: int, errors: list, minimum=None) -> int:
    value = doc.get(key, default)
    if not _is_int(value) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        errors.append(f"{key}: must be an integer{bound}, got {value!r}")
        return default
    return value


def _list_value(doc: dict, key: str, errors: list) -> list:
    """The list under ``key`` ([] when absent or null); anything else is a violation."""
    value = doc.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        errors.append(f"{key}: expected a list, got {value!r}")
        return []
    return value


def _float_list(doc: dict, key: str, errors: list) -> List[float]:
    out = []
    for value in _list_value(doc, key, errors):
        try:
            out.append(float(value))
        except (TypeError, ValueError):
            errors.append(f"{key}: expected a number, got {value!r}")
    return out


def _build_learner(doc: dict, index: int, errors: list):
    where = f"learners[{index}]"
    if not _check_keys(doc, _LEARNER_KEYS, where, errors):
        return None
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in LEARNERS:
        errors.append(f"{where}.kind: unknown learner kind {kind!r}")
        return None
    spec_kind, loss_kind, _ = LEARNERS[kind]
    for key, read, unless in (
        ("gamma", loss_kind == GAMMA_WELSCH, ""),
        ("delta_multiplier", loss_kind == HUBER, ""),
        ("aggregation", spec_kind not in STAGE3_PARTS, ""),  # read by the X kinds only
        ("g", doc.get("aggregation") == AGG_FIXED, " without aggregation: fixed"),
    ):
        if key in doc and not read:
            errors.append(f"{where}.{key}: not read by the {kind} learner{unless}")
    boost = (_build_spec(BoostConfig, doc.get("boost", {}), f"{where}.boost", errors)
             or BoostConfig())
    try:
        loss = {key: doc[key] for key in ("gamma", "delta_multiplier") if key in doc}
        spec = learner_spec(kind, boost, **loss)
        updates = {key: doc[key] for key in ("propensity", "propensity_value") if key in doc}
        if "aggregation" in doc:
            updates["aggregation"] = AggregationScheme(doc["aggregation"], doc.get("g", 0.5))
        spec = replace(spec, **updates)
    except (TypeError, ValueError) as exc:
        errors.append(f"{where}: {exc}")
        return None
    name = doc.get("name", kind)
    if not isinstance(name, str):
        errors.append(f"{where}.name: expected a string, got {name!r}")
        return None
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
    seed = _int_value(doc, "seed", 0, errors, minimum=0)

    scenario = semi = None
    if "scenario" in doc:
        scenario = _build_spec(ScenarioSpec, doc["scenario"], "scenario", errors, seed=seed)
    if "semi_synthetic" in doc:
        semi = _build_spec(SemiSyntheticSpec, doc["semi_synthetic"], "semi_synthetic", errors,
                           seed=seed)

    surrogate = None
    if doc.get("surrogate") is not None:
        if _check_keys(doc["surrogate"], _SURROGATE_KEYS, "surrogate", errors):
            surrogate = {"seed": 0, **doc["surrogate"]}
            for k, low in (("rows", 1), ("cols", 1), ("seed", 0)):
                if k not in surrogate:
                    errors.append(f"surrogate.{k}: required")
                elif not _is_int(surrogate[k]) or surrogate[k] < low:
                    errors.append(f"surrogate.{k}: must be an integer >= {low}, "
                                  f"got {surrogate[k]!r}")

    learners: Dict[str, MetaLearnerSpec] = {}
    for i, ldoc in enumerate(_list_value(doc, "learners", errors)):
        built = _build_learner(ldoc, i, errors)
        if built is not None:
            name, spec = built
            if name in learners:
                errors.append(f"learners[{i}].name: duplicate learner name {name!r}")
            learners[name] = spec

    n_trials = _int_value(doc, "n_trials", 1, errors, minimum=1)
    curve_n = _int_value(doc, "curve_n", 200, errors)
    curve_outliers = _int_value(doc, "curve_outliers", 5, errors)

    rates = _float_list(doc, "rates", errors)
    for r in rates:
        if not 0.0 <= r < 1.0:
            errors.append(f"rates: rate {r} outside [0, 1)")
    magnitudes = _float_list(doc, "magnitudes", errors)

    if errors:
        raise ConfigError("\n".join(errors))
    return RunConfig(
        kind=kind,
        seed=seed,
        n_trials=n_trials,
        out_dir=doc.get("out_dir"),
        scenario=scenario,
        semi_synthetic=semi,
        covariates_csv=doc.get("covariates_csv"),
        surrogate=surrogate,
        learners=learners,
        rates=rates,
        magnitudes=magnitudes,
        curve_n=curve_n,
        curve_outliers=curve_outliers,
    )


def load_config(path) -> RunConfig:
    import yaml  # only reading a config file needs it, not importing the package

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
