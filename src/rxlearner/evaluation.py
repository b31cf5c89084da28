"""Metrics (PEHE, Core-PEHE, ATE bias, smearing shift) and experiment runners."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .datasets import (
    CausalDataset,
    ScenarioSpec,
    SemiSyntheticSpec,
    apply_semi_synthetic_dgp,
    generate_synthetic,
    inject_outlier,
    save_table_csv,
)
from .boosting import BoostedEnsemble
from .metalearners import MetaLearnerSpec, fit_meta, predict_cate


class EvaluationError(ValueError):
    """Raised for invalid metric inputs."""


def pehe(predicted, true_cate) -> float:
    """Root-mean-squared CATE error."""
    p = np.asarray(predicted, dtype=float)
    t = np.asarray(true_cate, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise EvaluationError("predicted and true_cate must be nonempty and equal length")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def core_pehe(predicted, true_cate, outlier_mask) -> float:
    """PEHE restricted to units not generated by the tail component."""
    m = np.asarray(outlier_mask)
    core = m == 0
    if not np.any(core):
        raise EvaluationError("all units are masked as outliers; Core-PEHE undefined")
    return pehe(np.asarray(predicted)[core], np.asarray(true_cate)[core])


def ate_bias(predicted, true_cate) -> float:
    """|mean(predicted) - mean(true)|."""
    p = np.asarray(predicted, dtype=float)
    t = np.asarray(true_cate, dtype=float)
    if p.shape != t.shape:
        raise EvaluationError("predicted and true_cate must have equal length")
    return float(abs(np.mean(p) - np.mean(t)))


@dataclass
class TrialRow:
    seed: int
    learner: str
    pehe: Optional[float] = None
    core_pehe: Optional[float] = None
    ate_bias: Optional[float] = None
    error: Optional[str] = None


@dataclass
class EvalReport:
    """Per-trial metric rows plus per-learner mean/sd aggregates (ddof=1)."""

    per_trial: List[TrialRow]
    aggregated: Dict[str, Dict[str, float]]
    degenerate_sd: bool = False

    @staticmethod
    def from_trials(rows: List[TrialRow]) -> "EvalReport":
        learners = sorted({r.learner for r in rows})
        agg: Dict[str, Dict[str, float]] = {}
        degenerate = False
        for name in learners:
            vals = [r for r in rows if r.learner == name and r.error is None]
            entry: Dict[str, float] = {}
            for metric in ("pehe", "core_pehe", "ate_bias"):
                xs = [getattr(r, metric) for r in vals if getattr(r, metric) is not None]
                if not xs:
                    continue
                entry[f"{metric}_mean"] = float(np.mean(xs))
                if len(xs) > 1:
                    entry[f"{metric}_sd"] = float(np.std(xs, ddof=1))
                else:
                    entry[f"{metric}_sd"] = 0.0
                    degenerate = True
            entry["n_ok"] = float(len(vals))
            agg[name] = entry
        return EvalReport(per_trial=rows, aggregated=agg, degenerate_sd=degenerate)


def stratified_split(data: CausalDataset, seed: int):
    """50/50 fit/eval split, stratified by treatment arm."""
    rng = np.random.default_rng(seed)
    fit_idx, eval_idx = [], []
    for arm in (data.treated_idx, data.control_idx):
        perm = rng.permutation(arm)
        half = max(1, perm.size // 2)
        fit_idx.append(perm[:half])
        eval_idx.append(perm[half:] if perm.size > 1 else perm[:half])
    fit_idx = np.sort(np.concatenate(fit_idx))
    eval_idx = np.sort(np.concatenate(eval_idx))
    return data.subset(fit_idx), data.subset(eval_idx)


def evaluate_learners_on(
    data: CausalDataset,
    learners: Dict[str, MetaLearnerSpec],
    seed: int,
) -> List[TrialRow]:
    """Fit every learner on the fit half and score on the eval half.

    A learner failure is recorded in its row, never fatal to the trial.
    """
    fit_half, eval_half = stratified_split(data, seed)
    rows = []
    for name, spec in learners.items():
        row = TrialRow(seed=seed, learner=name)
        try:
            model = fit_meta(fit_half, spec)
            pred = predict_cate(model, eval_half.features)
            row.pehe = pehe(pred, eval_half.true_cate)
            row.ate_bias = ate_bias(pred, eval_half.true_cate)
            if eval_half.outlier_mask is not None:
                row.core_pehe = core_pehe(pred, eval_half.true_cate, eval_half.outlier_mask)
        except Exception as exc:  # noqa: BLE001 - failures belong in the report
            row.error = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _trial(job):
    generate, inputs, spec, learners, trial_seed = job
    data = generate(*inputs, replace(spec, seed=trial_seed))
    return evaluate_learners_on(data, learners, seed=trial_seed)


def _run_trials(generate, inputs, spec, learners, n_trials, n_jobs) -> EvalReport:
    """Score ``generate(*inputs, spec)`` at trial seeds spec.seed + 0..n-1,
    in up to n_jobs worker processes."""
    if n_trials < 1:
        raise EvaluationError("n_trials must be >= 1")
    jobs = [(generate, inputs, spec, learners, spec.seed + t) for t in range(n_trials)]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_trial, jobs))
    else:
        results = [_trial(j) for j in jobs]
    return EvalReport.from_trials([row for trial in results for row in trial])


def run_scenario(
    spec: ScenarioSpec,
    learners: Dict[str, MetaLearnerSpec],
    n_trials: int,
    n_jobs: int = 1,
) -> EvalReport:
    """Repeat generate/split/fit/score over trial seeds spec.seed + 0..n-1."""
    return _run_trials(generate_synthetic, (), spec, learners, n_trials, n_jobs)


@dataclass
class SweepResult:
    rates: List[float]
    reports: Dict[float, EvalReport]

    def mean_pehe(self, rate: float, learner: str) -> float:
        return self.reports[rate].aggregated[learner]["pehe_mean"]


def contamination_sweep(
    base_spec: ScenarioSpec,
    rates: Sequence[float],
    learners: Dict[str, MetaLearnerSpec],
    n_trials: int,
    n_jobs: int = 1,
) -> SweepResult:
    reports = {}
    for rate in rates:
        if not 0.0 <= rate < 1.0:
            raise EvaluationError(f"contamination rate {rate} outside [0, 1)")
        spec = replace(base_spec, contamination=replace(base_spec.contamination, rate=rate))
        reports[float(rate)] = run_scenario(spec, learners, n_trials, n_jobs=n_jobs)
    return SweepResult(rates=[float(r) for r in rates], reports=reports)


@dataclass
class SmearReport:
    """Mean control-group CATE shift per injected outlier magnitude and learner.

    The magnitude-0 row is identically zero: baseline predictions are reused
    rather than refit.
    """

    magnitudes: List[float]
    shifts: Dict[str, Dict[float, float]]  # learner -> magnitude -> shift


def smearing_study(
    spec: ScenarioSpec,
    magnitudes: Sequence[float],
    learners: Dict[str, MetaLearnerSpec],
) -> SmearReport:
    mags = [float(m) for m in magnitudes]
    if 0.0 not in mags:
        raise EvaluationError("magnitudes must include the 0 baseline")
    base = generate_synthetic(spec)
    target_unit = int(base.treated_idx[0])
    control = base.control_idx
    Xc = base.features[control]

    shifts: Dict[str, Dict[float, float]] = {name: {} for name in learners}
    baseline_pred = {}
    for name, lspec in learners.items():
        model = fit_meta(base, lspec)
        baseline_pred[name] = predict_cate(model, Xc)
        shifts[name][0.0] = 0.0
    for mag in mags:
        if mag == 0.0:
            continue
        poisoned = inject_outlier(base, target_unit, mag)
        for name, lspec in learners.items():
            model = fit_meta(poisoned, lspec)
            pred = predict_cate(model, Xc)
            shifts[name][mag] = float(np.mean(pred - baseline_pred[name]))
    return SmearReport(magnitudes=mags, shifts=shifts)


def run_semi_synthetic(
    features: np.ndarray,
    spec: SemiSyntheticSpec,
    learners: Dict[str, MetaLearnerSpec],
    n_trials: int,
    n_jobs: int = 1,
) -> EvalReport:
    """Displacement-scenario runner: fixed covariates, per-trial DGP seeds."""
    return _run_trials(apply_semi_synthetic_dgp, (features,), spec, learners, n_trials, n_jobs)


def emit_curve_data(
    data: CausalDataset,
    model_mse: BoostedEnsemble,
    model_robust: BoostedEnsemble,
    path,
) -> None:
    """Plot-ready CSV for the 1-D qualitative comparison.

    One row per unit: x, both response-model predictions at x, the observed
    outcome, and the outlier flag. Plain numeric CSV.
    """
    if data.n_features != 1:
        raise EvaluationError("curve emission requires a 1-D feature grid")
    pred_mse = model_mse.predict(data.features)
    pred_rob = model_robust.predict(data.features)
    mask = data.outlier_mask if data.outlier_mask is not None else np.zeros(data.n_units, np.int8)
    save_table_csv(path, ["x", "mu_mse", "mu_robust", "y", "is_outlier"],
                   [data.features[:, 0], pred_mse, pred_rob, data.outcome, mask])


# --- report emission ---------------------------------------------------------

REPORT_COLUMNS = ["scenario", "rate", "seed", "learner", "metric", "value"]


def report_rows(report: EvalReport) -> list:
    """Long-format rows under REPORT_COLUMNS: one per metric value or error.

    The scenario and rate columns are left empty ("" and nan)."""
    rows = []
    for row in report.per_trial:
        lead = ["", float("nan"), row.seed, row.learner]
        for metric in ("pehe", "core_pehe", "ate_bias"):
            value = getattr(row, metric)
            if value is not None:
                rows.append(lead + [metric, repr(value)])
        if row.error is not None:
            rows.append(lead + ["error", row.error])
    return rows


def report_summary(report: EvalReport) -> dict:
    return {
        "aggregated": report.aggregated,
        "degenerate_sd": report.degenerate_sd,
        "n_trial_rows": len(report.per_trial),
    }
