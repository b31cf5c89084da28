"""Acceptance gate: one test per claimed guarantee, one printed verdict line each.

The statistical criteria (5-9) run the shipped preset configurations end to end
and take tens of minutes combined on one core; the analytic criteria (1-4, 10)
finish in seconds.
"""

from unittest import mock

import numpy as np
import pytest

from rxlearner import evaluation
from rxlearner.boosting import BoostConfig, fit_boosted, fit_tree
from rxlearner.config import load_config, preset_path
from rxlearner.datasets import ScenarioSpec, generate_surrogate_covariates
from rxlearner.evaluation import (
    ate_bias,
    contamination_sweep,
    core_pehe,
    pehe,
    run_scenario,
    run_semi_synthetic,
    smearing_study,
)
from rxlearner.losses import (
    GAMMA_WELSCH,
    SQUARED,
    LossSpec,
    gamma_loss,
    gradient_and_weight,
    mad_scale,
    pointwise_gamma_loss,
    quadratic_majorizer,
    welsch_weight,
)
from rxlearner.metalearners import (
    AggregationScheme,
    FittedCate,
    aggregation_weights,
    fit_meta,
    mse_x_spec,
    predict_cate,
    rx_spec,
)
from rxlearner.boosting import BoostedEnsemble

_REPORTS = []


def _verdict(capsys, number, label, checks):
    """checks: list of (ok, detail). Prints one line, then asserts."""
    ok = all(c[0] for c in checks)
    detail = "; ".join(d for _, d in checks)
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    _REPORTS.append(line)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _median_metric(report, learner, metric):
    vals = [getattr(r, metric) for r in report.per_trial
            if r.learner == learner and r.error is None and getattr(r, metric) is not None]
    assert vals, f"no successful {metric} rows for {learner}"
    return float(np.median(vals))


def test_criterion_01_gradient_matches_finite_differences(capsys):
    h = 1e-6
    worst = 0.0
    for gamma in (0.1, 0.2, 0.5, 1.0):
        spec = LossSpec(kind=GAMMA_WELSCH, gamma=gamma, scale=1.0)
        for r in np.linspace(-10.0, 10.0, 201):
            fd = (gamma_loss([r - h], spec) - gamma_loss([r + h], spec)) / (2 * h)
            g, _ = gradient_and_weight(np.array(r), spec)
            denom = max(abs(fd), 1e-8)
            worst = max(worst, abs(g - fd) / denom)
    _verdict(capsys, 1, "analytic gradient vs central differences",
             [(worst < 1e-6, f"max rel err {worst:.2e} < 1e-6")])


def test_criterion_02_monotone_descent_under_contamination(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(40, 200))
        X = rng.normal(size=(n, int(rng.integers(1, 5))))
        y = X[:, 0] + 0.5 * rng.normal(size=n)
        whales = rng.random(n) < 0.2
        y = y + whales * (rng.pareto(1.5, size=n) + 1.0) * 10.0
        model = fit_boosted(X, y, LossSpec(kind=GAMMA_WELSCH), BoostConfig(n_rounds=60))
        trace = model.loss_trace
        if trace.size > 1:
            rel_rise = np.max(np.diff(trace) / np.abs(trace[:-1]))
            worst = max(worst, float(rel_rise))
    _verdict(capsys, 2, "Welsch loss trace non-increasing on 50 contaminated datasets",
             [(worst <= 1e-9, f"max relative rise {worst:.2e} <= 1e-9")])


def test_criterion_03_quadratic_majorization(capsys):
    spec = LossSpec(kind=GAMMA_WELSCH, gamma=0.2, scale=1.3)
    r0s = np.linspace(-10, 10, 100)
    rs = np.linspace(-10, 10, 100)
    R0, R = np.meshgrid(r0s, rs)
    gap = quadratic_majorizer(R, R0, spec) - pointwise_gamma_loss(R, spec)
    anchor_gap = np.max(np.abs(
        quadratic_majorizer(r0s, r0s, spec) - pointwise_gamma_loss(r0s, spec)
    ))
    _verdict(capsys, 3, "half-quadratic bound on 100x100 grid", [
        (float(gap.min()) >= -1e-12, f"min(Q - rho) = {gap.min():.2e} >= -1e-12"),
        (float(anchor_gap) <= 1e-12, f"anchor gap {anchor_gap:.2e} <= 1e-12"),
    ])


def test_criterion_04_split_matches_brute_force(capsys):
    rng = np.random.default_rng(1)
    cfg = BoostConfig(max_depth=1, min_samples_leaf=1, min_child_weight=0.0)

    def brute_sse(X, t, w):
        def sse(ts, ws):
            mean = np.sum(ws * ts) / np.sum(ws)
            return float(np.sum(ws * (ts - mean) ** 2))
        best = sse(t, w)
        for j in range(X.shape[1]):
            for thr in np.unique(X[:, j]):
                left = X[:, j] <= thr
                if left.all() or not left.any():
                    continue
                best = min(best, sse(t[left], w[left]) + sse(t[~left], w[~left]))
        return best

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 3))
        X = np.round(rng.normal(size=(n, d)), 2)
        t = rng.normal(size=n)
        w = rng.uniform(0.05, 3.0, size=n)
        tree = fit_tree(X, t, w, cfg)
        achieved = float(np.sum(w * (t - tree.predict(X)) ** 2))
        worst = max(worst, achieved - brute_sse(X, t, w))
    _verdict(capsys, 4, "depth-1 weighted split equals brute force on 200 instances",
             [(worst <= 1e-9, f"max SSE excess {worst:.2e} <= 1e-9")])


def test_criterion_05_extreme_pathology_ordering(capsys):
    cfg = load_config(preset_path("extreme_pathology"))
    report = run_scenario(cfg.scenario, cfg.learners, cfg.n_trials)
    med = {name: _median_metric(report, name, "core_pehe") for name in cfg.learners}
    others = min(med["winsorized_x"], med["mse_x"], med["dr_clipped"])
    detail = ", ".join(f"{k}={v:.3f}" for k, v in sorted(med.items()))
    _verdict(capsys, 5, "extreme-pathology median Core-PEHE ordering", [
        (med["rx"] < med["huber_x"], f"rx < huber ({detail})"),
        (med["huber_x"] < others, "huber < min(winsorized, mse, dr)"),
        (med["rx"] <= 0.5 * med["huber_x"], "rx <= 0.5 x huber"),
    ])


def test_criterion_06_smearing_pattern(capsys):
    cfg = load_config(preset_path("smearing"))
    report = smearing_study(cfg.scenario, cfg.magnitudes, cfg.learners)
    s = report.shifts
    mse_ratio = abs(s["mse_x"][1000.0] / s["mse_x"][100.0])
    huber_ratio = abs(s["huber_x"][1000.0] / s["huber_x"][100.0])
    rx_max = max(abs(s["rx"][100.0]), abs(s["rx"][1000.0]))
    _verdict(capsys, 6, "single-whale control-group shift pattern", [
        (5.0 <= mse_ratio <= 15.0, f"mse shift(1000)/shift(100) = {mse_ratio:.2f} in [5, 15]"),
        (0.5 <= huber_ratio <= 2.0, f"huber ratio = {huber_ratio:.2f} in [0.5, 2]"),
        (rx_max < 0.05, f"rx max |shift| = {rx_max:.4f} < 0.05"),
    ])


def test_criterion_07_contamination_sweep(capsys):
    cfg = load_config(preset_path("sweep_0_20"))
    result = contamination_sweep(cfg.scenario, cfg.rates, cfg.learners, cfg.n_trials)
    rx0, rx20 = result.mean_pehe(0.0, "rx"), result.mean_pehe(0.2, "rx")
    mse0, mse20 = result.mean_pehe(0.0, "mse_x"), result.mean_pehe(0.2, "mse_x")
    clean_ratio = max(rx0, mse0) / min(rx0, mse0)
    _verdict(capsys, 7, "rate sweep 0 -> 0.20", [
        (rx20 < 2.0 * rx0, f"rx {rx20:.3f} < 2 x {rx0:.3f}"),
        (mse20 > 3.0 * mse0, f"mse {mse20:.3f} > 3 x {mse0:.3f}"),
        (clean_ratio < 2.0, f"clean-data efficiency ratio {clean_ratio:.2f} < 2"),
    ])


def test_criterion_08_small_sample_student_t(capsys):
    cfg = load_config(preset_path("small_sample_t3"))
    assert cfg.n_trials >= 10
    report = run_scenario(cfg.scenario, cfg.learners, cfg.n_trials)
    rx = _median_metric(report, "rx", "pehe")
    huber = _median_metric(report, "huber_x", "pehe")
    _verdict(capsys, 8, "N=100 Student-t(3) boundary",
             [(rx < huber, f"rx median PEHE {rx:.3f} < huber {huber:.3f}")])


def test_criterion_09_displacement_scenario(capsys):
    cfg = load_config(preset_path("displacement_80_1"))
    X = generate_surrogate_covariates(cfg.surrogate["rows"], cfg.surrogate["cols"],
                                      cfg.surrogate["seed"])
    assert X.shape[0] >= 50_000
    report = run_semi_synthetic(X, cfg.semi_synthetic, cfg.learners, cfg.n_trials)
    rx_mean = report.aggregated["rx"]["core_pehe_mean"]
    rx_sd = report.aggregated["rx"]["core_pehe_sd"]
    mse_mean = report.aggregated["mse_x"]["core_pehe_mean"]
    _verdict(capsys, 9, "displacement scenario (80:1 leverage)", [
        (rx_mean <= 0.1 * mse_mean,
         f"rx {rx_mean:.3f} <= 0.1 x mse {mse_mean:.3f} ({1 - rx_mean / mse_mean:.1%} reduction)"),
        (rx_sd <= 0.2 * rx_mean, f"rx sd {rx_sd:.3f} <= 0.2 x mean {rx_mean:.3f}"),
    ])


def test_criterion_10_metric_and_aggregation_unit_suite(capsys):
    checks = []

    def add(ok, what):
        checks.append((bool(ok), what))

    # loss family examples
    add(abs(mad_scale([1, 2, 3, 4, 100]) - 1.4826) < 1e-12, "mad hand example")
    welsch = LossSpec(kind=GAMMA_WELSCH, gamma=0.2, scale=1.0)
    add(welsch_weight(0.0, welsch) == 1.0, "w(0)=1")
    r_inflect = np.sqrt(2.0 / welsch.gamma)
    add(abs(welsch_weight(r_inflect, welsch) - np.exp(-1)) < 1e-12, "w at inflection")
    add(abs(gamma_loss(np.zeros(5), welsch) + 25.0) < 1e-12, "loss minimum -N/gamma")
    g, w = gradient_and_weight(np.array(3.0), LossSpec(kind=SQUARED))
    add(g == -3.0 and w == 1.0, "squared gradient identity")

    # metric examples
    add(pehe([1.0], [1.0]) == 0.0, "pehe perfect")
    add(abs(pehe([3.0, 4.0], [0.0, 0.0]) - 3.5355) < 5e-5, "pehe [3,4]")
    add(abs(core_pehe([1.0, 3.0, 100.0], [1.0, 1.0, 0.0], [0, 0, 1]) - 1.4142) < 5e-5,
        "core-pehe [0,2]+whale")
    add(ate_bias([6.0, 7.0], [1.0, 2.0]) == 5.0, "ate bias offset 5")

    # aggregation examples
    def fitted(v0, v1, agg):
        stub = BoostedEnsemble(base_prediction=0.0, n_features=1)
        return FittedCate(kind="rx", mu0=stub, mu1=stub, tau0=stub, tau1=stub,
                          arm_variance=(v0, v1), aggregation=agg)

    X = np.zeros((1, 1))
    iv = AggregationScheme(kind="inverse_variance")
    add(float(aggregation_weights(fitted(2.0, 2.0, iv), X)[0]) == 0.5, "equal variances -> 1/2")
    add(abs(float(aggregation_weights(fitted(1.0, 4.0, iv), X)[0]) - 0.8) < 1e-12,
        "v0=1, v1=4 -> g=0.8")
    add(round(float(aggregation_weights(fitted(0.01, 1.0, iv), X)[0]), 3) == 0.990,
        "100x arm size -> g=0.990")
    fx = AggregationScheme(kind="fixed", g=1.0)
    model = fitted(1.0, 1.0, fx)
    model.tau0 = BoostedEnsemble(base_prediction=7.0, n_features=1)
    add(float(predict_cate(model, X)[0]) == 7.0, "fixed(1) returns tau0")

    n_ok = sum(1 for ok, _ in checks if ok)
    failed = [what for ok, what in checks if not ok]
    _verdict(capsys, 10, "metric and aggregation unit suite",
             [(not failed, f"{n_ok}/{len(checks)} exact examples hold"
               + (f"; failed: {failed}" if failed else ""))])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_whale_influence_redescends_at_small_n(seed):
    """Criterion 6's single-whale study at n=300 and 30 rounds, under a second
    per seed. Past a few sigma-hat the Welsch weight of the whale vanishes, so
    rx's control-group shift stays put from magnitude 100 to 1000 while mse_x's
    grows about tenfold. The whale still moves rx's trees slightly (its row
    counts toward min_samples_leaf, and a weight that has not underflowed to 0
    can shift a split), so only the shift and the anchor are compared."""
    fits = []

    def recording_fit_meta(data, spec):
        fits.append((spec.kind, fit_meta(data, spec)))
        return fits[-1][1]

    config = BoostConfig(n_rounds=30)
    learners = {"rx": rx_spec(boost_config=config), "mse_x": mse_x_spec(boost_config=config)}
    with mock.patch.object(evaluation, "fit_meta", recording_fit_meta):
        report = evaluation.smearing_study(ScenarioSpec(n=300, treated_fraction=0.1, seed=seed),
                                           [0, 100, 1000], learners)
    s = report.shifts
    assert abs(s["rx"][1000.0] - s["rx"][100.0]) < 0.01
    assert 5.0 <= s["mse_x"][1000.0] / s["mse_x"][100.0] <= 15.0
    # fits run baseline, then magnitude 100, then 1000, each rx before mse_x
    rx_scales = [model.mu1.loss_spec.scale for kind, model in fits if kind == "rx"]
    assert len(rx_scales) == 3 and rx_scales[1] == rx_scales[2]
