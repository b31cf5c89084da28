import numpy as np
import pytest

from rxlearner.boosting import BoostConfig, fit_boosted
from rxlearner.cli import _write_outputs
from rxlearner.datasets import (
    ContaminationSpec,
    ScenarioSpec,
    SemiSyntheticSpec,
    generate_1d_qualitative,
    generate_surrogate_covariates,
    load_dataset_csv,
)
from rxlearner.evaluation import (
    REPORT_COLUMNS,
    EvalReport,
    EvaluationError,
    TrialRow,
    ate_bias,
    contamination_sweep,
    core_pehe,
    emit_curve_data,
    pehe,
    report_rows,
    report_summary,
    run_scenario,
    run_semi_synthetic,
    smearing_study,
    stratified_split,
)
from rxlearner.losses import GAMMA_WELSCH, SQUARED, LossSpec
from rxlearner.metalearners import mse_x_spec, rx_spec

FAST = BoostConfig(n_rounds=40)
FAST_LEARNERS = {"mse_x": mse_x_spec(boost_config=FAST), "rx": rx_spec(boost_config=FAST)}
SMALL_SPEC = ScenarioSpec(n=160, treated_fraction=0.4, seed=0,
                          contamination=ContaminationSpec(rate=0.1, tail_arm="both"))


class TestPehe:
    def test_perfect_predictions(self):
        assert pehe([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        assert pehe([2.0, 3.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_hand_example(self):
        assert pehe([3.0, 4.0], [0.0, 0.0]) == pytest.approx(3.5355, abs=5e-5)

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            pehe([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EvaluationError):
            pehe([], [])


class TestCorePehe:
    def test_mask_all_zero_equals_pehe(self):
        rng = np.random.default_rng(0)
        p, t = rng.normal(size=20), rng.normal(size=20)
        assert core_pehe(p, t, np.zeros(20)) == pehe(p, t)

    def test_perfect_core_arbitrary_whales(self):
        p = np.array([1.0, 2.0, 999.0])
        t = np.array([1.0, 2.0, 3.0])
        assert core_pehe(p, t, np.array([0, 0, 1])) == 0.0

    def test_hand_example(self):
        # core errors [0, 2], masked whale error 100: sqrt((0+4)/2)
        p = np.array([1.0, 3.0, 100.0])
        t = np.array([1.0, 1.0, 0.0])
        assert core_pehe(p, t, np.array([0, 0, 1])) == pytest.approx(1.4142, abs=5e-5)

    def test_recomputation_equivalence(self):
        rng = np.random.default_rng(1)
        p, t = rng.normal(size=50), rng.normal(size=50)
        mask = (rng.random(50) < 0.3).astype(int)
        core = mask == 0
        assert core_pehe(p, t, mask) == pehe(p[core], t[core])

    def test_all_masked_rejected(self):
        with pytest.raises(EvaluationError):
            core_pehe([1.0], [1.0], [1])


class TestAteBias:
    def test_perfect(self):
        assert ate_bias([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset_five(self):
        assert ate_bias([6.0, 7.0], [1.0, 2.0]) == pytest.approx(5.0)

    def test_alternating_cancellation(self):
        t = np.arange(4.0)
        p = t + np.array([1.0, -1.0, 1.0, -1.0])
        assert ate_bias(p, t) == 0.0


class TestEvalReport:
    def test_aggregation_recomputable(self):
        rows = [
            TrialRow(seed=0, learner="a", pehe=1.0, ate_bias=0.1),
            TrialRow(seed=1, learner="a", pehe=3.0, ate_bias=0.3),
            TrialRow(seed=0, learner="b", pehe=2.0),
        ]
        report = EvalReport.from_trials(rows)
        assert report.aggregated["a"]["pehe_mean"] == pytest.approx(2.0)
        assert report.aggregated["a"]["pehe_sd"] == pytest.approx(np.std([1.0, 3.0], ddof=1))
        assert report.aggregated["b"]["pehe_mean"] == 2.0

    def test_single_trial_degenerate_sd_flag(self):
        report = EvalReport.from_trials([TrialRow(seed=0, learner="a", pehe=1.0)])
        assert report.aggregated["a"]["pehe_sd"] == 0.0
        assert report.degenerate_sd is True

    def test_failed_rows_excluded_from_aggregates(self):
        rows = [
            TrialRow(seed=0, learner="a", pehe=1.0),
            TrialRow(seed=1, learner="a", error="ValueError: boom"),
        ]
        report = EvalReport.from_trials(rows)
        assert report.aggregated["a"]["pehe_mean"] == 1.0
        assert report.aggregated["a"]["n_ok"] == 1.0


class TestRunners:
    def test_stratified_split_covers_both_arms(self):
        from rxlearner.datasets import generate_synthetic
        data = generate_synthetic(SMALL_SPEC)
        fit_half, eval_half = stratified_split(data, seed=0)
        for half in (fit_half, eval_half):
            assert half.treated_idx.size > 0 and half.control_idx.size > 0
        assert fit_half.n_units + eval_half.n_units == data.n_units

    def test_run_scenario_deterministic(self):
        a = run_scenario(SMALL_SPEC, FAST_LEARNERS, n_trials=2)
        b = run_scenario(SMALL_SPEC, FAST_LEARNERS, n_trials=2)
        assert a.aggregated == b.aggregated

    def test_run_scenario_parallel_matches_serial(self):
        serial = run_scenario(SMALL_SPEC, FAST_LEARNERS, n_trials=2, n_jobs=1)
        parallel = run_scenario(SMALL_SPEC, FAST_LEARNERS, n_trials=2, n_jobs=2)
        assert serial.aggregated == parallel.aggregated

    def test_sweep_rates_validated(self):
        with pytest.raises(EvaluationError):
            contamination_sweep(SMALL_SPEC, [0.0, 1.0], FAST_LEARNERS, 1)

    def test_sweep_shapes(self):
        result = contamination_sweep(SMALL_SPEC, [0.0, 0.1], FAST_LEARNERS, 1)
        assert result.rates == [0.0, 0.1]
        for rate in result.rates:
            for name in FAST_LEARNERS:
                assert np.isfinite(result.mean_pehe(rate, name))

    def test_semi_synthetic_runner(self):
        X = generate_surrogate_covariates(1200, 5, seed=0)
        spec = SemiSyntheticSpec(treated_fraction=0.1, seed=1)
        report = run_semi_synthetic(X, spec, {"rx": rx_spec(boost_config=FAST)}, n_trials=1)
        assert report.aggregated["rx"]["n_ok"] == 1.0

    def test_semi_synthetic_parallel_matches_serial(self):
        X = generate_surrogate_covariates(600, 4, seed=0)
        spec = SemiSyntheticSpec(treated_fraction=0.1, seed=1)
        serial = run_semi_synthetic(X, spec, FAST_LEARNERS, n_trials=2, n_jobs=1)
        parallel = run_semi_synthetic(X, spec, FAST_LEARNERS, n_trials=2, n_jobs=2)
        assert serial.aggregated == parallel.aggregated


class TestSmearing:
    def test_baseline_row_exactly_zero(self):
        spec = ScenarioSpec(n=160, treated_fraction=0.4, tau_form="constant",
                            tau_value=2.0, seed=0)
        report = smearing_study(spec, [0, 50], {"rx": rx_spec(boost_config=FAST)})
        assert report.shifts["rx"][0.0] == 0.0
        assert np.isfinite(report.shifts["rx"][50.0])

    def test_requires_zero_baseline(self):
        with pytest.raises(EvaluationError):
            smearing_study(SMALL_SPEC, [100.0], {"rx": rx_spec(boost_config=FAST)})


class TestCurveEmission:
    def fit_pair(self, data):
        treated = data.treated_idx
        Xt, yt = data.features[treated], data.outcome[treated]
        cfg = BoostConfig(n_rounds=80)
        return (fit_boosted(Xt, yt, LossSpec(kind=SQUARED), cfg),
                fit_boosted(Xt, yt, LossSpec(kind=GAMMA_WELSCH), cfg))

    def test_row_count_and_round_trip(self, tmp_path):
        data = generate_1d_qualitative(200, 5, seed=0)
        mse, rob = self.fit_pair(data)
        path = tmp_path / "curves.csv"
        emit_curve_data(data, mse, rob, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 201  # header + 200 rows
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        assert body.shape == (200, 5)

    def test_smear_region_localized_to_outlier_cluster(self, tmp_path):
        data = generate_1d_qualitative(200, 5, seed=0)
        mse, rob = self.fit_pair(data)
        path = tmp_path / "curves.csv"
        emit_curve_data(data, mse, rob, path)
        body = np.loadtxt(path, delimiter=",", skiprows=1)
        x, mu_mse, mu_rob = body[:, 0], body[:, 1], body[:, 2]
        peak_x = x[np.argmax(mu_mse - mu_rob)]
        assert 0.6 <= peak_x <= 0.8

    def test_requires_1d(self, tmp_path):
        from rxlearner.datasets import generate_synthetic
        data = generate_synthetic(SMALL_SPEC)
        mse, rob = self.fit_pair(generate_1d_qualitative(100, 0, seed=0))
        with pytest.raises(EvaluationError):
            emit_curve_data(data, mse, rob, tmp_path / "c.csv")


class TestReportFiles:
    def test_csv_and_json_outputs(self, tmp_path):
        report = EvalReport.from_trials([
            TrialRow(seed=0, learner="a", pehe=1.0, core_pehe=0.9, ate_bias=0.1),
            TrialRow(seed=1, learner="a", error="RuntimeError: x"),
        ])
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        _write_outputs(None, tmp_path, "r", REPORT_COLUMNS, report_rows(report),
                       report_summary(report))
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "scenario,rate,seed,learner,metric,value"
        assert len(lines) == 5  # header + 3 metrics + 1 error row
        import json
        doc = json.loads(json_path.read_text())
        assert doc["aggregated"]["a"]["pehe_mean"] == 1.0
