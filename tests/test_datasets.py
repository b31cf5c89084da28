import numpy as np
import pytest
from scipy import stats

import rxlearner.cli as cli_module
import rxlearner.datasets as datasets_module
from rxlearner.datasets import (
    CausalDataset,
    ContaminationSpec,
    DatasetError,
    ScenarioSpec,
    SemiSyntheticSpec,
    apply_semi_synthetic_dgp,
    generate_1d_qualitative,
    generate_surrogate_covariates,
    generate_synthetic,
    inject_outlier,
    load_dataset_csv,
    load_table_csv,
    save_dataset_csv,
    save_table_csv,
    winsorize_outcomes,
)
from rxlearner.evaluation import (
    REPORT_COLUMNS,
    EvalReport,
    TrialRow,
    emit_curve_data,
    report_rows,
    report_summary,
)


def small_dataset(n=20, seed=0):
    spec = ScenarioSpec(n=n, treated_fraction=0.3, seed=seed)
    return generate_synthetic(spec)


class TestCausalDataset:
    def test_basic_properties(self):
        data = small_dataset()
        assert data.n_units == 20
        assert data.n_features == 5
        assert data.treated_idx.size + data.control_idx.size == 20

    def test_rejects_non_binary_treatment(self):
        with pytest.raises(DatasetError):
            CausalDataset(np.ones((3, 2)), np.array([0, 1, 2]), np.zeros(3))

    def test_rejects_non_finite_outcome(self):
        with pytest.raises(DatasetError):
            CausalDataset(np.ones((2, 1)), np.array([0, 1]), np.array([1.0, np.inf]))

    def test_rejects_non_finite_true_cate(self):
        # PEHE would read nan
        with pytest.raises(DatasetError, match="true_cate contains non-finite values"):
            CausalDataset(np.ones((3, 1)), np.array([0, 1, 1]), np.zeros(3),
                          true_cate=np.array([np.nan, 1.0, 1.0]))

    def test_mask_requires_true_cate(self):
        with pytest.raises(DatasetError):
            CausalDataset(
                np.ones((2, 1)), np.array([0, 1]), np.zeros(2),
                outlier_mask=np.array([0, 1]),
            )

    def test_rejects_bad_propensity(self):
        with pytest.raises(DatasetError):
            CausalDataset(np.ones((2, 1)), np.array([0, 1]), np.zeros(2),
                          true_propensity=1.5)

    def test_subset_preserves_ground_truth(self):
        data = small_dataset()
        sub = data.subset(np.arange(5))
        assert sub.n_units == 5
        np.testing.assert_array_equal(sub.true_cate, data.true_cate[:5])
        np.testing.assert_array_equal(sub.outlier_mask, data.outlier_mask[:5])


class TestContaminationSpec:
    @pytest.mark.parametrize("bad", [
        dict(rate=1.0),
        dict(rate=-0.1),
        dict(core_sd=0.0),
        dict(tail_kind="lognormal"),
        dict(tail_arm="everyone"),
        dict(tail_index=0.0),
        dict(core_sd=float("nan")),
        dict(tail_scale=float("nan")),
    ])
    def test_validation(self, bad):
        with pytest.raises(DatasetError):
            ContaminationSpec(**bad)


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = ScenarioSpec(n=500, treated_fraction=0.1, seed=42,
                            contamination=ContaminationSpec(rate=0.2, tail_arm="both"))
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.outcome, b.outcome)
        np.testing.assert_array_equal(a.outlier_mask, b.outlier_mask)

    def test_exact_treated_count(self):
        spec = ScenarioSpec(n=2000, treated_fraction=0.02, seed=1)
        data = generate_synthetic(spec)
        assert data.treated_idx.size == 40
        assert data.true_propensity == 0.02

    def test_zero_rate_has_clean_mask(self):
        spec = ScenarioSpec(n=300, treated_fraction=0.2, seed=5)
        data = generate_synthetic(spec)
        assert int(data.outlier_mask.sum()) == 0

    def test_contamination_rate_calibration(self):
        # chi-squared goodness of fit on the realized outlier count at n=1e5
        rate = 0.1
        spec = ScenarioSpec(
            n=100_000, treated_fraction=0.5, seed=7,
            contamination=ContaminationSpec(rate=rate, tail_arm="both"),
        )
        data = generate_synthetic(spec)
        k = int(data.outlier_mask.sum())
        n = data.n_units
        chi2 = (k - n * rate) ** 2 / (n * rate) + ((n - k) - n * (1 - rate)) ** 2 / (n * (1 - rate))
        assert stats.chi2.sf(chi2, df=1) > 0.01

    def test_pareto_tail_draws_strictly_positive(self):
        spec = ScenarioSpec(
            n=50_000, treated_fraction=0.5, mu0_form="zero", tau_form="constant",
            tau_value=0.0, seed=3,
            contamination=ContaminationSpec(rate=0.3, core_sd=1e-8, tail_kind="pareto",
                                            tail_scale=5.0, tail_arm="both"),
        )
        data = generate_synthetic(spec)
        tails = data.outcome[data.outlier_mask == 1]
        assert np.all(tails >= 5.0 - 1e-6)

    def test_tail_arm_restriction(self):
        spec = ScenarioSpec(
            n=5000, treated_fraction=0.5, seed=9,
            contamination=ContaminationSpec(rate=0.3, tail_arm="treated"),
        )
        data = generate_synthetic(spec)
        assert np.all(data.treatment[data.outlier_mask == 1] == 1)

    def test_dgp_forms(self):
        spec = ScenarioSpec(n=100, treated_fraction=0.5, seed=0,
                            tau_form="constant", tau_value=3.0)
        data = generate_synthetic(spec)
        np.testing.assert_allclose(data.true_cate, 3.0)
        lin = generate_synthetic(ScenarioSpec(n=100, treated_fraction=0.5, seed=0))
        np.testing.assert_allclose(lin.true_cate, 1.0 + lin.features[:, 0] / 2.0)

    def test_validation(self):
        with pytest.raises(DatasetError):
            ScenarioSpec(n=1)
        with pytest.raises(DatasetError):
            ScenarioSpec(n=2000, treated_fraction=0.0)
        with pytest.raises(DatasetError):
            ScenarioSpec(n=20, treated_fraction=0.01)

    @pytest.mark.parametrize("name", ["n", "n_features"])
    @pytest.mark.parametrize("value", [200.5, 200.0, True, "200"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(DatasetError, match=f"^{name} must be an integer$"):
            ScenarioSpec(**{name: value})
        assert getattr(ScenarioSpec(**{name: np.int64(300)}), name) == 300


class TestGenerate1d:
    def test_outliers_flagged(self):
        data = generate_1d_qualitative(200, 5, seed=0)
        assert int(data.outlier_mask.sum()) == 5
        assert np.all(data.treatment[data.outlier_mask == 1] == 1)

    def test_clean_counterpart(self):
        data = generate_1d_qualitative(200, 0, seed=0)
        assert int(data.outlier_mask.sum()) == 0

    def test_outliers_lift_the_flagged_units(self):
        clean = generate_1d_qualitative(200, 0, seed=0)
        dirty = generate_1d_qualitative(200, 5, seed=0)
        flagged = dirty.outlier_mask == 1
        np.testing.assert_allclose(
            dirty.outcome[flagged] - clean.outcome[flagged], 25.0
        )
        np.testing.assert_array_equal(dirty.outcome[~flagged], clean.outcome[~flagged])

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(DatasetError):
            generate_1d_qualitative(5, 5, seed=0)


class TestInjectOutlier:
    def test_changes_exactly_one_outcome(self):
        data = small_dataset()
        unit = int(data.treated_idx[0])
        out = inject_outlier(data, unit, 100.0)
        diff = out.outcome - data.outcome
        assert diff[unit] == 100.0
        assert np.count_nonzero(diff) == 1
        assert out.outlier_mask[unit] == 1

    def test_magnitude_zero_changes_only_mask(self):
        data = small_dataset()
        unit = int(data.treated_idx[0])
        out = inject_outlier(data, unit, 0.0)
        np.testing.assert_array_equal(out.outcome, data.outcome)
        assert out.outlier_mask[unit] == 1

    def test_rejects_control_unit(self):
        data = small_dataset()
        with pytest.raises(DatasetError):
            inject_outlier(data, int(data.control_idx[0]), 10.0)

    def test_rejects_bad_index(self):
        data = small_dataset()
        with pytest.raises(DatasetError):
            inject_outlier(data, data.n_units, 10.0)


class TestWinsorize:
    def test_identity_quantiles(self):
        data = small_dataset()
        out = winsorize_outcomes(data, 0.0, 1.0)
        np.testing.assert_array_equal(out.outcome, data.outcome)

    def test_hand_example(self):
        data = CausalDataset(
            np.zeros((5, 1)), np.array([0, 1, 0, 1, 0]),
            np.array([1.0, 2.0, 3.0, 4.0, 1000.0]),
        )
        out = winsorize_outcomes(data, 0.0, 0.8)
        expected_hi = np.quantile(data.outcome, 0.8)
        assert out.outcome.max() == expected_hi
        np.testing.assert_array_equal(out.outcome[:4], data.outcome[:4])

    def test_never_touches_other_fields(self):
        data = small_dataset()
        out = winsorize_outcomes(data, 0.1, 0.9)
        np.testing.assert_array_equal(out.features, data.features)
        np.testing.assert_array_equal(out.treatment, data.treatment)
        np.testing.assert_array_equal(out.true_cate, data.true_cate)

    def test_rejects_bad_quantiles(self):
        with pytest.raises(DatasetError):
            winsorize_outcomes(small_dataset(), 0.9, 0.1)


class TestSemiSynthetic:
    def test_zero_contamination_clean_mask(self):
        X = generate_surrogate_covariates(2000, 8, seed=0)
        spec = SemiSyntheticSpec(treated_fraction=0.1,
                                 contaminated_treated_fraction=0.0, seed=1)
        data = apply_semi_synthetic_dgp(X, spec)
        assert int(data.outlier_mask.sum()) == 0

    def test_target_mean_tau(self):
        X = generate_surrogate_covariates(3000, 6, seed=2)
        spec = SemiSyntheticSpec(treated_fraction=0.1, target_mean_tau=0.66, seed=1)
        data = apply_semi_synthetic_dgp(X, spec)
        assert np.mean(np.abs(data.true_cate)) == pytest.approx(0.66, abs=1e-12)

    def test_whales_on_treated_only(self):
        X = generate_surrogate_covariates(5000, 6, seed=3)
        spec = SemiSyntheticSpec(treated_fraction=0.1,
                                 contaminated_treated_fraction=0.2, seed=4)
        data = apply_semi_synthetic_dgp(X, spec)
        assert int(data.outlier_mask.sum()) > 0
        assert np.all(data.treatment[data.outlier_mask == 1] == 1)

    def test_deterministic(self):
        X = generate_surrogate_covariates(1000, 4, seed=5)
        spec = SemiSyntheticSpec(treated_fraction=0.1, seed=6)
        a = apply_semi_synthetic_dgp(X, spec)
        b = apply_semi_synthetic_dgp(X, spec)
        np.testing.assert_array_equal(a.outcome, b.outcome)

    def test_rejects_zero_variance_covariate(self):
        X = np.zeros((100, 3))
        with pytest.raises(DatasetError):
            apply_semi_synthetic_dgp(X, SemiSyntheticSpec(treated_fraction=0.1))


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        data = small_dataset(n=50, seed=3)
        path = tmp_path / "d.csv"
        save_dataset_csv(data, path)
        back = load_dataset_csv(path)
        assert np.max(np.abs(back.features - data.features)) <= 1e-12
        assert np.max(np.abs(back.outcome - data.outcome)) <= 1e-12
        np.testing.assert_array_equal(back.treatment, data.treatment)
        np.testing.assert_array_equal(back.true_cate, data.true_cate)
        np.testing.assert_array_equal(back.outlier_mask, data.outlier_mask)

    def test_optional_columns_absent(self, tmp_path):
        data = CausalDataset(np.ones((3, 2)), np.array([0, 1, 0]), np.arange(3.0))
        path = tmp_path / "d.csv"
        save_dataset_csv(data, path)
        back = load_dataset_csv(path)
        assert back.true_cate is None and back.outlier_mask is None

    @pytest.mark.parametrize("block_rows", [2, 1024])
    @pytest.mark.parametrize("ground_truth", [False, True])
    def test_golden_bytes(self, tmp_path, monkeypatch, ground_truth, block_rows):
        # Each value is its repr (so -0.0, 1e-300 and 1e+16 survive) and lines end in CRLF.
        monkeypatch.setattr(datasets_module, "CSV_WRITE_ROWS", block_rows)
        X = np.array([[-0.0, 1e-300], [1e16, 0.1], [2.0, -1.5e-7]])
        extra = dict(true_cate=np.array([0.5, -0.0, 1e16]),
                     outlier_mask=np.array([0, 1, 0])) if ground_truth else {}
        data = CausalDataset(X, np.array([1, 0, 1]), np.array([2.5, -3.0, 1e-300]), **extra)
        path = tmp_path / "d.csv"
        save_dataset_csv(data, path)
        if ground_truth:
            expected = (b"f0,f1,w,y,tau_true,is_outlier\r\n"
                        b"-0.0,1e-300,1,2.5,0.5,0\r\n"
                        b"1e+16,0.1,0,-3.0,-0.0,1\r\n"
                        b"2.0,-1.5e-07,1,1e-300,1e+16,0\r\n")
        else:
            expected = (b"f0,f1,w,y\r\n"
                        b"-0.0,1e-300,1,2.5\r\n"
                        b"1e+16,0.1,0,-3.0\r\n"
                        b"2.0,-1.5e-07,1,1e-300\r\n")
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("block_rows", [2, 1024])
    def test_golden_bytes_predict(self, tmp_path, monkeypatch, block_rows):
        # `rxlearner predict` writes tau_hat under the dataset rule: repr values, CRLF.
        monkeypatch.setattr(datasets_module, "CSV_WRITE_ROWS", block_rows)
        monkeypatch.setattr(cli_module, "load_meta", lambda path: None)
        monkeypatch.setattr(cli_module, "predict_cate",
                            lambda model, X: np.array([-0.0, 1e-300, 1e16]))
        features = tmp_path / "x.csv"
        features.write_text("f0\n1\n2\n3\n")
        out = tmp_path / "tau.csv"
        assert cli_module.main(["predict", "bundle", str(features), str(out)]) == 0
        assert out.read_bytes() == b"tau_hat\r\n-0.0\r\n1e-300\r\n1e+16\r\n"

    @pytest.mark.parametrize("block_rows", [2, 1024])
    def test_golden_bytes_curves(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(datasets_module, "CSV_WRITE_ROWS", block_rows)

        class Fixed:
            def __init__(self, values):
                self.values = np.array(values)

            def predict(self, X):
                return self.values

        data = CausalDataset(np.array([[-0.0], [1e-300], [1e16]]), np.array([1, 0, 1]),
                             np.array([2.5, -3.0, 1e-300]), true_cate=np.zeros(3),
                             outlier_mask=np.array([0, 1, 0]))
        path = tmp_path / "curves.csv"
        emit_curve_data(data, Fixed([0.1, -0.0, 1e16]), Fixed([1e-300, 2.0, -1.5e-7]), path)
        assert path.read_bytes() == (b"x,mu_mse,mu_robust,y,is_outlier\r\n"
                                     b"-0.0,0.1,1e-300,2.5,0\r\n"
                                     b"1e-300,-0.0,2.0,-3.0,1\r\n"
                                     b"1e+16,1e+16,-1.5e-07,1e-300,0\r\n")

    def test_golden_bytes_report(self, tmp_path):
        # Reports go through csv.writer, which quotes an error cell holding a comma or a quote.
        report = EvalReport.from_trials([
            TrialRow(seed=0, learner="rx", pehe=-0.0, core_pehe=1e-300, ate_bias=1e16),
            TrialRow(seed=1, learner="rx", error='ValueError: bad "x", y'),
        ])
        cli_module._write_outputs("csv", tmp_path, "report", REPORT_COLUMNS,
                                  report_rows(report), report_summary(report))
        assert (tmp_path / "report.csv").read_bytes() == (
            b"scenario,rate,seed,learner,metric,value\r\n"
            b",nan,0,rx,pehe,-0.0\r\n"
            b",nan,0,rx,core_pehe,1e-300\r\n"
            b",nan,0,rx,ate_bias,1e+16\r\n"
            b',nan,1,rx,error,"ValueError: bad ""x"", y"\r\n')
        assert not (tmp_path / "report.json").exists()

    def test_missing_y_column_named_in_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,w\n1.0,0\n")
        with pytest.raises(DatasetError, match="'y'"):
            load_dataset_csv(path)

    def test_tau_true_column_populates_true_cate(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,w,y,tau_true\n0.5,1,2.0,1.5\n0.2,0,0.0,1.1\n")
        back = load_dataset_csv(path)
        np.testing.assert_allclose(back.true_cate, [1.5, 1.1])

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,w,y\n0.5,1,2.0\n0.2,0,oops\n")
        with pytest.raises(DatasetError, match="row 3.*'y'"):
            load_dataset_csv(path)

    def test_non_binary_treatment_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,w,y\n0.5,2,2.0\n")
        with pytest.raises(DatasetError, match="non-binary"):
            load_dataset_csv(path)

    def test_non_binary_treatment_located_past_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,w,y\n1.0,0,1.0\n\n\n2.0,0.5,2.0\n")
        with pytest.raises(DatasetError, match="non-binary treatment at row 5: 0.5"):
            load_dataset_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,w,y,extra\n0.5,1,2.0,9\n")
        with pytest.raises(DatasetError, match="extra"):
            load_dataset_csv(path)


class TestTableReader:
    def test_dataset_values_read_bit_exact(self, tmp_path):
        data = small_dataset(n=50, seed=3)
        path = tmp_path / "d.csv"
        save_dataset_csv(data, path)
        X, named = load_table_csv(path)
        assert X.tobytes() == data.features.tobytes()
        assert named["y"].tobytes() == data.outcome.tobytes()
        assert sorted(named) == ["is_outlier", "tau_true", "w", "y"]

    def test_written_table_reads_back_bit_exact(self, tmp_path):
        a, b = np.array([-0.0, 1e-300, 1e16]), np.array([0.1, 2.0, -1.5e-7])
        path = tmp_path / "t.csv"
        save_table_csv(path, ["a", "b", "y"], [a, b, np.array([1, 0, 1])])
        X, named = load_table_csv(path)
        assert X.tobytes() == np.column_stack([a, b]).tobytes()
        np.testing.assert_array_equal(named["y"], [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("columns", [
        [np.zeros(3), np.zeros(2)],
        [np.zeros(3)],
        [np.zeros((3, 1)), np.zeros(3)],
    ])
    def test_writer_rejects_mismatched_columns(self, tmp_path, columns):
        with pytest.raises(DatasetError, match="column names for columns of shapes"):
            save_table_csv(tmp_path / "t.csv", ["a", "b"], columns)

    def test_any_feature_names_without_named_columns(self, tmp_path):
        path = tmp_path / "cov.csv"
        path.write_text("a,b,c\n1.5,2,3\n4,5,6e-1\n")
        X, named = load_table_csv(path)
        np.testing.assert_array_equal(X, [[1.5, 2.0, 3.0], [4.0, 5.0, 0.6]])
        assert named == {}

    @pytest.mark.parametrize("text, cause", [
        ("", "empty file"),
        ("f0,w,y\n", "no data rows"),
        ("f0,w,y\n0.5,1,2.0\n0.2,0\n", "row 3 has 2 cells, expected 3"),
        ("f0,w,y\n0.5,1\n0.2,0\n", "row 2 has 2 cells, expected 3"),
        ("w,y\n1,2.0\n", "no feature columns"),
        ("f0,w,f1,y\n0.5,1,2.0,3.0\n", r"\['f1'\] must come before 'w'"),
        ("f0,w,w,y\n0.5,1,0,3.0\n", "duplicate column names"),
    ])
    def test_malformed_table_names_cause(self, tmp_path, text, cause):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DatasetError, match=cause):
            load_table_csv(path)

    @pytest.mark.parametrize("block_bytes", [1, 25, 1 << 18])
    def test_blocks_read_like_one_parse(self, tmp_path, monkeypatch, block_bytes):
        # Blank lines and a last line without a newline; blocks must not drop or shift rows.
        monkeypatch.setattr(datasets_module, "CSV_READ_BYTES", block_bytes)
        path = tmp_path / "t.csv"
        path.write_text("a,b,w,y\n1.5,2,0,0.1\n\n\n3,4e-1,1,-0.0\n5,6,0,1e-300\n-7,8,1,2")
        X, named = load_table_csv(path)
        want = np.loadtxt(path, delimiter=",", skiprows=1)
        assert X.flags.c_contiguous and X.tobytes() == np.ascontiguousarray(want[:, :2]).tobytes()
        assert named["w"].tobytes() == want[:, 2].tobytes()
        assert named["y"].tobytes() == want[:, 3].tobytes()

    @pytest.mark.parametrize("block_bytes", [25, 1 << 18])
    @pytest.mark.parametrize("text, cause", [
        # cells are split on ',' as np.loadtxt splits them: a quote is part of the cell
        ('f0,w,y\n0.5,1,2.0\n0.2,0,1\n0.3,"1",2\n', "non-numeric cell at row 4, column 'w': '\"1\"'"),
        ("f0,w,y\n0.5,1,2.0\n0.2,0,1\n\n0.3,0,nan\n", "non-finite cell at row 5, column 'y': 'nan'"),
        ("f0,w,y\n0.5,1,2.0\n-inf,0,1\n", "non-finite cell at row 3, column 'f0': '-inf'"),
        ("f0,w,y\n0.5,1,1e999\n", "non-finite cell at row 2, column 'y': '1e999'"),
        ("f0,w,y,tau_true,is_outlier\n0.5,1,2.0,1,0\n0.2,0,1,1,2\n",
         "non-binary outlier_mask at row 3: 2.0"),
        # every table, not only a dataset, holds 0/1 in w
        ("a,b,w\n0.5,1,1\n0.2,0,0.5\n", "non-binary treatment at row 3: 0.5"),
    ])
    def test_bad_cell_named_by_file_line_and_column(self, tmp_path, monkeypatch, block_bytes,
                                                    text, cause):
        monkeypatch.setattr(datasets_module, "CSV_READ_BYTES", block_bytes)
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DatasetError) as err:
            load_table_csv(path)
        assert str(err.value) == f"{path}: {cause}"

    @pytest.mark.parametrize("block_bytes, lines", [(1, "4-5"), (1 << 18, "2-5")])
    def test_numpy_only_rejection_names_the_block_lines(self, tmp_path, monkeypatch,
                                                        block_bytes, lines):
        # Python's float reads 1_0 as 10; np.loadtxt does not. Its own row number
        # counts the block's data rows from 0, so only the file lines are given.
        monkeypatch.setattr(datasets_module, "CSV_READ_BYTES", block_bytes)
        path = tmp_path / "bad.csv"
        path.write_text("f0,w,y\n0.5,1,2.0\n0.2,0,1\n\n0.3,1,1_0\n")
        with pytest.raises(DatasetError) as err:
            load_table_csv(path)
        assert str(err.value) == f"{path}: rows {lines}: could not convert string '1_0' to float64"

    @pytest.mark.parametrize("text", ["f0,w,y\n0.5,1,2.0\n0.2,0,oops\n",
                                      "f0,w,y\n0.5,1,2.0\n0.2,2,1\n"])
    def test_failed_read_opens_the_file_once(self, tmp_path, monkeypatch, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        with pytest.raises(DatasetError, match="row 3"):
            load_dataset_csv(path)
        assert opened == [path]

    @pytest.mark.parametrize("block_bytes", [1, 25])
    @pytest.mark.parametrize("text, cause", [
        ("f0,w,y\n0.5,1,2.0\n0.2,0,1\n0.3,1\n", "row 4 has 2 cells, expected 3"),
        ("f0,w,y\n0.5,1,2.0\n0.2,0,1\n0.3,1,2,4\n", "row 4 has 4 cells, expected 3"),
        ("f0,w,y\n0.5,1,2.0\n0.2,0,1\n0.3,x,2\n", "non-numeric cell at row 4, column 'w'"),
        ("f0,w,y\n\n\n", "no data rows"),
    ])
    def test_bad_row_in_a_later_block(self, tmp_path, monkeypatch, block_bytes, text, cause):
        monkeypatch.setattr(datasets_module, "CSV_READ_BYTES", block_bytes)
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DatasetError, match=cause):
            load_table_csv(path)
