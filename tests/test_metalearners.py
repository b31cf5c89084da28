import json
from dataclasses import replace
from decimal import Decimal
from functools import partial
from unittest import mock

import numpy as np
import pytest

from rxlearner import boosting, metalearners
from rxlearner.boosting import BoostConfig, BoostedEnsemble
from rxlearner.datasets import CausalDataset, ContaminationSpec, ScenarioSpec, generate_synthetic
from rxlearner.losses import GAMMA_WELSCH, LOGISTIC, SQUARED, LossSpec
from rxlearner.metalearners import (
    LEARNERS,
    AggregationScheme,
    FittedCate,
    MetaLearnerError,
    MetaLearnerSpec,
    aggregation_weights,
    estimate_arm_variance,
    fit_meta,
    fit_propensity,
    impute_pseudo_outcomes,
    learner_spec,
    load_meta,
    mse_x_spec,
    predict_cate,
    rx_spec,
    save_meta,
)

FAST = BoostConfig(n_rounds=60)


def constant_model(value, n_features=1):
    return BoostedEnsemble(base_prediction=float(value), n_features=n_features,
                           loss_spec=LossSpec(kind=SQUARED))


def balanced_dataset(n=200, seed=0, **kwargs):
    return generate_synthetic(ScenarioSpec(n=n, treated_fraction=0.5, seed=seed, **kwargs))


class TestSpecs:
    def test_rx_requires_welsch_both_stages(self):
        with pytest.raises(MetaLearnerError, match="gamma_welsch"):
            MetaLearnerSpec(kind="rx", loss=LossSpec(kind=SQUARED))

    def test_factories(self):
        assert rx_spec().loss.kind == GAMMA_WELSCH
        assert rx_spec(gamma=0.5).loss.gamma == 0.5
        assert rx_spec(gamma=0.5) == learner_spec("rx", gamma=0.5)
        assert mse_x_spec().aggregation.kind == "propensity"
        assert mse_x_spec() == learner_spec("mse_x")
        assert learner_spec("huber_x").loss.kind == "huber"
        assert learner_spec("huber_x", delta_multiplier=2.0).loss.delta_multiplier == 2.0
        assert learner_spec("winsorized_x").kind == "winsorized_x"
        assert learner_spec("dr_clipped").kind == "dr_clipped"
        assert learner_spec("t").kind == "t"

    @pytest.mark.parametrize("kind", ["t", "x", "rx", "dr_clipped", "winsorized_x"])
    def test_logistic_loss_rejected_for_outcome_models(self, kind):
        # The logistic loss is the propensity fit's; config cannot name a loss kind.
        with pytest.raises(MetaLearnerError, match="'logistic' loss fits propensities"):
            MetaLearnerSpec(kind=kind, loss=LossSpec(kind=LOGISTIC))

    def test_unknown_kind_rejected(self):
        with pytest.raises(MetaLearnerError):
            MetaLearnerSpec(kind="s")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.5", True, Decimal("0.5")])
    def test_real_fields_must_be_finite_numbers(self, value):
        with pytest.raises(MetaLearnerError, match="^g must be a finite number, got "):
            AggregationScheme(g=value)
        with pytest.raises(MetaLearnerError, match="^propensity_value must be a finite number, got "):
            MetaLearnerSpec(propensity_value=value)
        assert MetaLearnerSpec(propensity_value=None).propensity_value is None

    def test_fixed_aggregation_bounds(self):
        with pytest.raises(MetaLearnerError):
            AggregationScheme(kind="fixed", g=1.5)
        with pytest.raises(MetaLearnerError):
            AggregationScheme(kind="mystery")


class TestImputation:
    def test_hand_example(self):
        # treated unit with Y=4 and mu0(x)=1 gives pseudo-outcome d1 = 3
        data = CausalDataset(
            features=np.array([[0.0], [1.0]]),
            treatment=np.array([1, 0]),
            outcome=np.array([4.0, 2.0]),
        )
        d1, d0 = impute_pseudo_outcomes(constant_model(1.0), constant_model(5.0), data)
        assert d1.tolist() == [3.0]
        assert d0.tolist() == [3.0]  # mu1 - Y = 5 - 2

    def test_empty_arm_rejected(self):
        data = CausalDataset(np.ones((2, 1)), np.array([1, 1]), np.zeros(2))
        with pytest.raises(MetaLearnerError):
            impute_pseudo_outcomes(constant_model(0.0), constant_model(0.0), data)


class TestPropensity:
    def test_known_constant_uses_true_propensity(self):
        data = generate_synthetic(ScenarioSpec(n=2000, treated_fraction=0.02, seed=0))
        const, model = fit_propensity(data, rx_spec())
        assert const == 0.02 and model is None
        fitted = fit_meta(data, rx_spec(boost_config=FAST))
        np.testing.assert_allclose(fitted.propensity_at(data.features[:5]), 0.02)

    def test_known_constant_override_value(self):
        data = balanced_dataset()
        spec = MetaLearnerSpec(kind="x", loss=LossSpec(kind=SQUARED),
                               propensity_value=0.3)
        const, _ = fit_propensity(data, spec)
        assert const == 0.3

    def test_observed_fraction_fallback(self):
        data = CausalDataset(np.ones((4, 1)), np.array([1, 0, 0, 0]), np.zeros(4))
        spec = MetaLearnerSpec(kind="x", loss=LossSpec(kind=SQUARED))
        const, _ = fit_propensity(data, spec)
        assert const == 0.25

    def test_no_propensity_source_raises(self):
        model = FittedCate(kind="x", mu0=constant_model(0.0), mu1=constant_model(0.0),
                           aggregation=AggregationScheme(kind="propensity"))
        with pytest.raises(MetaLearnerError, match="propensity"):
            aggregation_weights(model, np.zeros((2, 1)))

    def test_fitted_propensity_clipped(self):
        data = balanced_dataset(n=400, seed=2)
        spec = MetaLearnerSpec(kind="x", loss=LossSpec(kind=SQUARED),
                               propensity="fitted", boost_config=FAST)
        const, model = fit_propensity(data, spec)
        assert const is None and model is not None
        fitted = fit_meta(data, spec)
        p = fitted.propensity_at(data.features)
        assert p.min() >= 0.01 and p.max() <= 0.99


class TestArmVariance:
    def test_zero_residuals_floored(self):
        var = estimate_arm_variance(constant_model(2.0), np.zeros((10, 1)), np.full(10, 2.0))
        assert var >= 1e-16
        # MAD floor squared over n, never zero
        assert var == pytest.approx(1e-16 / 10, rel=1e-9) or var == 1e-16

    def test_scales_inversely_with_arm_size(self):
        rng = np.random.default_rng(0)
        resid = rng.normal(size=1000)
        small = estimate_arm_variance(constant_model(0.0), np.zeros((10, 1)), resid[:10])
        big = estimate_arm_variance(constant_model(0.0), np.zeros((1000, 1)), resid)
        assert small > big


class TestAggregation:
    def make(self, v0, v1, agg=None):
        return FittedCate(
            kind="rx", mu0=constant_model(0.0), mu1=constant_model(0.0),
            tau0=constant_model(1.0), tau1=constant_model(3.0),
            arm_variance=(v0, v1),
            aggregation=agg or AggregationScheme(kind="inverse_variance"),
        )

    def test_equal_variances_mean(self):
        g = aggregation_weights(self.make(2.0, 2.0), np.zeros((4, 1)))
        np.testing.assert_allclose(g, 0.5)
        tau = predict_cate(self.make(2.0, 2.0), np.zeros((4, 1)))
        np.testing.assert_allclose(tau, 2.0)  # arithmetic mean of 1 and 3

    def test_substitution_one_to_four(self):
        # v0=1, v1=4: weight on tau0 = (1/1) / (1/1 + 1/4) = 0.8
        g = aggregation_weights(self.make(1.0, 4.0), np.zeros((3, 1)))
        np.testing.assert_allclose(g, 0.8)

    def test_hundredfold_arm_size(self):
        # same spread, n0 = 100 n1 -> v0 = v1/100 -> weight 100/101
        g = aggregation_weights(self.make(0.01, 1.0), np.zeros((1, 1)))
        np.testing.assert_allclose(g, 100.0 / 101.0)
        assert round(float(g[0]), 3) == 0.990

    def test_fixed_one_returns_tau0_exactly(self):
        model = self.make(1.0, 1.0, AggregationScheme(kind="fixed", g=1.0))
        tau = predict_cate(model, np.zeros((5, 1)))
        np.testing.assert_array_equal(tau, 1.0)

    def test_weights_in_unit_interval(self):
        for v0, v1 in [(1e-16, 1.0), (1.0, 1e-16), (5.0, 0.1)]:
            g = aggregation_weights(self.make(v0, v1), np.zeros((2, 1)))
            assert np.all((g >= 0.0) & (g <= 1.0))

    def test_propensity_scheme_uses_pi(self):
        model = self.make(1.0, 1.0, AggregationScheme(kind="propensity"))
        model.propensity_constant = 0.02
        g = aggregation_weights(model, np.zeros((2, 1)))
        np.testing.assert_allclose(g, 0.02)


class TestFitMeta:
    def test_rx_recovers_constant_effect_noiseless(self):
        spec = ScenarioSpec(
            n=400, treated_fraction=0.5, tau_form="constant", tau_value=3.0,
            mu0_form="zero", seed=1,
            contamination=ContaminationSpec(rate=0.0, core_sd=1e-6),
        )
        data = generate_synthetic(spec)
        model = fit_meta(data, rx_spec(boost_config=BoostConfig(n_rounds=150)))
        tau = predict_cate(model, data.features)
        assert np.max(np.abs(tau - 3.0)) < 0.1

    def test_t_and_x_agree_noiseless_balanced(self):
        spec = ScenarioSpec(
            n=400, treated_fraction=0.5, tau_form="constant", tau_value=2.0,
            mu0_form="zero", seed=2,
            contamination=ContaminationSpec(rate=0.0, core_sd=1e-6),
        )
        data = generate_synthetic(spec)
        cfg = BoostConfig(n_rounds=150)
        t_pred = predict_cate(fit_meta(data, learner_spec("t", cfg)), data.features)
        x_pred = predict_cate(fit_meta(data, mse_x_spec(boost_config=cfg)), data.features)
        assert np.max(np.abs(t_pred - x_pred)) < 0.1

    def test_degenerate_arm_error_names_arm(self):
        data = CausalDataset(np.random.default_rng(0).normal(size=(50, 2)),
                             np.r_[np.ones(2, dtype=int), np.zeros(48, dtype=int)],
                             np.zeros(50))
        with pytest.raises(MetaLearnerError, match="treated"):
            fit_meta(data, mse_x_spec())

    def test_winsorized_x_caps_whale_influence(self):
        spec = ScenarioSpec(
            n=400, treated_fraction=0.5, seed=3,
            contamination=ContaminationSpec(rate=0.05, tail_scale=500.0, tail_arm="both"),
        )
        data = generate_synthetic(spec)
        plain = fit_meta(data, mse_x_spec(boost_config=FAST))
        wins = fit_meta(data, learner_spec("winsorized_x", FAST))
        err_plain = np.sqrt(np.mean((predict_cate(plain, data.features) - data.true_cate) ** 2))
        err_wins = np.sqrt(np.mean((predict_cate(wins, data.features) - data.true_cate) ** 2))
        assert err_wins < err_plain

    def test_dr_clipped_runs_and_uses_final_model(self):
        data = balanced_dataset(n=300, seed=4)
        model = fit_meta(data, learner_spec("dr_clipped", FAST))
        assert model.final_model is not None
        tau = predict_cate(model, data.features)
        assert tau.shape == (300,) and np.all(np.isfinite(tau))

    def test_deterministic(self):
        data = balanced_dataset(n=200, seed=5)
        a = predict_cate(fit_meta(data, rx_spec(boost_config=FAST)), data.features)
        b = predict_cate(fit_meta(data, rx_spec(boost_config=FAST)), data.features)
        np.testing.assert_array_equal(a, b)


INVARIANT_LEARNERS = ("huber_x", "mse_x", "rx")
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def invariant_data():
    return generate_synthetic(ScenarioSpec(n=300, treated_fraction=0.3, seed=9,
                                           contamination=ContaminationSpec(rate=0.1)))


def fitted_cate(data, learner, outcome=None):
    if outcome is not None:
        data = replace(data, outcome=outcome)
    return predict_cate(fit_meta(data, learner_spec(learner, BoostConfig(n_rounds=20))),
                        data.features)


@pytest.fixture(scope="module")
def whale_data():
    """Pareto whales in both arms; an absolute split-gain floor stops splits here below 2**-20."""
    return generate_synthetic(ScenarioSpec(n=1000, treated_fraction=0.2, seed=3,
                                           contamination=ContaminationSpec(rate=0.1,
                                                                           tail_arm="both")))


@pytest.fixture(scope="module")
def whale_cate(whale_data):
    """Each learner's CATE on whale_data at outcome scale 2**k; the fits are shared."""
    cache = {}

    def cate(learner, k):
        if (learner, k) not in cache:
            data = replace(whale_data, outcome=whale_data.outcome * 2.0 ** k)
            spec = learner_spec(learner, BoostConfig(n_rounds=30))
            cache[learner, k] = predict_cate(fit_meta(data, spec), data.features)
        return cache[learner, k]
    return cate


class TestInvariants:
    """Properties the estimator has exactly in real arithmetic; the tolerances
    allow a few dozen units of rounding at the scale of the values compared."""

    # Multiplying by a power of two is exact, so every fit is the same fit in other
    # units. Below 2**-20 the MAD scale of rx and huber_x reaches losses.SCALE_FLOOR
    # (and rx's arm variances VARIANCE_FLOOR), so those cases are not listed.
    @pytest.mark.parametrize("learner, k", [
        *(("mse_x", k) for k in (-40, -30, -20, 20, 40)),
        *((learner, k) for learner in ("huber_x", "rx") for k in (-20, 20, 40)),
    ])
    def test_power_of_two_outcome_scale_is_exact(self, whale_cate, learner, k):
        assert (whale_cate(learner, k) / 2.0 ** k).tobytes() == whale_cate(learner, 0).tobytes()

    @pytest.mark.parametrize("learner", ["t", *INVARIANT_LEARNERS])
    def test_swapping_arms_negates_cate(self, invariant_data, learner):
        # The arms trade places and the propensity p becomes 1 - p. The T-learner's
        # mu1 - mu0 negates exactly; the X-learners weigh tau0 and tau1 by g and 1 - g.
        data = invariant_data
        swapped = replace(data, treatment=1 - data.treatment,
                          true_propensity=1.0 - data.true_propensity)
        spec = learner_spec(learner, BoostConfig(n_rounds=20))
        base = predict_cate(fit_meta(data, spec), data.features)
        got = predict_cate(fit_meta(swapped, spec), data.features)
        if learner == "t":
            assert got.tobytes() == (-base).tobytes()
        else:
            assert np.max(np.abs(got + base)) <= 64 * EPS * np.max(np.abs(base))

    @pytest.mark.parametrize("learner", INVARIANT_LEARNERS)
    @pytest.mark.parametrize("k", [10.0, 1e-3])
    def test_scaling_outcomes_scales_cate(self, invariant_data, learner, k):
        base = fitted_cate(invariant_data, learner)
        scaled = fitted_cate(invariant_data, learner, invariant_data.outcome * k)
        assert np.max(np.abs(scaled - k * base)) <= 64 * EPS * np.max(np.abs(k * base))

    @pytest.mark.parametrize("learner", INVARIANT_LEARNERS)
    @pytest.mark.parametrize("c", [1e3, -7.5])
    def test_shifting_outcomes_leaves_cate(self, invariant_data, learner, c):
        base = fitted_cate(invariant_data, learner)
        shifted = fitted_cate(invariant_data, learner, invariant_data.outcome + c)
        y_max = np.max(np.abs(invariant_data.outcome))
        assert np.max(np.abs(shifted - base)) <= 64 * EPS * (abs(c) + y_max)

    @pytest.mark.parametrize("learner", INVARIANT_LEARNERS)
    def test_permuting_rows_leaves_cate(self, invariant_data, learner):
        # Holds to rounding, not bit for bit: tied feature values and the sums
        # over them are visited in another order.
        data = invariant_data
        perm = np.random.default_rng(0).permutation(data.n_units)
        permuted = CausalDataset(data.features[perm], data.treatment[perm], data.outcome[perm])
        got = predict_cate(fit_meta(permuted, learner_spec(learner, BoostConfig(n_rounds=20))),
                           data.features)
        base = fitted_cate(data, learner)
        assert np.max(np.abs(got - base)) <= 64 * EPS * np.max(np.abs(base))


class TestBundleIO:
    @pytest.mark.parametrize("name", sorted(LEARNERS))
    def test_every_learner_round_trips_bit_exact(self, tmp_path, name):
        data = balanced_dataset(n=200, seed=6)
        model = fit_meta(data, learner_spec(name, BoostConfig(n_rounds=20)))
        save_meta(model, tmp_path / "bundle.json")
        back = load_meta(tmp_path / "bundle.json")
        assert (predict_cate(back, data.features).tobytes()
                == predict_cate(model, data.features).tobytes())
        assert (back.kind, back.arm_variance, back.aggregation) == (
            model.kind, model.arm_variance, model.aggregation)
        for part in ("mu0", "mu1", "tau0", "tau1", "final_model", "propensity_model"):
            saved, loaded = getattr(model, part), getattr(back, part)
            assert (saved is None) == (loaded is None)
            if saved is None:
                continue
            for tree, want in zip(loaded.trees, saved.trees, strict=True):
                for array, _ in boosting.TREE_ARRAYS:
                    got, expected = getattr(tree, array), getattr(want, array)
                    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_round_trip_predictions(self, tmp_path):
        data = balanced_dataset(n=200, seed=6)
        model = fit_meta(data, rx_spec(boost_config=FAST))
        save_meta(model, tmp_path / "bundle.json")
        back = load_meta(tmp_path / "bundle.json")
        np.testing.assert_array_equal(
            predict_cate(back, data.features), predict_cate(model, data.features)
        )
        assert back.arm_variance == pytest.approx(model.arm_variance)
        assert back.aggregation == model.aggregation

    def test_t_learner_bundle_has_no_stage3(self, tmp_path):
        data = balanced_dataset(n=200, seed=7)
        model = fit_meta(data, learner_spec("t", FAST))
        save_meta(model, tmp_path / "bundle.json")
        back = load_meta(tmp_path / "bundle.json")
        assert back.tau0 is None and back.tau1 is None
        np.testing.assert_array_equal(
            predict_cate(back, data.features), predict_cate(model, data.features)
        )

    def test_save_writes_one_file(self, tmp_path):
        model = fit_meta(balanced_dataset(n=200, seed=8), learner_spec("t", FAST))
        path = tmp_path / "new" / "dir" / "bundle.json"
        save_meta(model, path)  # creates the missing parent directories
        save_meta(model, path)  # and replaces the file it wrote
        assert [p.name for p in (tmp_path / "new" / "dir").iterdir()] == ["bundle.json"]
        assert sorted(json.loads(path.read_text())["parts"]) == ["mu0", "mu1"]

    @pytest.mark.parametrize("version", [99, 1, "2", None])
    def test_wrong_format_version(self, tmp_path, version):
        data = balanced_dataset(n=200, seed=8)
        model = fit_meta(data, learner_spec("t", FAST))
        path = tmp_path / "bundle.json"
        save_meta(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(MetaLearnerError) as err:
            load_meta(path)
        assert str(err.value) == (f"{path}: malformed bundle: unsupported format version "
                                  f"{version!r} (expected 2)")

    def test_propensity_saved_as_squared_loads_the_same(self, tmp_path):
        data = balanced_dataset(n=200, seed=9)
        spec = replace(mse_x_spec(boost_config=BoostConfig(n_rounds=20)), propensity="fitted")
        model = fit_meta(data, spec)
        path = tmp_path / "bundle.json"
        save_meta(model, path)
        doc = json.loads(path.read_text())
        loss_spec = doc["parts"]["propensity_model"]["loss_spec"]
        assert loss_spec["kind"] == LOGISTIC  # the loss it was fit with
        loss_spec["kind"] = SQUARED  # what bundles saved before the logistic kind
        path.write_text(json.dumps(doc))
        back = load_meta(path)
        assert back.propensity_model.loss_spec.kind == SQUARED
        assert (back.propensity_at(data.features).tobytes()
                == model.propensity_at(data.features).tobytes())
        assert (predict_cate(back, data.features).tobytes()
                == predict_cate(model, data.features).tobytes())

    def test_failed_resave_leaves_the_previous_bundle(self, tmp_path):
        data = balanced_dataset(n=200, seed=6)
        path = tmp_path / "bundle.json"
        old = fit_meta(data, rx_spec(boost_config=FAST))
        save_meta(old, path)
        want = predict_cate(old, data.features).tobytes()
        new = fit_meta(data, mse_x_spec(boost_config=FAST))
        with mock.patch.object(metalearners.os, "replace", side_effect=OSError("disk full")):
            with pytest.raises(OSError, match="disk full"):
                save_meta(new, path)
        assert [p.name for p in tmp_path.iterdir()] == ["bundle.json"]  # no temporary file left
        assert predict_cate(load_meta(path), data.features).tobytes() == want
        # json cannot encode a Decimal, so the text fails before any file is opened
        new.arm_variance = (Decimal(1), 1.0)
        with pytest.raises(TypeError, match="Decimal"):
            save_meta(new, path)
        assert [p.name for p in tmp_path.iterdir()] == ["bundle.json"]
        assert predict_cate(load_meta(path), data.features).tobytes() == want

    @pytest.mark.parametrize("key, value, message", [
        ("propensity_constant", "0.5", "propensity_constant must be a finite number, got '0.5'"),
        ("propensity_constant", True, "propensity_constant must be a finite number, got True"),
        ("arm_variance", ["1", True], "arm_variance[0] must be a finite number, got '1'"),
        ("arm_variance", [1.0, True], "arm_variance[1] must be a finite number, got True"),
        ("arm_variance", [1.0, None], "arm_variance[1] must be a finite number, got None"),
        ("arm_variance", [0.0, 1.0], "arm_variance[0] must be > 0, got 0.0"),
        ("arm_variance", [1.0, -2], "arm_variance[1] must be > 0, got -2"),
        ("arm_variance", [1.0], "not enough values to unpack"),
    ])
    def test_bundle_scalars_checked(self, tmp_path, key, value, message):
        path = tmp_path / "bundle.json"
        save_meta(fit_meta(balanced_dataset(n=200, seed=8), learner_spec("t", FAST)), path)
        doc = json.loads(path.read_text())
        assert doc["propensity_constant"] is not None  # the t learner's is known
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MetaLearnerError) as err:
            load_meta(path)
        assert str(err.value).startswith(f"{path}: malformed bundle: {message}")

    def test_missing_bundle(self, tmp_path):
        with pytest.raises(MetaLearnerError, match="nope.json: cannot read bundle"):
            load_meta(tmp_path / "nope.json")

    @pytest.mark.parametrize("text", ["[1]", "null"])
    def test_bundle_not_an_object(self, tmp_path, text):
        path = tmp_path / "bundle.json"
        path.write_text(text)
        with pytest.raises(MetaLearnerError) as err:
            load_meta(path)
        assert str(err.value) == f"{path}: malformed bundle: expected a JSON object, got {text}"

    def test_bundle_that_is_not_json(self, tmp_path):
        path = tmp_path / "bundle.json"
        path.write_text("{not json")
        with pytest.raises(MetaLearnerError, match="bundle.json: malformed bundle: Expecting"):
            load_meta(path)


SHARED_INDEX_SPECS = {
    **{name: partial(learner_spec, name) for name in LEARNERS},
    "rx_fitted_propensity": lambda boost_config: replace(rx_spec(boost_config=boost_config),
                                                         propensity="fitted"),
}
# Fits on one matrix each: stage 1 (2), then stage 3 (2) or dr's final model
# (1), plus the propensity when it is fitted. The fits on the full matrix
# (dr's final model, the propensity) index it themselves.
FITS = {"t": 2, "mse_x": 4, "huber_x": 4, "rx": 4, "dr_clipped": 3, "winsorized_x": 4,
        "rx_fitted_propensity": 5}
FULL_MATRIX_FITS = {"dr_clipped": 1, "rx_fitted_propensity": 1}


class TestSharedFeatureIndex:
    """fit_meta sorts each arm once and passes its index to every fit on the
    arm; that must predict exactly what an index built for every fit predicts."""

    @pytest.mark.parametrize("learner", sorted(SHARED_INDEX_SPECS))
    def test_predictions_match_an_index_per_fit(self, invariant_data, learner):
        spec = SHARED_INDEX_SPECS[learner](boost_config=BoostConfig(n_rounds=20))

        def fit(arm_index):
            # Count every index built by wrapping __init__: the fits test
            # isinstance(X, boosting.FeatureIndex), so the class itself stays.
            init = boosting.FeatureIndex.__init__
            with mock.patch.object(boosting.FeatureIndex, "__init__", autospec=True,
                                   side_effect=init) as built, \
                    mock.patch.object(metalearners, "FeatureIndex",
                                      side_effect=arm_index) as built_per_arm:
                cate = predict_cate(fit_meta(invariant_data, spec), invariant_data.features)
            return cate, built_per_arm.call_count, built.call_count

        shared, arms, built = fit(boosting.FeatureIndex)
        assert (arms, built - arms) == (2, FULL_MATRIX_FITS.get(learner, 0))
        # Pass each arm's matrix on as it is, so every fit builds its own index.
        rebuilt, arms, built = fit(lambda X: X)
        assert (arms, built) == (2, FITS[learner])
        assert shared.tobytes() == rebuilt.tobytes()


class TestCompileOnce:
    def test_each_part_compiles_once(self, tmp_path):
        data = balanced_dataset(n=200, seed=8)
        spec = replace(mse_x_spec(boost_config=BoostConfig(n_rounds=20)), propensity="fitted")
        with mock.patch.object(boosting, "_compile", wraps=boosting._compile) as compile_:
            model = fit_meta(data, spec)  # imputation and arm variances predict with four parts
            want = predict_cate(model, data.features)
            assert predict_cate(model, data.features).tobytes() == want.tobytes()
        assert compile_.call_count == 5  # mu0, mu1, tau0, tau1, propensity_model: as each is fit
        save_meta(model, tmp_path / "bundle.json")
        with mock.patch.object(boosting, "_compile", wraps=boosting._compile) as compile_:
            loaded = load_meta(tmp_path / "bundle.json")
            first = predict_cate(loaded, data.features)
            second = predict_cate(loaded, data.features)
        assert compile_.call_count == 5  # as load_meta builds each part, kept for every predict
        assert first.tobytes() == second.tobytes() == want.tobytes()
