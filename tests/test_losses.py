import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxlearner.losses import (
    GAMMA_WELSCH,
    HUBER,
    LOGISTIC,
    SCALE_FLOOR,
    SQUARED,
    LossSpec,
    gamma_loss,
    gradient_and_weight,
    huber_loss,
    loss_value,
    mad_scale,
    pointwise_gamma_loss,
    quadratic_majorizer,
    squared_loss,
    welsch_weight,
)

WELSCH = LossSpec(kind=GAMMA_WELSCH, gamma=0.2, scale=1.0)


class TestLossSpec:
    def test_defaults(self):
        spec = LossSpec()
        assert spec.kind == GAMMA_WELSCH
        assert spec.gamma == 0.2
        assert spec.scale == 1.0

    def test_huber_delta(self):
        spec = LossSpec(kind=HUBER, delta_multiplier=1.345, scale=2.0)
        assert spec.huber_delta == pytest.approx(2.69)

    @pytest.mark.parametrize("bad", [
        dict(kind="absolute"),
        dict(gamma=0.0),
        dict(gamma=-1.0),
        dict(delta_multiplier=0.0),
        dict(scale=0.0),
    ])
    def test_rejects_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            LossSpec(**bad)


class TestMadScale:
    def test_hand_example(self):
        # median 3, abs deviations [2,1,0,1,97], MAD 1
        assert mad_scale([1, 2, 3, 4, 100]) == pytest.approx(1.4826, abs=1e-12)

    def test_constant_vector_hits_floor(self):
        assert mad_scale([5.0] * 7) == SCALE_FLOOR

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mad_scale([])

    def test_standard_normal_calibration(self):
        rng = np.random.default_rng(0)
        est = mad_scale(rng.normal(size=100_000))
        assert abs(est - 1.0) < 0.02


class TestWelschWeight:
    def test_zero_residual_gives_unit_weight(self):
        assert welsch_weight(0.0, WELSCH) == 1.0

    def test_inflection_substitution(self):
        # r^2 = 2 sigma^2 / gamma puts the exponent at exactly -1
        r = np.sqrt(2.0 * WELSCH.scale**2 / WELSCH.gamma)
        assert welsch_weight(r, WELSCH) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_large_residual_vanishes(self):
        r = 20.0 * WELSCH.scale / np.sqrt(WELSCH.gamma)
        assert welsch_weight(r, WELSCH) < 1e-80

    def test_requires_welsch_spec(self):
        with pytest.raises(ValueError):
            welsch_weight(1.0, LossSpec(kind=SQUARED))


class TestGammaLoss:
    def test_minimum_at_zero_residuals(self):
        assert gamma_loss(np.zeros(5), WELSCH) == pytest.approx(-25.0, abs=1e-12)

    def test_single_inflection_residual(self):
        r = np.sqrt(2.0 * WELSCH.scale**2 / WELSCH.gamma)
        expected = -np.exp(-1.0) / WELSCH.gamma
        assert gamma_loss([r], WELSCH) == pytest.approx(expected, abs=1e-12)

    def test_whale_contribution_is_bounded(self):
        base = np.array([0.1, -0.5, 1.2])
        with_whale = np.append(base, 50.0 * WELSCH.scale)
        delta = abs(gamma_loss(with_whale, WELSCH) - gamma_loss(base, WELSCH))
        assert delta < 1e-6

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_lower_bound_is_minus_n_over_gamma(self, rs):
        n = len(rs)
        val = gamma_loss(np.array(rs), WELSCH)
        assert val >= -n / WELSCH.gamma - 1e-9
        assert val <= 0.0


class TestOtherLosses:
    def test_squared(self):
        assert squared_loss([3.0, -4.0]) == pytest.approx(12.5)

    def test_huber_quadratic_region(self):
        spec = LossSpec(kind=HUBER, delta_multiplier=1.345, scale=1.0)
        assert huber_loss([1.0], spec) == pytest.approx(0.5)

    def test_huber_linear_region(self):
        spec = LossSpec(kind=HUBER, delta_multiplier=1.0, scale=1.0)
        # |r|=3, delta=1: 1*3 - 0.5
        assert huber_loss([3.0], spec) == pytest.approx(2.5)

    def test_loss_value_dispatch(self):
        r = np.array([0.5, -1.5])
        assert loss_value(r, LossSpec(kind=SQUARED)) == squared_loss(r)
        hub = LossSpec(kind=HUBER)
        assert loss_value(r, hub) == huber_loss(r, hub)
        assert loss_value(r, WELSCH) == gamma_loss(r, WELSCH)

    @pytest.mark.parametrize("function", [loss_value, gradient_and_weight])
    def test_logistic_spec_rejected_by_its_kind(self, function):
        with pytest.raises(ValueError, match=f"{function.__name__} takes residuals, and the "
                                             "'logistic' loss has no residual form"):
            function(np.array([0.5, -1.5]), LossSpec(kind=LOGISTIC))


class TestGradientAndWeight:
    def test_welsch_at_zero(self):
        g, w = gradient_and_weight(np.array(0.0), WELSCH)
        assert g == 0.0 and w == 1.0

    def test_squared_identity(self):
        g, w = gradient_and_weight(np.array(3.0), LossSpec(kind=SQUARED))
        assert g == -3.0 and w == 1.0

    def test_huber_clips_pull_at_delta(self):
        spec = LossSpec(kind=HUBER, delta_multiplier=1.0, scale=1.0)
        g, w = gradient_and_weight(np.array([0.5, 10.0, -10.0]), spec)
        np.testing.assert_allclose(g, [-0.5, -1.0, 1.0])
        np.testing.assert_allclose(w, [1.0, 0.1, 0.1])

    @given(st.floats(-50, 50), st.sampled_from([0.1, 0.2, 0.5, 1.0]))
    def test_welsch_gradient_equals_minus_weight_times_r(self, r, gamma):
        spec = LossSpec(kind=GAMMA_WELSCH, gamma=gamma)
        g, w = gradient_and_weight(np.array(r), spec)
        assert g == -welsch_weight(r, spec) * r
        assert w == welsch_weight(r, spec)

    def test_redescending_peak_location(self):
        # |gradient| peaks at |r| = sigma / sqrt(gamma), then returns to 0
        grid = np.linspace(0.0, 20.0, 200_001)
        g, _ = gradient_and_weight(grid, WELSCH)
        peak = grid[np.argmax(np.abs(g))]
        assert peak == pytest.approx(WELSCH.scale / np.sqrt(WELSCH.gamma), abs=1e-3)
        assert abs(g[-1]) < abs(g[len(g) // 2]) < np.max(np.abs(g))

    def test_finite_difference_match(self):
        h = 1e-6
        for gamma in (0.1, 0.2, 0.5, 1.0):
            spec = LossSpec(kind=GAMMA_WELSCH, gamma=gamma, scale=1.0)
            for r in np.linspace(-10, 10, 81):
                if abs(r) < 1e-3:
                    continue
                # gradient is w.r.t. the prediction F (r = y - F)
                fd = (gamma_loss([r - h], spec) - gamma_loss([r + h], spec)) / (2 * h)
                g, _ = gradient_and_weight(np.array(r), spec)
                assert abs(g - fd) / max(abs(fd), 1e-12) < 1e-6


class TestHuberWeight:
    """min(1, delta/|r|), computed only where |r| > delta, so no residual overflows it."""

    SPEC = LossSpec(kind=HUBER, delta_multiplier=1.345, scale=1.0)

    @staticmethod
    def unguarded(r, d):
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(np.abs(r) > 0, np.minimum(1.0, d / np.abs(r)), 1.0)

    def test_subnormal_and_extreme_residuals_warn_nothing(self):
        d = self.SPEC.huber_delta
        r = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, d, -d, np.nextafter(d, 0),
                      np.nextafter(d, np.inf), 10.0, -1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, w = gradient_and_weight(r, self.SPEC)
            _, w0 = gradient_and_weight(np.array(5e-324), self.SPEC)
        assert w.tobytes() == self.unguarded(r, d).tobytes()
        assert g.tobytes() == (-np.clip(r, -d, d)).tobytes()
        assert w0.shape == () and w0 == 1.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
    def test_same_weights_as_the_unguarded_division(self, residuals):
        r = np.asarray(residuals)
        _, w = gradient_and_weight(r, self.SPEC)
        assert w.tobytes() == self.unguarded(r, self.SPEC.huber_delta).tobytes()


class TestQuadraticMajorizer:
    def test_upper_bounds_loss_on_grid(self):
        r0s = np.linspace(-10, 10, 100)
        rs = np.linspace(-10, 10, 100)
        R0, R = np.meshgrid(r0s, rs)
        q = quadratic_majorizer(R, R0, WELSCH)
        rho = pointwise_gamma_loss(R, WELSCH)
        assert np.all(q - rho >= -1e-12)

    def test_tight_at_anchor(self):
        r0 = np.linspace(-10, 10, 100)
        q = quadratic_majorizer(r0, r0, WELSCH)
        rho = pointwise_gamma_loss(r0, WELSCH)
        np.testing.assert_allclose(q, rho, atol=1e-12)

    @settings(max_examples=200)
    @given(
        st.floats(-20, 20), st.floats(-20, 20),
        st.sampled_from([0.1, 0.2, 0.5, 1.0]),
        st.sampled_from([0.5, 1.0, 3.0]),
    )
    def test_majorization_property(self, r, r0, gamma, scale):
        spec = LossSpec(kind=GAMMA_WELSCH, gamma=gamma, scale=scale)
        q = quadratic_majorizer(np.array(r), np.array(r0), spec)
        rho = pointwise_gamma_loss(np.array(r), spec)
        assert q >= rho - 1e-12

    def test_requires_welsch_spec(self):
        with pytest.raises(ValueError):
            quadratic_majorizer(1.0, 1.0, LossSpec(kind=SQUARED))
