"""Loss family: squared error, Huber, the Welsch (exponential) loss, and the
logistic loss of the propensity fit.

All functions are pure and vectorized over residual arrays. The Welsch loss
uses a fixed scale anchor, estimated once via MAD of the initial residuals.

A boosting round takes three things from its loss: the start value and
anchored spec (:func:`_start`), the tree target and weight (the Proxy Hessian;
:func:`_working_response`) and the training loss (:func:`_objective`). The
logistic kind is Friedman's binomial-deviance boosting (Ann. Statist. 2001).
The three are private so the benchmark's span trace, which wraps public
functions, sees each ``loss_value`` call as a child of its ``fit_boosted``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

SQUARED = "squared"
HUBER = "huber"
GAMMA_WELSCH = "gamma_welsch"
LOGISTIC = "logistic"  # binary labels; only the propensity fit uses it

LOSS_KINDS = (SQUARED, HUBER, GAMMA_WELSCH, LOGISTIC)


@dataclass(frozen=True)
class LossSpec:
    """Objective family plus its robustness parameters.

    ``scale`` is the anchor sigma-hat. It is a placeholder until a fitting
    routine resolves it from the data (see :func:`rxlearner.boosting.fit_boosted`),
    after which it stays fixed.
    """

    kind: str = GAMMA_WELSCH
    gamma: float = 0.2
    delta_multiplier: float = 1.345
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        for name in ("gamma", "delta_multiplier", "scale"):
            _check_real(name, getattr(self, name), ValueError)
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.delta_multiplier <= 0:
            raise ValueError("delta_multiplier must be > 0")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")

    @property
    def huber_delta(self) -> float:
        return self.delta_multiplier * self.scale


def _check_real(name, value, error) -> None:
    """Raise ``error`` unless value is a finite int, float or numpy real, not a bool."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not np.isfinite(value)):
        raise error(f"{name} must be a finite number, got {value!r}")


def mad_scale(residuals) -> float:
    """1.4826 * median absolute deviation; ValueError if the scale has collapsed:
    unless it exceeds 2**-52 of the largest deviation from the median and its
    square is a normal double, r * r / (2 sigma^2) could divide by zero or
    overflow. A zero-inflated outcome, most residuals at the median, has MAD 0."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("mad_scale requires a nonempty residual vector")
    deviation = np.abs(r - np.median(r))
    scale, far = 1.4826 * np.median(deviation), deviation.max()
    square = float(scale) * float(scale)  # inf, not OverflowError, past the largest double
    if not (scale > 2.0**-52 * far and np.finfo(float).tiny <= square < np.inf):
        raise ValueError(f"the MAD scale of {r.size} residuals has collapsed: 1.4826 * MAD is "
                         f"{scale:.3g} against a largest deviation from the median of {far:.3g}")
    return scale


def welsch_weight(r, spec: LossSpec):
    """Bell-shaped redescending weight exp(-gamma r^2 / (2 sigma^2))."""
    if spec.kind != GAMMA_WELSCH:
        raise ValueError("welsch_weight requires a gamma_welsch spec")
    r = np.asarray(r, dtype=float)
    return np.exp(-spec.gamma * r * r / (2.0 * spec.scale**2))


def gamma_loss(residuals, spec: LossSpec) -> float:
    """Empirical Welsch objective -(1/gamma) sum_i exp(-gamma r_i^2 / 2 sigma^2).

    Minimum is -N/gamma, attained iff every residual is zero. Each point
    contributes at most 1/gamma in absolute value, so a single arbitrarily
    large residual changes the loss by a vanishing amount.
    """
    if spec.kind != GAMMA_WELSCH:
        raise ValueError("gamma_loss requires a gamma_welsch spec")
    return float(-np.sum(welsch_weight(residuals, spec)) / spec.gamma)


def huber_loss(residuals, spec: LossSpec) -> float:
    r = np.abs(np.asarray(residuals, dtype=float))
    d = spec.huber_delta
    quad = r <= d
    return float(np.sum(np.where(quad, 0.5 * r * r, d * r - 0.5 * d * d)))


def squared_loss(residuals) -> float:
    r = np.asarray(residuals, dtype=float)
    return float(0.5 * np.sum(r * r))


def _no_residual_form(spec: LossSpec, name: str) -> None:
    if spec.kind == LOGISTIC:
        raise ValueError(f"{name} takes residuals, and the {LOGISTIC!r} loss has no residual "
                         "form: it is fit on 0/1 labels (see fit_boosted)")


def loss_value(residuals, spec: LossSpec) -> float:
    """Training objective of a residual loss kind (sum over points)."""
    _no_residual_form(spec, "loss_value")
    if spec.kind == SQUARED:
        return squared_loss(residuals)
    if spec.kind == HUBER:
        return huber_loss(residuals, spec)
    return gamma_loss(residuals, spec)


def gradient_and_weight(r, spec: LossSpec):
    """Per-point gradient w.r.t. the prediction and the MM instance weight.

    Gradients follow the unit-scale convention (the sigma^-2 factor of the
    Welsch objective is absorbed into the step size): for gamma_welsch the
    gradient is -w(r) * r with mm weight w(r); squared error gives (-r, 1);
    Huber clips the pull at delta with weight min(1, delta/|r|).
    """
    _no_residual_form(spec, "gradient_and_weight")
    r = np.asarray(r, dtype=float)
    if spec.kind == SQUARED:
        return -r, np.ones_like(r)
    if spec.kind == HUBER:
        d = spec.huber_delta
        a = np.abs(r)
        far = a > d  # divide only there: d / |r| overflows for subnormal r
        w = np.ones_like(r)
        np.divide(d, a, out=w, where=far)
        return -np.clip(r, -d, d), w
    w = welsch_weight(r, spec)
    return -w * r, w


def quadratic_majorizer(r, r0, spec: LossSpec):
    """Per-point half-quadratic upper bound of the Welsch loss, anchored at r0.

    Q(r; r0) = rho(r0) + w(r0) / (2 sigma^2) * (r^2 - r0^2), with
    rho(r) = -(1/gamma) exp(-gamma r^2 / 2 sigma^2). The bound is tight at
    r = r0 and its minimizer over r defines the weighted least-squares
    inner step of the MM boosting loop.
    """
    if spec.kind != GAMMA_WELSCH:
        raise ValueError("quadratic_majorizer requires a gamma_welsch spec")
    r = np.asarray(r, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    w0 = welsch_weight(r0, spec)
    return -w0 / spec.gamma + w0 / (2.0 * spec.scale**2) * (r * r - r0 * r0)


def pointwise_gamma_loss(r, spec: LossSpec):
    """Per-point Welsch loss rho(r) = -(1/gamma) exp(-gamma r^2 / 2 sigma^2)."""
    if spec.kind != GAMMA_WELSCH:
        raise ValueError("pointwise_gamma_loss requires a gamma_welsch spec")
    return -welsch_weight(r, spec) / spec.gamma


def _start(y, loss: LossSpec):
    """(F0, spec): the mean, the median with sigma-hat the MAD of y - F0, or
    the log-odds of the mean label clipped to [1e-6, 1 - 1e-6]."""
    if loss.kind == SQUARED:
        return float(np.mean(y)), loss
    if loss.kind == LOGISTIC:
        p0 = float(np.clip(np.mean(y), 1e-6, 1 - 1e-6))
        return float(np.log(p0 / (1 - p0))), loss
    f0 = float(np.median(y))
    return f0, replace(loss, scale=mad_scale(y - f0))


def _working_response(y, F, spec: LossSpec):
    """Tree target and weight at the fit F: (y - F, MM weight), or (z - p, 1)."""
    if spec.kind == LOGISTIC:
        resid = y - 1.0 / (1.0 + np.exp(-F))
        return resid, np.ones_like(resid)
    r = y - F
    return r, gradient_and_weight(r, spec)[1]


def _objective(y, F, spec: LossSpec) -> float:
    """loss_value(y - F), or the log-loss with p clipped to [1e-12, 1 - 1e-12]."""
    if spec.kind == LOGISTIC:
        p = np.clip(1.0 / (1.0 + np.exp(-F)), 1e-12, 1 - 1e-12)
        return float(-np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))
    return loss_value(y - F, spec)
