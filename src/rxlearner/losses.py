"""Robust loss family: squared error, Huber, and the Welsch (exponential) loss.

All functions are pure and vectorized over residual arrays. The Welsch loss
uses a fixed scale anchor, estimated once via MAD of the initial residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQUARED = "squared"
HUBER = "huber"
GAMMA_WELSCH = "gamma_welsch"

LOSS_KINDS = (SQUARED, HUBER, GAMMA_WELSCH)

#: Lower bound on the scale anchor; prevents implosion when residuals collapse.
SCALE_FLOOR = 1e-8

#: Instance weights below this are floored so no unit drops out of tree fitting.
WEIGHT_FLOOR = 1e-12


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
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.delta_multiplier <= 0:
            raise ValueError("delta_multiplier must be > 0")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")

    @property
    def huber_delta(self) -> float:
        return self.delta_multiplier * self.scale


def mad_scale(residuals, floor: float = SCALE_FLOOR) -> float:
    """1.4826 * median absolute deviation, floored to guard against implosion."""
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        raise ValueError("mad_scale requires a nonempty residual vector")
    mad = np.median(np.abs(r - np.median(r)))
    return max(1.4826 * mad, floor)


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


def loss_value(residuals, spec: LossSpec) -> float:
    """Training objective for any loss kind (sum over points)."""
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
    r = np.asarray(r, dtype=float)
    if spec.kind == SQUARED:
        return -r, np.ones_like(r)
    if spec.kind == HUBER:
        d = spec.huber_delta
        grad = -np.clip(r, -d, d)
        with np.errstate(divide="ignore"):
            w = np.minimum(1.0, d / np.abs(r))
        w = np.where(np.abs(r) > 0, w, 1.0)
        return grad, w
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
