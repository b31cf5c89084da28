"""Datasets, contamination generators, the semi-synthetic DGP, and CSV I/O.

Every generator is a pure function of its spec and seed; datasets are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .losses import _check_real

TAIL_PARETO = "pareto"
TAIL_STUDENT_T = "student_t"
TAIL_CAUCHY = "cauchy"
TAIL_KINDS = (TAIL_PARETO, TAIL_STUDENT_T, TAIL_CAUCHY)

ARM_TREATED = "treated"
ARM_CONTROL = "control"
ARM_BOTH = "both"
TAIL_ARMS = (ARM_TREATED, ARM_CONTROL, ARM_BOTH)

MU0_SIN_QUAD = "sin_quad"
MU0_ZERO = "zero"
MU0_FORMS = (MU0_SIN_QUAD, MU0_ZERO)

TAU_LINEAR = "linear"
TAU_CONSTANT = "constant"
TAU_FORMS = (TAU_LINEAR, TAU_CONSTANT)


class DatasetError(ValueError):
    """Raised for invalid dataset construction or parsing failures."""


@dataclass(frozen=True)
class CausalDataset:
    """Covariates, treatment flags and outcomes, plus optional ground truth.

    ``true_cate`` and ``outlier_mask`` exist only for generated data and are
    used by evaluation (PEHE / Core-PEHE); ``true_propensity`` records the
    randomization probability when known.
    """

    features: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    true_cate: Optional[np.ndarray] = None
    outlier_mask: Optional[np.ndarray] = None
    true_propensity: Optional[float] = None

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DatasetError("features must be a 2-D matrix with rows >= 1 and cols >= 1")
        if not np.all(np.isfinite(X)):
            raise DatasetError("features contain non-finite values")
        w = np.asarray(self.treatment)
        y = np.asarray(self.outcome, dtype=float)
        n = X.shape[0]
        if w.shape != (n,) or y.shape != (n,):
            raise DatasetError("treatment and outcome must match the number of rows")
        if not np.all(np.isin(w, (0, 1))):
            raise DatasetError("treatment must be binary 0/1")
        if not np.all(np.isfinite(y)):
            raise DatasetError("outcome contains non-finite values")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "treatment", w.astype(np.int8))
        object.__setattr__(self, "outcome", y)
        if self.true_cate is not None:
            tau = np.asarray(self.true_cate, dtype=float)
            if tau.shape != (n,):
                raise DatasetError("true_cate length must match rows")
            if not np.all(np.isfinite(tau)):
                raise DatasetError("true_cate contains non-finite values")
            object.__setattr__(self, "true_cate", tau)
        if self.outlier_mask is not None:
            if self.true_cate is None:
                raise DatasetError("outlier_mask requires true_cate (Core-PEHE needs both)")
            m = np.asarray(self.outlier_mask)
            if m.shape != (n,) or not np.all(np.isin(m, (0, 1))):
                raise DatasetError("outlier_mask must be binary and match rows")
            object.__setattr__(self, "outlier_mask", m.astype(np.int8))
        if self.true_propensity is not None:
            p = float(self.true_propensity)
            if not 0.0 < p < 1.0:
                raise DatasetError("true_propensity must lie in (0, 1)")

    @property
    def n_units(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def treated_idx(self) -> np.ndarray:
        return np.flatnonzero(self.treatment == 1)

    @property
    def control_idx(self) -> np.ndarray:
        return np.flatnonzero(self.treatment == 0)

    def subset(self, idx) -> "CausalDataset":
        idx = np.asarray(idx)
        return CausalDataset(
            features=self.features[idx],
            treatment=self.treatment[idx],
            outcome=self.outcome[idx],
            true_cate=None if self.true_cate is None else self.true_cate[idx],
            outlier_mask=None if self.outlier_mask is None else self.outlier_mask[idx],
            true_propensity=self.true_propensity,
        )


@dataclass(frozen=True)
class ContaminationSpec:
    """Core-Periphery mixture for the outcome noise.

    With probability ``rate`` an eligible unit's noise is drawn from the tail
    component instead of the N(0, core_sd) core. The Pareto tail is one-sided
    (strictly positive draws) matching the whale narrative.
    """

    rate: float = 0.0
    core_sd: float = 1.0
    tail_kind: str = TAIL_PARETO
    tail_index: float = 1.5
    tail_scale: float = 1.0
    tail_df: float = 3.0
    tail_arm: str = ARM_TREATED

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise DatasetError("contamination rate must lie in [0, 1)")
        for name in ("core_sd", "tail_index", "tail_scale", "tail_df"):
            _check_real(name, getattr(self, name), DatasetError)
        if self.core_sd <= 0:
            raise DatasetError("core_sd must be > 0")
        if self.tail_kind not in TAIL_KINDS:
            raise DatasetError(f"unknown tail_kind {self.tail_kind!r}")
        if self.tail_arm not in TAIL_ARMS:
            raise DatasetError(f"unknown tail_arm {self.tail_arm!r}")
        if self.tail_index <= 0 or self.tail_scale <= 0 or self.tail_df <= 0:
            raise DatasetError("tail parameters must be > 0")


@dataclass(frozen=True)
class ScenarioSpec:
    """Fully synthetic scenario: sample size, imbalance, contamination, DGP forms."""

    n: int = 2000
    treated_fraction: float = 0.02
    contamination: ContaminationSpec = field(default_factory=ContaminationSpec)
    mu0_form: str = MU0_SIN_QUAD
    tau_form: str = TAU_LINEAR
    tau_value: float = 2.0
    n_features: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "n_features"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DatasetError(f"{name} must be an integer")
        _check_real("tau_value", self.tau_value, DatasetError)
        if self.n < 2:
            raise DatasetError("n must be >= 2")
        if not 0.0 < self.treated_fraction < 1.0:
            raise DatasetError("treated_fraction must lie in (0, 1)")
        if self.n * self.treated_fraction < 2:
            raise DatasetError("n * treated_fraction must be >= 2 for fitting feasibility")
        if self.mu0_form not in MU0_FORMS:
            raise DatasetError(f"unknown mu0_form {self.mu0_form!r}")
        if self.tau_form not in TAU_FORMS:
            raise DatasetError(f"unknown tau_form {self.tau_form!r}")
        if self.n_features < 2:
            raise DatasetError("n_features must be >= 2")


@dataclass(frozen=True)
class SemiSyntheticSpec:
    """Stress-test DGP layered over externally supplied covariates.

    Defaults mirror the displacement setup: 2% treated, Pareto tail index 1.1,
    5% of treated units contaminated, and a subtle effect with mean magnitude
    0.66 against whales averaging ~55 (tail_scale 5 with index 1.1).
    """

    treated_fraction: float = 0.02
    tail_index: float = 1.1
    tail_scale: float = 5.0
    contaminated_treated_fraction: float = 0.05
    target_mean_tau: float = 0.66
    tau_coefficients: Optional[Sequence[float]] = None
    core_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.treated_fraction < 0.5:
            raise DatasetError("treated_fraction must lie in (0, 0.5)")
        if not 0.0 <= self.contaminated_treated_fraction < 1.0:
            raise DatasetError("contaminated_treated_fraction must lie in [0, 1)")
        for name in ("tail_index", "tail_scale", "core_sd", "target_mean_tau"):
            _check_real(name, getattr(self, name), DatasetError)
        if self.tail_index <= 0 or self.tail_scale <= 0 or self.core_sd <= 0:
            raise DatasetError("tail and core parameters must be > 0")
        if self.target_mean_tau <= 0:
            raise DatasetError("target_mean_tau must be > 0")


def _assign_exact_fraction(n: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Randomized assignment with an exact treated count (>= 1 on each arm)."""
    m = int(round(n * fraction))
    m = min(max(m, 1), n - 1)
    w = np.zeros(n, dtype=np.int8)
    w[rng.permutation(n)[:m]] = 1
    return w


def _tail_draws(n: int, spec: ContaminationSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.tail_kind == TAIL_PARETO:
        # classic Pareto with minimum tail_scale: strictly positive, one-sided
        return (rng.pareto(spec.tail_index, size=n) + 1.0) * spec.tail_scale
    if spec.tail_kind == TAIL_STUDENT_T:
        return spec.tail_scale * rng.standard_t(spec.tail_df, size=n)
    return spec.tail_scale * rng.standard_cauchy(size=n)


def _mu0(X: np.ndarray, form: str) -> np.ndarray:
    if form == MU0_SIN_QUAD:
        return np.sin(np.pi * X[:, 0]) + X[:, 1] ** 2
    return np.zeros(X.shape[0])


def _tau(X: np.ndarray, form: str, value: float) -> np.ndarray:
    if form == TAU_LINEAR:
        return 1.0 + X[:, 0] / 2.0
    return np.full(X.shape[0], value)


def generate_synthetic(spec: ScenarioSpec) -> CausalDataset:
    """Draw a dataset from the Core-Periphery contamination model.

    Y = mu0(X) + tau(X) * W + eps, where eps comes from the core Gaussian
    with probability 1 - rate and from the configured tail otherwise
    (restricted to the arm named by tail_arm). Deterministic given the spec.
    """
    rng = np.random.default_rng(spec.seed)
    c = spec.contamination
    X = rng.uniform(-1.0, 1.0, size=(spec.n, spec.n_features))
    w = _assign_exact_fraction(spec.n, spec.treated_fraction, rng)
    mu0 = _mu0(X, spec.mu0_form)
    tau = _tau(X, spec.tau_form, spec.tau_value)

    core = rng.normal(0.0, c.core_sd, size=spec.n)
    tails = _tail_draws(spec.n, c, rng)
    u = rng.random(spec.n)
    if c.tail_arm == ARM_TREATED:
        eligible = w == 1
    elif c.tail_arm == ARM_CONTROL:
        eligible = w == 0
    else:
        eligible = np.ones(spec.n, dtype=bool)
    is_tail = eligible & (u < c.rate)
    eps = np.where(is_tail, tails, core)

    y = mu0 + tau * w + eps
    return CausalDataset(
        features=X,
        treatment=w,
        outcome=y,
        true_cate=tau,
        outlier_mask=is_tail.astype(np.int8),
        true_propensity=spec.treated_fraction,
    )


def generate_1d_qualitative(n: int, outlier_count: int, seed: int) -> CausalDataset:
    """1-D grid dataset with a constant effect and a cluster of whale outcomes.

    The effect is 2, the noise N(0, 0.3^2), and each whale adds 25 to its
    outcome. Outliers are placed on treated units inside a narrow x-window so
    the smear region of a non-robust fit is localized and identifiable.
    """
    if n <= outlier_count:
        raise DatasetError("n must exceed outlier_count")
    if outlier_count < 0:
        raise DatasetError("outlier_count must be >= 0")
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    X = x[:, None]
    w = (np.arange(n) % 2).astype(np.int8)
    tau = np.full(n, 2.0)
    mu0 = np.sin(2.0 * np.pi * x)
    y = mu0 + tau * w + rng.normal(0.0, 0.3, size=n)
    mask = np.zeros(n, dtype=np.int8)
    if outlier_count > 0:
        candidates = np.flatnonzero((w == 1) & (x >= 0.6) & (x <= 0.8))
        if candidates.size < outlier_count:
            candidates = np.flatnonzero(w == 1)
        chosen = candidates[:outlier_count]
        y = y.copy()
        y[chosen] += 25.0
        mask[chosen] = 1
    return CausalDataset(
        features=X, treatment=w, outcome=y, true_cate=tau, outlier_mask=mask,
        true_propensity=0.5,
    )


def inject_outlier(data: CausalDataset, unit_index: int, magnitude: float) -> CausalDataset:
    """Add a whale of the given magnitude to one treated unit's outcome."""
    if not 0 <= unit_index < data.n_units:
        raise DatasetError(f"unit_index {unit_index} out of range")
    if data.treatment[unit_index] != 1:
        raise DatasetError(f"unit {unit_index} is not treated")
    if data.true_cate is None:
        raise DatasetError("inject_outlier requires true_cate (mask implies ground truth)")
    y = data.outcome.copy()
    y[unit_index] += magnitude
    mask = np.zeros(data.n_units, dtype=np.int8) if data.outlier_mask is None else data.outlier_mask.copy()
    mask[unit_index] = 1
    return replace(data, outcome=y, outlier_mask=mask)


def winsorize_outcomes(data: CausalDataset, lower_q: float, upper_q: float) -> CausalDataset:
    """Clip outcomes to the empirical [lower_q, upper_q] quantiles over all units."""
    if not 0.0 <= lower_q < upper_q <= 1.0:
        raise DatasetError("quantiles must satisfy 0 <= lower_q < upper_q <= 1")
    lo, hi = np.quantile(data.outcome, [lower_q, upper_q])
    return replace(data, outcome=np.clip(data.outcome, lo, hi))


def apply_semi_synthetic_dgp(features: np.ndarray, spec: SemiSyntheticSpec) -> CausalDataset:
    """Overlay the displacement DGP on external covariates.

    The effect is linear in the first min(5, d) standardized covariates,
    rescaled so mean |tau| hits target_mean_tau; a share of treated units
    receives one-sided Pareto noise and is flagged in the outlier mask.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DatasetError("features must be a nonempty 2-D matrix")
    n, d = X.shape
    rng = np.random.default_rng(spec.seed)

    k = min(5, d) if spec.tau_coefficients is None else len(spec.tau_coefficients)
    if k < 1 or k > d:
        raise DatasetError("tau_coefficients length must lie in [1, n_features]")
    sd = X[:, :k].std(axis=0)
    if np.any(sd == 0):
        bad = int(np.flatnonzero(sd == 0)[0])
        raise DatasetError(f"covariate f{bad} in the tau support has zero variance")
    Z = (X[:, :k] - X[:, :k].mean(axis=0)) / sd

    coef = np.ones(k) if spec.tau_coefficients is None else np.asarray(spec.tau_coefficients, float)
    raw = Z @ coef
    mean_abs = np.mean(np.abs(raw))
    if mean_abs == 0:
        raise DatasetError("tau signal is identically zero; cannot rescale")
    tau = raw * (spec.target_mean_tau / mean_abs)

    base_coef = np.array([1.0, -1.0, 1.0, -1.0, 1.0])[:k]
    mu0 = Z @ base_coef

    w = _assign_exact_fraction(n, spec.treated_fraction, rng)
    y = mu0 + tau * w + rng.normal(0.0, spec.core_sd, size=n)

    mask = np.zeros(n, dtype=np.int8)
    treated = np.flatnonzero(w == 1)
    n_whales = int(round(treated.size * spec.contaminated_treated_fraction))
    if n_whales > 0:
        whales = rng.choice(treated, size=n_whales, replace=False)
        y = y.copy()
        y[whales] += (rng.pareto(spec.tail_index, size=n_whales) + 1.0) * spec.tail_scale
        mask[whales] = 1
    return CausalDataset(
        features=X, treatment=w, outcome=y, true_cate=tau, outlier_mask=mask,
        true_propensity=spec.treated_fraction,
    )


def generate_surrogate_covariates(rows: int, cols: int, seed: int) -> np.ndarray:
    """Correlated continuous covariates standing in for an external table."""
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(rows, cols))
    mix = rng.normal(scale=0.4, size=(cols, cols)) + np.eye(cols)
    return latent @ mix


# --- CSV serialization -------------------------------------------------------
# Header: feature columns first (f0,...,f{d-1} when written here), then any of
# the named columns below; UTF-8, '.' decimal.

#: Each named column and the :class:`CausalDataset` field it holds, in the order
#: written; every other column is a feature. w and is_outlier hold 0 or 1.
DATASET_COLUMNS = {"w": "treatment", "y": "outcome", "tau_true": "true_cate",
                   "is_outlier": "outlier_mask"}
BINARY_COLUMNS = ("w", "is_outlier")


#: Rows converted to Python values at a time when writing a CSV. Converting a
#: 61k-row table at once held ~22 MB of Python floats; a block of this size
#: holds under 1 MB and writes as fast.
CSV_WRITE_ROWS = 1024


def save_table_csv(path, header, columns) -> None:
    """Write equal-length 1-D numeric arrays as a CSV table under ``header``.

    The inverse of :func:`load_table_csv`: each value is its Python ``repr``,
    so floats round-trip exactly and integer arrays are written as integers.
    """
    n = len(columns[0])
    if len(header) != len(columns) or any(np.shape(c) != (n,) for c in columns):
        raise DatasetError(f"{path}: {len(header)} column names for columns of shapes "
                           f"{[np.shape(c) for c in columns]}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # The csv module's line ending; no value needs quoting.
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, CSV_WRITE_ROWS):
            block = [c[start:start + CSV_WRITE_ROWS].tolist() for c in columns]
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in zip(*block))


def save_dataset_csv(data: CausalDataset, path) -> None:
    """Write the dataset with :func:`save_table_csv`; w and is_outlier as 0/1."""
    header, columns = [f"f{j}" for j in range(data.n_features)], list(data.features.T)
    for name, attr in DATASET_COLUMNS.items():
        if (column := getattr(data, attr)) is not None:
            header.append(name)
            columns.append(column)
    save_table_csv(path, header, columns)


#: Bytes of lines parsed at a time when reading a CSV table (about 800 lines of
#: a 16-column dataset). Each block goes straight into the feature matrix and
#: the named columns, so a read holds the table once plus one block. Parsing a
#: 61,200-row file in one call held the whole 16-column table and then a
#: contiguous copy of its 12 feature columns: 13.7 MB at once, against 8.6 MB
#: this way. With the one-call parse, the score_61k benchmark's peak_rss_mb
#: rose about 10% once faster prediction fit twice the passes in a run. The
#: cost is a slower read: 0.54 -> 0.61 s per 61,200-row file, traced.
CSV_READ_BYTES = 1 << 18


def load_table_csv(path):
    """Read a numeric CSV table as (features, named columns).

    Every column other than the :data:`DATASET_COLUMNS` is a feature, and the
    feature columns come first. The features are a C-contiguous matrix; the
    named columns present are returned as a dict of 1-D float arrays. Every
    cell must be finite, and each :data:`BINARY_COLUMNS` cell 0 or 1. Rows are
    numbered as lines of the file, the header being row 1.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader([fh.readline()]))
        if not header:
            raise DatasetError(f"{path}: empty file")
        d = next((j for j, h in enumerate(header) if h in DATASET_COLUMNS), len(header))
        if d == 0:
            raise DatasetError(f"{path}: no feature columns before {header[0]!r}")
        misplaced = [h for h in header[d:] if h not in DATASET_COLUMNS]
        if misplaced:
            raise DatasetError(f"{path}: feature columns {misplaced} must come before {header[d]!r}")
        if len(set(header)) != len(header):
            raise DatasetError(f"{path}: duplicate column names in {header}")
        binary = [j for j, h in enumerate(header) if h in BINARY_COLUMNS]
        lines = sum(1 for _ in fh)  # blank lines included: an upper bound on the rows
        fh.seek(0)
        fh.readline()
        features, named = np.empty((lines, d)), np.empty((len(header) - d, lines))
        rows, line = 0, 2  # line: the file line of the block's first line
        with warnings.catch_warnings():
            # blank lines hold no data; an empty body is reported below, with the path
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            while block := fh.readlines(CSV_READ_BYTES):
                try:
                    values = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
                    if values.size and not (values.shape[1] == len(header)
                                            and np.isfinite(values).all()
                                            and np.isin(values[:, binary], (0, 1)).all()):
                        raise ValueError("rows do not match the header")
                except ValueError as exc:
                    raise DatasetError(f"{path}: {_first_bad_row(block, line, header, exc)}") from None
                line += len(block)
                if values.size == 0:
                    continue
                features[rows:rows + len(values)] = values[:, :d]
                named[:, rows:rows + len(values)] = values[:, d:].T
                rows += len(values)
    if rows == 0:
        raise DatasetError(f"{path}: no data rows")
    return features[:rows], {h: named[j, :rows] for j, h in enumerate(header[d:])}


def _first_bad_row(block, first, header, error) -> str:
    """Name the first ragged row or bad cell of ``block``, lines of the file from
    ``first`` on, each split as ``np.loadtxt`` splits it. If every cell passes, name
    the lines and ``error`` without numpy's row, which counts data rows from 0."""
    for line, text in enumerate(block, first):
        cells = text.rstrip("\r\n").split(",")
        if cells == [""]:
            continue
        if len(cells) != len(header):
            return f"row {line} has {len(cells)} cells, expected {len(header)}"
        for name, cell in zip(header, cells):
            try:
                value = float(cell)
            except ValueError:
                return f"non-numeric cell at row {line}, column {name!r}: {cell!r}"
            if not np.isfinite(value):
                return f"non-finite cell at row {line}, column {name!r}: {cell!r}"
            if name in BINARY_COLUMNS and value not in (0.0, 1.0):
                return f"non-binary {DATASET_COLUMNS[name]} at row {line}: {value!r}"
    return f"rows {first}-{first + len(block) - 1}: {str(error).partition(' at row ')[0]}"


def load_dataset_csv(path) -> CausalDataset:
    """Read a dataset CSV (see :func:`load_table_csv`); ``w`` and ``y`` are required."""
    X, named = load_table_csv(path)
    for required in ("w", "y"):
        if required not in named:
            raise DatasetError(f"{path}: missing required column {required!r}")
    return CausalDataset(X, **{DATASET_COLUMNS[h]: column for h, column in named.items()})
