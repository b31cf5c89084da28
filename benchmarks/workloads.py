"""The benchmark workloads: how each is set up, what one timed pass runs, and the
checks on a pass's outputs.

Every input is generated from the workload seed; the program receives only the
generated data and the shipped preset configurations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from tracing import PREDICT_CATE, SpanStats

WHY = {
    "pathology_2k": "extreme_pathology preset, 1 trial: n=2000, 2% treated, five learners at "
                    "200 rounds; many tiny split searches, so per-call overhead dominates",
    "displacement_61k": "displacement_80_1 preset on its 61,200x12 surrogate table, mse_x and rx "
                        "with rounds cut; large-n split search, where sorting dominates",
    "score_61k": "read path only: rxlearner predict on a fitted rx bundle and the full "
                 "61,200-row dataset CSV, closed loop with one caller; no split search",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes. FULL is the benchmark; TINY is the warm-up and the self-test."""

    pathology_n: Optional[int]       # None keeps the preset's n
    pathology_rounds: Optional[int]  # None keeps the preset's rounds
    surrogate_rows: Optional[int]
    displacement_rounds: int         # cut from the preset's 100; per-round cost is unchanged
    score_slice_step: int            # the score bundle is fit on every k-th row
    bundle_rounds: Optional[int]


FULL = Scale(pathology_n=None, pathology_rounds=None, surrogate_rows=None,
             displacement_rounds=5, score_slice_step=50, bundle_rounds=None)
TINY = Scale(pathology_n=600, pathology_rounds=2, surrogate_rows=1500,
             displacement_rounds=2, score_slice_step=2, bundle_rounds=2)


@dataclass
class PassOutput:
    """What one pass produced, read from its spans and return values."""

    predictions: dict                       # learner -> predict_cate output
    quality: dict                           # pehe_rx, core_pehe_rx, pehe_mse_x
    checks: dict                            # check name -> passed
    predict_rows: int = 0
    predict_s: float = 0.0
    notes: list = field(default_factory=list)


def fingerprint(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def _with_rounds(spec, rounds):
    if rounds is None:
        return spec
    return replace(spec, boost_config=replace(spec.boost_config, n_rounds=rounds))


def _prediction_checks(checks, name, pred, rows):
    checks[f"finite:{name}"] = bool(np.all(np.isfinite(pred)))
    checks[f"length:{name}"] = pred.shape == (rows,)


class FitWorkload:
    """One trial of a preset through ``evaluate_learners_on``: split, fit every
    learner on the fit half, score on the eval half."""

    def __init__(self, rx, name, seed, scale: Scale):
        self.rx, self.name, self.seed, self.scale = rx, name, seed, scale

    def _inputs(self, scale: Scale):
        rx = self.rx
        if self.name == "pathology_2k":
            cfg = rx.config.load_config(rx.config.preset_path("extreme_pathology"))
            spec = replace(cfg.scenario, seed=self.seed)
            if scale.pathology_n is not None:
                spec = replace(spec, n=scale.pathology_n)
            data = rx.datasets.generate_synthetic(spec)
            rounds = scale.pathology_rounds
            learners = cfg.learners
        else:
            cfg = rx.config.load_config(rx.config.preset_path("displacement_80_1"))
            rows = scale.surrogate_rows or cfg.surrogate["rows"]
            X = rx.datasets.generate_surrogate_covariates(rows, cfg.surrogate["cols"],
                                                          cfg.surrogate["seed"])
            data = rx.datasets.apply_semi_synthetic_dgp(X, replace(cfg.semi_synthetic, seed=self.seed))
            rounds = scale.displacement_rounds
            learners = cfg.learners
        return data, {n: _with_rounds(s, rounds) for n, s in learners.items()}

    def setup(self) -> None:
        self.data, self.learners = self._inputs(self.scale)
        warm_data, warm_learners = self._inputs(TINY)
        self.rx.evaluation.evaluate_learners_on(warm_data, warm_learners, seed=self.seed)

    def reference(self) -> None:
        """Untimed work the checks need; fit workloads need none."""

    def run_pass(self):
        return self.rx.evaluation.evaluate_learners_on(self.data, self.learners, seed=self.seed)

    def collect(self, rows, spans) -> PassOutput:
        st = SpanStats(spans)
        calls = st.of(PREDICT_CATE)
        ok_rows = [r for r in rows if r.error is None]
        checks, notes = {}, []
        for r in rows:
            checks[f"fit:{r.learner}"] = r.error is None
            if r.error is not None:
                notes.append(f"{r.learner}: {r.error}")
        checks["one_prediction_per_fitted_learner"] = len(calls) == len(ok_rows)
        predictions = {}
        for r, span in zip(ok_rows, calls):
            pred = span.attrs.pop("output")
            predictions[r.learner] = pred
            _prediction_checks(checks, r.learner, pred, span.attrs.get("rows", -1))
        by = {r.learner: r for r in ok_rows}
        quality = {}
        if "rx" in by and "mse_x" in by:
            quality = {"pehe_rx": by["rx"].pehe, "core_pehe_rx": by["rx"].core_pehe,
                       "pehe_mse_x": by["mse_x"].pehe}
            checks["pehe_rx_below_pehe_mse_x"] = by["rx"].pehe < by["mse_x"].pehe
        else:
            checks["pehe_rx_below_pehe_mse_x"] = False
        return PassOutput(
            predictions=predictions, quality=quality, checks=checks, notes=notes,
            predict_rows=int(st.attr_sum(PREDICT_CATE, "rows")),
            predict_s=st.seconds(PREDICT_CATE),
        )


class ScoreWorkload:
    """``rxlearner predict`` on a fitted rx bundle and the full dataset CSV.

    The CSV is a full dataset (w, y, tau_true, is_outlier columns included)
    because the CLI rejects a features-only CSV.
    """

    def __init__(self, rx, seed, scale: Scale, workdir):
        self.rx, self.seed, self.scale = rx, seed, scale
        self.bundle = os.path.join(workdir, "rx_bundle")
        self.csv = os.path.join(workdir, "dataset.csv")
        self.out = os.path.join(workdir, "predictions.csv")

    def setup(self) -> None:
        rx = self.rx
        cfg = rx.config.load_config(rx.config.preset_path("displacement_80_1"))
        rows = self.scale.surrogate_rows or cfg.surrogate["rows"]
        X = rx.datasets.generate_surrogate_covariates(rows, cfg.surrogate["cols"], cfg.surrogate["seed"])
        self.data = rx.datasets.apply_semi_synthetic_dgp(X, replace(cfg.semi_synthetic, seed=self.seed))
        self.slice = self.data.subset(np.arange(0, self.data.n_units, self.scale.score_slice_step))
        self.mse_spec = _with_rounds(cfg.learners["mse_x"], self.scale.bundle_rounds)
        self.model = rx.metalearners.fit_meta(self.slice, _with_rounds(cfg.learners["rx"],
                                                                       self.scale.bundle_rounds))
        rx.metalearners.save_meta(self.model, self.bundle)
        rx.datasets.save_dataset_csv(self.data, self.csv)
        warm_csv, warm_out = self.csv + ".warm", self.out + ".warm"
        rx.datasets.save_dataset_csv(self.data.subset(np.arange(50)), warm_csv)
        self._predict(warm_csv, warm_out)

    def reference(self) -> None:
        """In-memory predictions the CLI output must match, and the mse_x baseline."""
        mt = self.rx.metalearners
        self.expected = mt.predict_cate(self.model, self.data.features)
        mse = mt.fit_meta(self.slice, self.mse_spec)
        self.pehe_mse_x = self.rx.evaluation.pehe(mt.predict_cate(mse, self.data.features),
                                                  self.data.true_cate)

    def _predict(self, csv_path, out_path):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.rx.cli.main(["predict", self.bundle, csv_path, out_path])

    def run_pass(self):
        return self._predict(self.csv, self.out)

    def collect(self, exit_code, spans) -> PassOutput:
        st = SpanStats(spans)
        ev = self.rx.evaluation
        checks = {"cli_exit_zero": exit_code == 0}
        calls = st.of(PREDICT_CATE)
        checks["one_predict_cate_call"] = len(calls) == 1
        predictions, quality = {}, {}
        if calls:
            pred = calls[0].attrs.pop("output")
            predictions["rx"] = pred
            _prediction_checks(checks, "rx", pred, self.data.n_units)
        if exit_code == 0:
            with open(self.out, encoding="utf-8") as fh:
                header = fh.readline().strip()
                written = np.array([float(line) for line in fh])
            checks["cli_csv_matches_predict_cate"] = (
                header == "tau_hat" and written.shape == self.expected.shape
                and written.tobytes() == self.expected.tobytes()
            )
            quality = {
                "pehe_rx": ev.pehe(written, self.data.true_cate),
                "core_pehe_rx": ev.core_pehe(written, self.data.true_cate, self.data.outlier_mask),
                "pehe_mse_x": self.pehe_mse_x,
            }
        else:
            checks["cli_csv_matches_predict_cate"] = False
        return PassOutput(
            predictions=predictions, quality=quality, checks=checks,
            predict_rows=int(st.attr_sum(PREDICT_CATE, "rows")),
            predict_s=st.seconds(PREDICT_CATE),
        )


def make(rx, name, seed, scale: Scale, workdir):
    if name == "score_61k":
        return ScoreWorkload(rx, seed, scale, workdir)
    if name in WHY:
        return FitWorkload(rx, name, seed, scale)
    raise ValueError(f"unknown workload {name!r}")
