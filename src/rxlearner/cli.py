"""Command-line front end: dataset generation, fitting, and experiment runners.

Exit codes: 0 success, 1 validation error, 2 runtime error. Every command is
deterministic given its config and inputs; each accepts only the flags it reads,
and ``--seed`` overrides the config's top-level draw seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .boosting import BoostConfig, BoostingError, feature_index, fit_boosted
from .config import ConfigError, RunConfig, list_presets, load_config, preset_path
from .datasets import (
    DatasetError,
    apply_semi_synthetic_dgp,
    generate_1d_qualitative,
    generate_surrogate_covariates,
    generate_synthetic,
    load_dataset_csv,
    load_table_csv,
    save_dataset_csv,
    save_table_csv,
)
from .evaluation import (
    REPORT_COLUMNS,
    EvaluationError,
    contamination_sweep,
    emit_curve_data,
    report_rows,
    report_summary,
    run_scenario,
    run_semi_synthetic,
    smearing_study,
)
from .losses import GAMMA_WELSCH, SQUARED, LossSpec
from .metalearners import MetaLearnerError, fit_meta, load_meta, predict_cate, save_meta

VALIDATION_ERRORS = (ConfigError, DatasetError, EvaluationError, MetaLearnerError,
                     BoostingError, FileNotFoundError)


def _resolve_config(args) -> RunConfig:
    if args.config is None:
        raise ConfigError("--config is required (a path or a preset name)")
    path = args.config
    if not os.path.exists(path) and not path.endswith(".yaml"):
        path = preset_path(path)
    cfg = load_config(path)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    if hasattr(args, "out_dir"):  # only commands that write into it take --out-dir
        cfg.out_dir = args.out_dir or cfg.out_dir or "."
        os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _covariates_for(cfg: RunConfig, override_csv=None) -> np.ndarray:
    path = override_csv or cfg.covariates_csv
    if path is not None:
        return load_table_csv(path)[0]
    if cfg.surrogate is not None:
        return generate_surrogate_covariates(
            cfg.surrogate["rows"], cfg.surrogate["cols"], cfg.surrogate["seed"]
        )
    raise ConfigError("semi_synthetic runs need covariates_csv or a surrogate block")


def _write_outputs(fmt, out_dir, stem, header, rows, doc) -> None:
    """Write ``<stem>.csv`` (header, then rows) and/or ``<stem>.json`` (doc);
    ``fmt`` is the --format choice, None for both."""
    if fmt in (None, "csv"):
        with open(os.path.join(out_dir, f"{stem}.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    if fmt in (None, "json"):
        with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    if cfg.scenario is None:
        raise ConfigError("simulate requires a scenario block")
    data = generate_synthetic(cfg.scenario)
    out = os.path.join(cfg.out_dir, "dataset.csv")
    save_dataset_csv(data, out)
    print(f"wrote {out} ({data.n_units} units, {data.treated_idx.size} treated)")
    return 0


def cmd_semisynthetic(args) -> int:
    cfg = _resolve_config(args)
    if cfg.semi_synthetic is None:
        raise ConfigError("semisynthetic requires a semi_synthetic block")
    X = _covariates_for(cfg, args.covariates)
    data = apply_semi_synthetic_dgp(X, cfg.semi_synthetic)
    out = os.path.join(cfg.out_dir, "dataset.csv")
    save_dataset_csv(data, out)
    print(
        f"wrote {out} ({data.n_units} units, {data.treated_idx.size} treated, "
        f"{int(data.outlier_mask.sum())} whales)"
    )
    return 0


def cmd_fit(args) -> int:
    cfg = _resolve_config(args)
    if len(cfg.learners) != 1:
        raise ConfigError("fit requires exactly one learner in the config")
    data = load_dataset_csv(args.dataset)
    (name, spec), = cfg.learners.items()
    model = fit_meta(data, spec)
    save_meta(model, args.model_out)
    print(f"fitted {name} -> {args.model_out}")
    return 0


def cmd_predict(args) -> int:
    model = load_meta(args.model)
    X, _ = load_table_csv(args.dataset)
    tau = predict_cate(model, X)
    save_table_csv(args.out, ["tau_hat"], [tau])
    print(f"wrote {args.out} ({tau.size} predictions)")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    if not cfg.learners:
        raise ConfigError("evaluate requires at least one learner")
    if cfg.kind == "semi_synthetic":
        X = _covariates_for(cfg)
        report = run_semi_synthetic(X, cfg.semi_synthetic, cfg.learners,
                                    cfg.n_trials, n_jobs=args.jobs)
    else:
        if cfg.scenario is None:
            raise ConfigError("evaluate requires a scenario block")
        report = run_scenario(cfg.scenario, cfg.learners, cfg.n_trials, n_jobs=args.jobs)
    _write_outputs(args.format, cfg.out_dir, "report", REPORT_COLUMNS, report_rows(report),
                   report_summary(report))
    for name, agg in sorted(report.aggregated.items()):
        pm = agg.get("pehe_mean")
        cm = agg.get("core_pehe_mean")
        print(f"{name}: pehe={pm:.4f}" + (f" core_pehe={cm:.4f}" if cm is not None else ""))
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    if cfg.scenario is None or not cfg.rates:
        raise ConfigError("sweep requires a scenario block and a rates list")
    result = contamination_sweep(cfg.scenario, cfg.rates, cfg.learners,
                                 cfg.n_trials, n_jobs=args.jobs)
    names = sorted(cfg.learners)
    _write_outputs(
        args.format, cfg.out_dir, "sweep", ["rate", "learner", "mean_pehe"],
        [[rate, name, repr(result.mean_pehe(rate, name))] for rate in result.rates for name in names],
        {"rates": result.rates,
         "mean_pehe": {name: {str(r): result.mean_pehe(r, name) for r in result.rates}
                       for name in names}},
    )
    for rate in result.rates:
        row = ", ".join(f"{n}={result.mean_pehe(rate, n):.3f}" for n in names)
        print(f"rate {rate}: {row}")
    return 0


def cmd_smear(args) -> int:
    cfg = _resolve_config(args)
    if cfg.scenario is None or not cfg.magnitudes:
        raise ConfigError("smear requires a scenario block and a magnitudes list")
    report = smearing_study(cfg.scenario, cfg.magnitudes, cfg.learners)
    _write_outputs(
        args.format, cfg.out_dir, "smear", ["magnitude", "learner", "shift"],
        [[mag, name, repr(report.shifts[name][mag])]
         for mag in report.magnitudes for name in sorted(report.shifts)],
        {name: {str(m): s for m, s in row.items()} for name, row in report.shifts.items()},
    )
    for mag in report.magnitudes:
        row = ", ".join(f"{n}={report.shifts[n][mag]:+.4f}" for n in sorted(report.shifts))
        print(f"magnitude {mag}: {row}")
    return 0


def cmd_curves(args) -> int:
    cfg = _resolve_config(args)
    data = generate_1d_qualitative(cfg.curve_n, cfg.curve_outliers, cfg.seed)
    boost = next(iter(cfg.learners.values())).boost_config if cfg.learners else BoostConfig()
    treated = data.treated_idx
    Xt, yt = data.features[treated], data.outcome[treated]
    index = feature_index(Xt)
    model_mse = fit_boosted(Xt, yt, LossSpec(kind=SQUARED), boost, index=index)
    model_rx = fit_boosted(Xt, yt, LossSpec(kind=GAMMA_WELSCH), boost, index=index)
    out = os.path.join(cfg.out_dir, "curves.csv")
    emit_curve_data(data, model_mse, model_rx, out)
    print(f"wrote {out} ({data.n_units} rows)")
    return 0


_FLAGS = {
    "--config": dict(help="config path or preset name"),
    "--out-dir": dict(default=None),
    "--seed": dict(type=int, default=None, help="override the config's draw seed"),
    "--jobs": dict(type=int, default=1, help="worker-process cap"),
    "--format": dict(choices=("csv", "json"), default=None,
                     help="restrict report output to one format"),
    "--model-out": dict(required=True),
}
_DRAW_FLAGS = ("--config", "--out-dir", "--seed")
_REPORT_FLAGS = _DRAW_FLAGS + ("--jobs", "--format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rxlearner",
        description="Robust X-Learner benchmark CLI. Presets: " + ", ".join(list_presets()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("simulate", cmd_simulate, "generate and persist a synthetic dataset CSV", *_DRAW_FLAGS)
    command("semisynthetic", cmd_semisynthetic, "apply the displacement DGP to covariates",
            *_DRAW_FLAGS).add_argument("covariates", nargs="?", default=None,
                                       help="covariate CSV (optional)")
    command("fit", cmd_fit, "fit one meta-learner and persist the bundle",
            "--config", "--model-out").add_argument("dataset")
    p = command("predict", cmd_predict, "emit per-unit CATE predictions")
    for positional in ("model", "dataset", "out"):
        p.add_argument(positional)
    command("evaluate", cmd_evaluate, "run the scenario trials and emit reports", *_REPORT_FLAGS)
    command("sweep", cmd_sweep, "contamination-rate sweep", *_REPORT_FLAGS)
    command("smear", cmd_smear, "single-whale prediction-shift study", *_DRAW_FLAGS, "--format")
    command("curves", cmd_curves, "1-D qualitative curve data export", *_DRAW_FLAGS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
