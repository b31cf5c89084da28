"""rxlearner benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 benchmarks/run.py --workload pathology_2k --seed 11 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/``, never
from an installed copy, and the run fails without printing a result when the
sources are absent. Everything runs in this one process (no worker pool).

With ``--trace 0`` only predict_cate is wrapped, to time it and capture the
predictions; the last line carries the end-to-end metrics. With
``--trace 1`` untraced and fully traced passes alternate; the last line carries
the per-layer metrics and the tracing overhead, and the spans are written to
``benchmarks/out/<workload>-seed<seed>.spans.jsonl``. Either way a report with
the environment, result fingerprints, quality and every check is written to
``benchmarks/out/<workload>-seed<seed>-trace<t>.json``, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from tracing import BOUNDARY, Tracer, layer_metrics, public_callables

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Set-up runs this many times in an untraced run; setup_s is the median.
SETUP_REPEATS = 3

END_TO_END = {
    "run_s": "s",
    "predict_rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
QUALITY = ("pehe_rx", "core_pehe_rx", "pehe_mse_x")


IMPORT = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import rxlearner, rxlearner.cli
print(time.perf_counter() - t0)
"""


def load_program(src: Path):
    """Import rxlearner from ``src``; returns (package, import seconds).

    The import time is the median over fresh interpreters, since this process
    can import the package only once.
    """
    if not (src / "rxlearner" / "__init__.py").is_file():
        raise SystemExit(f"error: no rxlearner sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import rxlearner
    import rxlearner.cli  # noqa: F401 - the package does not import its CLI
    if Path(rxlearner.__file__).resolve().parent != (src / "rxlearner").resolve():
        raise SystemExit(f"error: imported rxlearner from {rxlearner.__file__}, not from {src}")
    times = [float(subprocess.run([sys.executable, "-c", IMPORT, str(src)], check=True,
                                  capture_output=True, text=True, timeout=60).stdout)
             for _ in range(SETUP_REPEATS)]
    return rxlearner, statistics.median(times)


@dataclass
class Pass:
    index: int
    traced: bool
    seconds: float
    output: workloads.PassOutput
    spans: list


def _one_pass(wl, tracer, index, traced) -> Pass:
    tracer.install(None if traced else BOUNDARY)
    root = tracer.open("bench.pass")
    root.attrs.update(index=index, traced=traced)
    try:
        t0 = time.perf_counter()
        result = wl.run_pass()
        seconds = time.perf_counter() - t0
    finally:
        tracer.close(root)
        tracer.uninstall()
    spans = tracer.spans[root.id:]
    return Pass(index, traced, seconds, wl.collect(result, spans), spans)


def _timed_passes(wl, tracer, seconds, cycle):
    """Closed loop, one caller: passes back to back until ``seconds`` is spent.

    A pass starts only if half a typical pass still fits, and every mode in
    ``cycle`` (untraced / traced) runs at least once.
    """
    passes, start = [], time.perf_counter()
    while True:
        passes.append(_one_pass(wl, tracer, len(passes), cycle[len(passes) % len(cycle)]))
        typical = statistics.median(p.seconds for p in passes)
        if len(passes) >= len(cycle) and time.perf_counter() - start + typical / 2 >= seconds:
            return passes


def _checks(passes):
    """Every check of every pass, plus: each pass predicts exactly what the first did."""
    results = []
    first = {k: workloads.fingerprint(v) for k, v in passes[0].output.predictions.items()}
    for p in passes:
        for name, ok in p.output.checks.items():
            results.append((f"pass{p.index}:{name}", bool(ok)))
        if p.index > 0:
            same = {k: workloads.fingerprint(v) for k, v in p.output.predictions.items()} == first
            results.append((f"pass{p.index}:same_predictions_as_pass0", same))
    return results, first


def _environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def run(rx, import_s, workload, seed, seconds, trace, scale=workloads.FULL, out_dir=OUT):
    """Run one workload; returns (result line, report)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    tracer = Tracer(rx)
    try:
        wl = workloads.make(rx, workload, seed, scale, workdir)
        setup_times, setup_spans = [], []
        if trace:
            tracer.install(None)
            root = tracer.open("bench.setup")
            try:
                wl.setup()
            finally:
                tracer.close(root)
                tracer.uninstall()
            setup_spans = tracer.spans[root.id:]
        else:
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(import_s + time.perf_counter() - t0)
        wl.reference()
        passes = _timed_passes(wl, tracer, seconds, [False, True] if trace else [False])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks, fingerprints = _checks(passes)
    failed = [name for name, ok in checks if not ok]
    untraced = [p for p in passes if not p.traced]
    quality = passes[0].output.quality
    unmeasured = []
    if trace:
        traced = [p for p in passes if p.traced]
        available = {name for name, *_ in public_callables(rx)}
        values, unmeasured = layer_metrics(setup_spans, [p.spans for p in traced], available)
        values["trace_overhead"] = (
            statistics.median(p.seconds for p in traced)
            / statistics.median(p.seconds for p in untraced) - 1.0, "ratio")
        for name in QUALITY:
            if name in quality:
                values[name] = (float(quality[name]), "outcome")
            else:
                unmeasured.append(name)
        tracer.write(out_dir / f"{workload}-seed{seed}.spans.jsonl")
    else:
        outs = [p.output for p in untraced]
        values = {
            "run_s": statistics.median(p.seconds for p in untraced),
            "predict_rows_per_s": sum(o.predict_rows for o in outs) / sum(o.predict_s for o in outs),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values = {name: (float(v), END_TO_END[name]) for name, v in values.items()}

    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    line = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
            "metrics": metrics}
    report = {
        "workload": workload, "why": workloads.WHY[workload], "seed": seed,
        "seconds": seconds, "trace": int(trace), "environment": _environment(),
        "fingerprints": fingerprints, "quality": quality,
        "passes": [{"index": p.index, "traced": p.traced, "seconds": p.seconds} for p in passes],
        "setup_seconds": setup_times, "checks": dict(checks), "failed_checks": failed,
        "notes": [n for p in passes for n in p.output.notes],
        "unmeasured": unmeasured, "result": line,
    }
    with open(out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return line, report


def _summary(report) -> list:
    lines = [
        f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
        f"{len(report['passes'])} passes",
        "environment " + " ".join(f"{k}={v}" for k, v in report["environment"].items()),
    ]
    lines += [f"fingerprint {report['workload']}/{k} sha256:{v}"
              for k, v in sorted(report["fingerprints"].items())]
    lines.append("quality " + " ".join(f"{k}={v:.4f}" for k, v in report["quality"].items()))
    for name, m in report["result"]["metrics"].items():
        lines.append(f"metric {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"checks {report['result']['attempted']} attempted, "
                 f"{report['result']['failed']} failed")
    lines += [f"FAILED check {name}" for name in report["failed_checks"]]
    lines += [f"note {n}" for n in report["notes"]]
    if report["unmeasured"]:
        lines.append("unmeasured " + " ".join(report["unmeasured"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    rx, import_s = load_program(HERE.parent / "src")
    line, report = run(rx, import_s, args.workload, args.seed, args.seconds, bool(args.trace))
    for text in _summary(report):
        print(text)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
