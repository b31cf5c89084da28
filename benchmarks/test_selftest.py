"""Fast self-test of the benchmark harness at a tiny input size.

    python3 -m pytest -q benchmarks
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LEARNERS = {
    "pathology_2k": {"mse_x", "winsorized_x", "dr_clipped", "huber_x", "rx"},
    "displacement_61k": {"mse_x", "rx"},
    "score_61k": {"rx"},
}


@pytest.fixture(scope="module")
def program():
    return run.load_program(ROOT / "src")


def _run(program, tmp_path, workload, trace):
    rx, import_s = program
    return run.run(rx, import_s, workload, 11, 0.2, trace, scale=workloads.TINY, out_dir=tmp_path)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    expected = {name: (unit, better) for name, (unit, better, *_) in LAYER_METRICS.items()}
    expected["trace_overhead"] = ("ratio", "lower")
    expected.update({name: ("outcome", "lower") for name in run.QUALITY})
    assert declared == expected


@pytest.mark.parametrize("workload", list(workloads.WHY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_passes_checks(program, tmp_path, workload, trace):
    line, report = _run(program, tmp_path, workload, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, report["failed_checks"]
    section = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in line["metrics"].values():
        assert math.isfinite(m["value"])
    assert set(report["fingerprints"]) == LEARNERS[workload]
    saved = json.loads((tmp_path / f"{workload}-seed11-trace{int(trace)}.json").read_text())
    assert saved["result"] == line
    if trace:
        spans = [json.loads(s) for s in (tmp_path / f"{workload}-seed11.spans.jsonl").open()]
        ids = {s["id"] for s in spans}
        assert {"bench.setup", "bench.pass"} <= {s["name"] for s in spans}
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)
        assert all(s["start"] <= s["end"] for s in spans)
        metrics = {k: v["value"] for k, v in line["metrics"].items()}
        if workload == "score_61k":
            assert metrics["boosting.fit_tree.calls"] == 0
            assert metrics["datasets.csv_load.s"] > 0
        else:
            assert metrics["boosting.fit_tree.calls"] > 0
            assert metrics["boosting.rounds_run"] <= metrics["boosting.rounds_requested"]
        if workload == "pathology_2k":
            # mse_x and dr_clipped fit the same squared-loss mu0/mu1
            assert metrics["metalearners.stage1.fits"] == 10
            assert metrics["metalearners.stage1_unique_ratio"] <= 0.8


def test_failed_check_is_counted_and_named(program, tmp_path, monkeypatch):
    reference = workloads.ScoreWorkload.reference

    def skewed(self):
        reference(self)
        self.expected = self.expected + 1.0

    monkeypatch.setattr(workloads.ScoreWorkload, "reference", skewed)
    line, report = _run(program, tmp_path, "score_61k", False)
    assert not line["correct"] and line["failed"] >= 1
    assert any(name.endswith("cli_csv_matches_predict_cate") for name in report["failed_checks"])


def test_missing_function_is_reported_unmeasured(program, tmp_path, monkeypatch):
    rx, _ = program
    monkeypatch.delattr(rx.losses, "mad_scale")
    line, report = _run(program, tmp_path, "pathology_2k", True)
    assert line["correct"]
    assert "losses.mad_scale.calls" in report["unmeasured"]
    assert "losses.mad_scale.calls" not in line["metrics"]
    assert "boosting.fit_tree.calls" in line["metrics"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pathology_2k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
