"""Tests of the benchmark itself: every workload at the smoke size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, cwd=cwd, timeout=600
    )


@pytest.fixture(scope="module")
def smoke():
    """(info, result) of one smoke run per workload and trace setting."""
    runs = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            done = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "smoke")
            assert done.returncode == 0, done.stderr
            *_, info, result = done.stdout.strip().splitlines()
            runs[name, trace] = json.loads(info), json.loads(result)
    return runs


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.metric_units()
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(smoke, workload, trace):
    info, result = smoke[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    assert info["seed"] == 3


def test_bypass_predictions(smoke):
    for name in workloads.WORKLOADS:
        metrics = smoke[name, 1][1]["metrics"]
        assert (metrics["lindblad.evolve_calls"]["value"] > 0) == (name == "lindblad-scan")
        assert (metrics["sweep.sidecar_bytes"]["value"] > 0) == (name == "decay-artifact")


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "decay-artifact", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_excludes_child_spans():
    spans = [
        layers.Span(0, "runner.analyses", None, "0.run", 0.0, 1.0),
        layers.Span(1, "fitting.fit.gaussian", 0, "0.run", 0.2, 0.5,
                    {"fitting.fit_calls.gaussian": 1, "fitting.lm_iters.gaussian": 7, "fitting.converged": 1}),
        layers.Span(2, "runner.load_artifact", None, "0.report", 1.0, 1.5),
        layers.Span(3, "sweep.read", 2, "0.report", 1.1, 1.3, {"sweep.bytes_read": 10}),
    ]
    metrics = layers.layer_metrics(spans, wall=2.0)
    assert metrics["runner.analyses_s"] == pytest.approx(0.7)
    assert metrics["fitting.fit_s.gaussian"] == pytest.approx(0.3)
    assert metrics["sweep.read_s"] == pytest.approx(0.2)
    assert metrics["runner.self_s"] == pytest.approx(0.8)
    assert metrics["fitting.lm_iters.gaussian"] == 7
    assert metrics["fitting.converged_ratio"] == 1.0
    assert metrics["sweep.bytes_read"] == 10


def _records(values: list, failed: int = 0) -> list:
    return [
        {"info": {"workload": "decay-artifact", "seed": seed, "trace": 0, "size": "full"},
         "result": {"attempted": 10, "failed": failed,
                    "metrics": {m["name"]: {"value": v, "unit": m["unit"]} for m in SPEC["end_to_end"]}}}
        for seed, v in enumerate(values)
    ]


@pytest.mark.parametrize(
    "parent, change, failed, expected",
    [
        ([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00], [0.5] * 10, 0, "improved"),
        ([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00], [0.5] * 10, 1, "unchanged"),
        ([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00], [2.0] * 10, 0, "worse"),
        ([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00], [1.01] * 10, 0, "unchanged"),
        ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0], [1.5] * 10, 0, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, failed, expected):
    rows = compare.compare(_records(parent), _records(change, failed), SPEC)
    assert {row["verdict"] for row in rows} == {expected}
