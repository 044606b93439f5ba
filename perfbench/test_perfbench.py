"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke runs take a few seconds each; the attrition test traces the full
(40, 80) enumeration and takes about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
from run import END_TO_END, WORKLOADS, per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    out = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = END_TO_END if trace == 0 else per_layer_units()
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(m["value"] is not None for m in out["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_lookup_inputs_are_seeded_distinct_and_in_bounds():
    first = inputs.lookup_inputs(5, inputs.FULL_SIZES)
    assert first == inputs.lookup_inputs(5, inputs.FULL_SIZES)
    assert first != inputs.lookup_inputs(6, inputs.FULL_SIZES)
    keys = [key for key, _ in first["classify"]]
    per_verdict = inputs.FULL_SIZES["classify_per_verdict"]
    assert len(set(keys)) == len(keys) == 2 * per_verdict
    assert sum(accepted for _, accepted in first["classify"]) == per_verdict
    assert all(k[4] <= inputs.LOOKUP_MAX_A4 and k[6] <= inputs.LOOKUP_MAX_D2 for k in keys)
    assert set(inputs.load_golden()) <= set(keys)
    # Each percentile needs ten samples beyond it: p99, p80 and p50.
    assert per_verdict >= 1000
    golden = [key for key, expected in first["match"] if expected is None]
    assert len(golden) == len(inputs.load_golden()) >= 50
    assert len(first["match"]) - len(golden) >= 20
    assert len(first["cold"]) >= 21


def test_traced_attrition_matches_the_baseline_counts():
    out = result_of(bench("--workload", "enum-shaped", "--seed", "1", "--seconds", "1",
                          "--trace", "1"))
    assert out["correct"]
    counts = {name: out["metrics"][name]["value"] for name in inputs.ATTRITION[(40, 80)]}
    assert counts == inputs.ATTRITION[(40, 80)]


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "lookup", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
