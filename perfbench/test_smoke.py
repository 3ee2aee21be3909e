"""Smoke test of the benchmark harness at the smallest sizes, so that a
broken workload fails in seconds rather than in a full run.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace):
    return run.run_workload(workload, seed=7, seconds=0, trace=trace, small=True)


def _command(cwd, workload="siegel-weil"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    r = _run(workload, trace=False)
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert {m["name"] for m in SPEC["end_to_end"]} == set(r["metrics"])
    assert all(v["value"] > 0 for v in r["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = _run(workload, trace=True), _run(workload, trace=True)
    assert first["correct"] and first["failed"] == 0
    assert {m["name"] for m in SPEC["per_layer"]} == set(first["metrics"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, v in first["metrics"].items():
        assert v["unit"] == units[name]
        if v["unit"] in ("count", "norm", "ratio"):
            assert second["metrics"][name]["value"] == v["value"], name


def test_command_prints_one_result_line():
    p = _command(HERE.parent)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    p = _command(tmp_path)
    assert p.returncode != 0 and p.stdout.strip() == ""
