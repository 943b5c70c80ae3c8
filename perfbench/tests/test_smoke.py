"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root (it is not part of the tier-1 suite):

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
PROVENANCE = {"python", "numpy", "scipy", "nproc", "git_commit", "seed",
              "thread_limit"}


def run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    summary, result = parse(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert summary["failed_frac"] == {"value": 0.0, "unit": "1"}
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert PROVENANCE <= set(summary["provenance"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    summary, result = parse(run(workload, 1))
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert summary["samples"]["absent"] == []


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
