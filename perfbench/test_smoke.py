"""Smoke test of the benchmark at tiny scale.

Run from the root of a checkout (takes about two minutes)::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced; each run must pass
its output checks and print every metric ``BENCHMARK.json`` declares,
with its unit.  A directory holding only the benchmark must be refused.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(cwd: str, workload: str, trace: int, scale: str = "tiny") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_prints_every_declared_metric(workload: str, trace: int, declared: str) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if declared == "end_to_end":
            assert m["value"] > 0, name
    assert "[FAIL]" not in proc.stdout


def test_refuses_a_directory_without_the_program(tmp_path) -> None:
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = _run(str(tmp_path), "lake-mixed", 0, scale="full")
    assert proc.returncode != 0
    assert proc.stdout == ""
