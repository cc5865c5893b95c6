"""Checks on the benchmark itself: exact work counts and metric names.

Not collected by the repository's test run (the file name does not
match ``test_*.py``); run it explicitly from the repository root:

    python -m pytest -q perfbench/count_check.py

Each traced run takes one untraced and one traced pass over the
workload's instance set (``--seconds 0``), about 10 to 20 seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TIMES = ("s", "ratio")


def run(workload: str, seed: int, trace: int, seconds: float = 0.0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout + proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] not in TIMES}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_and_follow_the_seed(workload):
    first = run(workload, seed=11, trace=1)
    again = run(workload, seed=11, trace=1)
    other = run(workload, seed=12, trace=1)
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert counts(first) == counts(again)
    assert counts(first) != counts(other)


def test_untraced_run_reports_every_end_to_end_metric():
    result = run(WORKLOADS[0], seed=11, trace=0, seconds=1.0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
