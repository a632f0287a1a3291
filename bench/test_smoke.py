"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload once untraced and twice traced, through the same
command line a benchmark run uses, and checks the printed metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_printed(lines: list[str], result: dict, metrics: list[dict]) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines), m


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    lines, result = run(workload, trace=0)
    assert_printed(lines, result, BENCHMARK["end_to_end"])
    assert any(line.startswith("fail_rate 0 ratio") for line in lines)
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts(workload):
    first_lines, first = run(workload, trace=1)
    _, second = run(workload, trace=1)
    assert_printed(first_lines, first, BENCHMARK["per_layer"])
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert first["metrics"]["trace.missing_names"]["value"] == 0
    assert any(v > 0 for k, v in counts[0].items() if k.endswith(".calls"))
