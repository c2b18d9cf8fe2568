"""The benchmark's own tests (not part of the program's suite; run them by path).

    python3 -m pytest -q perfbench/test_bench.py

They run the benchmark, so they take about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, workload: str, trace: int, seed: int = 3, seconds: int = 1):
    cmd = [sys.executable, SPEC["command"][1], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    """Two traced runs of one seed agree on every count and on every metric name."""
    a, b = (result(run(ROOT, workload, trace=1)) for _ in range(2))
    for r in (a, b):
        assert r["correct"] and r["failed"] == 0
        assert set(r["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k for k, v in a["metrics"].items() if v["unit"] == "count"}
    assert len(counts) >= 20
    assert {k: a["metrics"][k]["value"] for k in counts} == {k: b["metrics"][k]["value"] for k in counts}


def test_end_to_end_metrics():
    r = result(run(ROOT, "verify", trace=0))
    assert r["correct"] and r["attempted"] >= 3
    assert {k: v["unit"] for k, v in r["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in r["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    """A directory holding only the benchmark's files gives no result and a non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
