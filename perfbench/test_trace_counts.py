"""The traced counts repeat exactly, and the printed metrics match BENCHMARK.json.

Run from the repository root (about half a minute):

    python3 -m pytest perfbench/test_trace_counts.py

Every run is a fresh interpreter with a one-second timed phase.  The
counts are driver steps, calls, termination tags and bytes written.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(spec_metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec_metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert units == _units(SPEC["per_layer"])
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert any(counts.values())


def test_end_to_end_metrics_match_spec():
    result = _run("fiber_ratio", 0)
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 1
