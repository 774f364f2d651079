"""Build BENCH_render.json and BENCH_suite.json from the benchmark records of two checkouts.

    python3 tools/bench_files.py --parent PARENT --change CHANGE [--tier1-runs 3]

PARENT and CHANGE are checkouts of the repository, the parent commit and
the change, in each of which perfbench/run.py has run with --trace 0,
once per workload and seed:

    python3 perfbench/run.py --workload fiber_ratio --seed 1 --seconds 25 --trace 0

Their records (perfbench/_work/<workload>-seed<n>-trace0.json) are read
as they are.  Per workload and side, the file lists every record's seed,
end-to-end metrics (setup_s, wall_s, wall_median_s, peak_rss_mb), check
counts, provenance (machine, Python and numpy versions, git revision,
source hash) and config (grid or call count, n_max, tol, run length),
and the median and quartiles of each metric over the side's records.
Where both sides ran a seed, it counts the seeds on which the change's
wall_s is lower.  BENCH_render.json holds fiber_ratio and fiber_direct;
BENCH_suite.json holds verify, point_mix and the wall time of the
tier-1 suite, which this tool runs in each checkout --tier1-runs times,
alternating which side goes first.  Both files go to the root of this
tool's own repository.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "wall_s", "wall_median_s", "peak_rss_mb")
FILES = {"BENCH_render.json": ("fiber_ratio", "fiber_direct"),
         "BENCH_suite.json": ("verify", "point_mix")}
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def quartiles(values: list[float]) -> dict:
    """median and quartiles of values; the median alone below four values."""
    if len(values) < 4:
        return {"median": statistics.median(values), "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "n": len(values)}


def records(checkout: Path, workload: str) -> list[dict]:
    """The --trace 0 records of workload in checkout, by seed."""
    out = []
    for path in sorted((checkout / "perfbench" / "_work").glob(f"{workload}-seed*-trace0.json")):
        rec = json.loads(path.read_text())
        out.append({"seed": rec["provenance"]["seed"],
                    "metrics": {m: rec["metrics"][m]["value"] for m in METRICS},
                    "checks": rec["checks"], "provenance": rec["provenance"],
                    "config": {"shape": rec["shape"], "seconds": rec["seconds"],
                               "passes": rec["passes"]}})
    return sorted(out, key=lambda r: r["seed"])


def side(runs: list[dict]) -> dict:
    return {"summary": {m: quartiles([r["metrics"][m] for r in runs]) for m in METRICS},
            "runs": runs}


def workload_entry(parent: Path, change: Path, workload: str) -> dict:
    a, b = records(parent, workload), records(change, workload)
    if not (a and b):
        raise SystemExit(f"no {workload} records in one of the checkouts")
    wall_a = {r["seed"]: r["metrics"]["wall_s"] for r in a}
    both = [r for r in b if r["seed"] in wall_a]
    return {"parent": side(a), "change": side(b),
            "seeds_both": len(both),
            "seeds_change_wall_s_lower": sum(r["metrics"]["wall_s"] < wall_a[r["seed"]]
                                             for r in both)}


def tier1(parent: Path, change: Path, runs: int) -> dict:
    """Wall time of the tier-1 suite per side, alternating which side runs first."""
    env = dict(os.environ, PYTHONPATH="src")
    out = {"parent": [], "change": []}
    for k in range(runs):
        for name in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            checkout = parent if name == "parent" else change
            t0 = time.perf_counter()
            done = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
            seconds = time.perf_counter() - t0
            out[name].append({"seconds": seconds,
                              "result": done.stdout.strip().splitlines()[-1]})
    return {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
            **{name: {"summary": quartiles([r["seconds"] for r in rs]), "runs": rs}
               for name, rs in out.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--tier1-runs", type=int, default=3, help="tier-1 suite runs per side")
    args = ap.parse_args(argv)
    for name, workloads in FILES.items():
        body = {w: workload_entry(args.parent, args.change, w) for w in workloads}
        if name == "BENCH_suite.json":
            body["tier1"] = tier1(args.parent, args.change, args.tier1_runs)
        (ROOT / name).write_text(json.dumps(body, indent=1) + "\n")
        print(f"wrote {ROOT / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
