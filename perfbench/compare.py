#!/usr/bin/env python3
"""Compare the benchmark records of two commits.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records that run.py writes to perfbench/_work
(<workload>-seed<n>-trace0.json, one per seed), copied aside after
running each commit.  For every workload and metric, end-to-end and
workload-specific alike, the script prints both medians, the change of
the medians, each side's quartile spread as a share of its median, and
on how many seeds NEW was better than BASE (runs paired by seed).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict:
    """workload -> metric -> seed -> value"""
    out: dict = defaultdict(lambda: defaultdict(dict))
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        seed = record["provenance"]["seed"]
        for name, metric in record["metrics"].items():
            out[record["workload"]][name][seed] = metric["value"]
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':13} {'metric':22} {'base':>11} {'new':>11} {'change':>8}"
          f" {'iqr base':>8} {'iqr new':>8} {'new wins':>8}")
    for workload in sorted(set(base) & set(new)):
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][name], new[workload][name]
            mb, mn = statistics.median(b.values()), statistics.median(n.values())
            paired = sorted(set(b) & set(n))
            wins = sum(n[s] < b[s] for s in paired)  # every recorded metric is lower-is-better
            change = (mn / mb - 1) * 100 if mb else float("nan")
            print(f"{workload:13} {name:22} {mb:11.5g} {mn:11.5g} {change:7.1f}%"
                  f" {spread(list(b.values())):8.3f} {spread(list(n.values())):8.3f}"
                  f" {wins:4d}/{len(paired)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
