"""Interleaved A/B of a workload's set-up time: a git revision against the working tree.

    python3 tools/ab_setup.py [--rev HEAD] [--workload point_mix] [--pairs 20] [--seed 0]

Run it from the repository root.  It extracts src/skewdyn and perfbench
at the revision (git archive) into a temporary directory, and copies the
working tree's src/skewdyn and perfbench (without bytecode or
perfbench/_work) into another.  Each probe is one fresh interpreter
running that side's `perfbench/run.py --workload W --seed S
--setup-probe`, which prints the seconds of one set-up: importing the
package, then building (and classifying) the workload's inputs.  After
one untimed probe per side, which would write the bytecode where the
environment lets Python cache it, it runs the pairs; the side that goes
first alternates from pair to pair.  It prints each side's median,
quartiles and upper decile (the benchmark's statistic for setup_s), the
ratio B/A of the medians, and in how many pairs B, the working tree,
was faster.

Children inherit the environment, so PYTHONDONTWRITEBYTECODE decides
whether each probe compiles the package.  It writes nothing under the
repository: the probes run in the temporary copies.
"""

from __future__ import annotations

import argparse
import io
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, into: Path) -> Path:
    """src/skewdyn and perfbench as of git revision rev, unpacked under into."""
    blob = subprocess.run(["git", "archive", rev, "src/skewdyn", "perfbench"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into)
    return into


def copy_tree(into: Path) -> Path:
    """The working tree's src/skewdyn and perfbench, copied under into."""
    skip = shutil.ignore_patterns("__pycache__", "_work")
    shutil.copytree(ROOT / "src" / "skewdyn", into / "src" / "skewdyn", ignore=skip)
    shutil.copytree(ROOT / "perfbench", into / "perfbench", ignore=skip)
    return into


def probe(root: Path, workload: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter on the copy at root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--setup-probe"], cwd=root, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe in {root} failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def summary(times: list[float]) -> tuple[float, float, float, float]:
    """(lower quartile, median, upper quartile, upper decile) of times."""
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, med, q3, statistics.quantiles(times, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision of side A")
    parser.add_argument("--workload", default="point_mix", help="a perfbench/run.py workload")
    parser.add_argument("--pairs", type=int, default=20, help="alternating pairs of probes")
    parser.add_argument("--seed", type=int, default=0, help="the workload's seed")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    with tempfile.TemporaryDirectory() as tmp:
        side_a = extract(args.rev, Path(tmp) / "a")
        side_b = copy_tree(Path(tmp) / "b")
        for root in (side_a, side_b):
            probe(root, args.workload, args.seed)
        a, b = [], []
        for k in range(args.pairs):
            order = ((side_a, a), (side_b, b)) if k % 2 else ((side_b, b), (side_a, a))
            for root, times in order:
                times.append(probe(root, args.workload, args.seed))

    print(f"A = {args.rev}, B = working tree; {args.workload} seed {args.seed}, "
          f"{args.pairs} pairs of set-up probes")
    print(f"{'side':<6}{'q1 s':>9}{'median s':>10}{'q3 s':>9}{'p90 s':>9}")
    for side, times in (("A", a), ("B", b)):
        q1, med, q3, p90 = summary(times)
        print(f"{side:<6}{q1:>9.4f}{med:>10.4f}{q3:>9.4f}{p90:>9.4f}")
    ratio = statistics.median(b) / statistics.median(a)
    print(f"median B/A {ratio:.3f} ({100 * (ratio - 1):+.1f}%); B faster in "
          f"{sum(tb < ta for ta, tb in zip(a, b))} of {args.pairs} pairs")
    print("pairs (A, B): " + " ".join(f"{ta:.3f}/{tb:.3f}" for ta, tb in zip(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
