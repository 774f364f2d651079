"""Interleaved A/B of the fiber renders: a git revision against the working tree.

    python3 tools/ab_render.py [--rev HEAD] [--workload fiber_direct] [--seeds 1,2,3,4,5]
                               [--rounds 20]

Run it from the repository root.  It extracts src/skewdyn at the
revision (git archive) into a temporary directory.  Side A runs that
package and side B the working tree's src/skewdyn, each in its own
worker subprocess that imports its side's package once.  For every
seed, both workers render the workload's functions on the grid of
perfbench/inputs.fiber_inputs(workload, seed) through skewdyn.cli.main,
with the benchmark's arguments, once per round; the side that goes
first alternates from round to round.  It prints the quantiles of each
function's render time and of each pass (every function once) on A and
on B, with the ratio B/A of the medians, and compares every .pgm, .csv
and .meta the two sides wrote.  It exits 1 if any file differs.

It reads perfbench/ and writes nothing there: the renders go to a
temporary directory, and no bytecode is cached.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (perfbench/inputs.py, standard library only)


def extract(rev: str, into: Path) -> Path:
    """The src directory holding skewdyn as of git revision rev, unpacked under into."""
    blob = subprocess.run(["git", "archive", rev, "src/skewdyn"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into)
    return into / "src"


def worker(src: str, out: str) -> None:
    """Render on request: one JSON line (workload, seed) in, the render times out."""
    sys.path.insert(0, src)
    from skewdyn import cli

    for line in sys.stdin:
        job = json.loads(line)
        inp = inputs.fiber_inputs(job["workload"], job["seed"])
        where = Path(out) / f"{job['workload']}-{job['seed']}"
        where.mkdir(parents=True, exist_ok=True)
        map_path = where / "map.skew"
        map_path.write_text(inp.map_text)
        times = []
        for fn in inp.functions:
            argv = ["render", str(map_path), "--function", fn, "--grid", inp.grid_arg(),
                    "--n-max", str(inputs.N_MAX), "--tol", repr(inputs.TOL),
                    "--out-dir", str(where), "--out-prefix", fn]
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            times.append(time.perf_counter() - t0)
            if code:
                raise SystemExit(f"render {fn} exited {code}")
        print(json.dumps(times), flush=True)


class Side:
    def __init__(self, src: Path, out: Path):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, "-B", __file__, "--worker", str(src), str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, workload: str, seed: int) -> list[float]:
        self.proc.stdin.write(json.dumps({"workload": workload, "seed": seed}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit(f"worker on {self.out} stopped")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def quantiles(xs: list[float]) -> tuple[float, float, float]:
    """(min, median, upper decile) in ms."""
    p90 = statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]
    return 1e3 * min(xs), 1e3 * statistics.median(xs), 1e3 * p90


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision of side A")
    parser.add_argument("--workload", default="fiber_direct",
                        choices=sorted(inputs.FIBER_FUNCTIONS))
    parser.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated input seeds")
    parser.add_argument("--rounds", type=int, default=20, help="timed passes per seed and side")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(*args.worker)
        return 0

    seeds = [int(s) for s in args.seeds.split(",")]
    functions = inputs.FIBER_FUNCTIONS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = [Side(extract(args.rev, tmp / "rev"), tmp / "A"),
                 Side(ROOT / "src", tmp / "B")]
        times: list[list[list[float]]] = [[], []]   # per side, per pass, per function
        try:
            for side in sides:   # the first render loads numpy and warms the caches
                side.run(args.workload, seeds[0])
            for seed in seeds:
                for r in range(args.rounds):
                    for k in ((0, 1) if r % 2 == 0 else (1, 0)):
                        times[k].append(sides[k].run(args.workload, seed))
        finally:
            for side in sides:
                side.close()
        differs = []
        for seed in seeds:
            for fn in functions:
                for ext in ("pgm", "csv", "meta"):
                    name = f"{args.workload}-{seed}/{fn}.{ext}"
                    if (tmp / "A" / name).read_bytes() != (tmp / "B" / name).read_bytes():
                        differs.append(name)

    print(f"A = {args.rev}, B = working tree; {args.workload}, seeds {args.seeds}, "
          f"{args.rounds} rounds each")
    print(f"{'render':<8}{'A min':>8}{'A med':>8}{'A p90':>8}{'B min':>8}{'B med':>8}"
          f"{'B p90':>8}{'B/A':>7}   (ms; B/A of the medians)")
    rows = [(fn, [[p[k] for p in side] for side in times]) for k, fn in enumerate(functions)]
    rows.append(("pass", [[sum(p) for p in side] for side in times]))
    for name, (a, b) in rows:
        qa, qb = quantiles(a), quantiles(b)
        print(f"{name:<8}" + "".join(f"{x:>8.2f}" for x in qa + qb) + f"{qb[1] / qa[1]:>7.3f}")
    for name in differs:
        print(f"DIFFERS {name}")
    if differs:
        print(f"{len(differs)} files differ")
        return 1
    print(f"all {len(seeds) * len(functions) * 3} files byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
