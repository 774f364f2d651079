"""Interleaved A/B of the point_mix queries: a git revision against the working tree.

    python3 tools/ab_points.py [--rev HEAD] [--seed 1] [--rounds 5] [--changes]

Run it from the repository root.  It extracts src/skewdyn at the
revision (git archive) into a temporary directory and loads it as the
package skewdyn_a; the working tree's src/skewdyn is loaded as
skewdyn_b.  Both build the query list of perfbench/inputs.point_calls
(seed) as the point_mix workload does, and then run in one process, call
by call: each round times call k on A and on B, alternating which side
goes first.  It prints, per kind of query, the sum over calls of each
call's fastest time on A and on B and their ratio B/A, and the sha256
of all the calls' reprs on each side.  It exits 1 if any call's repr
(or its exception) differs between A and B.

With --changes it times nothing: it runs each call once on A and on B
and reports, per kind, the calls whose repr moved, the largest
|value_B - value_A| over the estimates among them, and how many of those
moved by more than residual_A + residual_B, the distance two honest
estimates of one limit can lie apart.  It exits 0.

It reads perfbench/ and writes nothing there: no bytecode is cached.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import math
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (perfbench/inputs.py, standard library only)

ORDER = inputs.ESTIMATOR_KEYS + ("bottcher", "classify_point")


def load_package(name: str, src: Path):
    """The package in directory src, imported under the name `name`."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def extract(rev: str, into: Path) -> Path:
    """src/skewdyn as of git revision rev, unpacked under into."""
    blob = subprocess.run(["git", "archive", rev, "src/skewdyn"], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into)
    return into / "src" / "skewdyn"


def _applies(key: str, c) -> bool:
    if key in ("Gza", "Gzap"):
        return c.d >= 1 and c.alpha is not None
    if key == "Gzi":
        return c.d >= 1 and c.delta == c.d
    if key == "Gfa":
        return c.alpha is not None
    return True


def queries(pkg, calls) -> list:
    """(kind, thunk) per call, as the point_mix workload builds and issues them."""
    green = importlib.import_module(pkg.__name__ + ".green")
    regions = importlib.import_module(pkg.__name__ + ".regions")
    bottcher = importlib.import_module(pkg.__name__ + ".bottcher").bottcher
    out = []
    for call in calls:
        f = pkg.SkewProduct(pkg.UniPoly(dict(call.p_terms)), pkg.BiPoly(dict(call.q_terms)))
        c = pkg.classify(f)
        z, w, kind = call.z, call.w, call.kind
        if kind == "bottcher":
            thunk = (lambda f=f, c=c, z=z, w=w: bottcher(
                f, c, z, w, n_max=inputs.BOTTCHER_N_MAX, tol=inputs.BOTTCHER_TOL))
        elif kind == "classify_point":
            spec = regions.wedge_u_l(Fraction(call.wedge_l).limit_denominator(12),
                                     inputs.WEDGE_R)
            thunk = (lambda f=f, c=c, s=spec, z=z, w=w: regions.classify_point(
                f, c, s, z, w, budget=inputs.BASIN_BUDGET))
        else:
            start = inputs.ESTIMATOR_KEYS.index(kind)
            keys = inputs.ESTIMATOR_KEYS[start:] + inputs.ESTIMATOR_KEYS[:start]
            kind = next(k for k in keys if _applies(k, c))
            fn = green.ESTIMATORS[kind]
            thunk = (lambda fn=fn, f=f, c=c, z=z, w=w: fn(
                f, c, z, w, inputs.N_MAX, inputs.TOL))
        out.append((kind, thunk))
    return out


def timed(thunk) -> tuple[float, str]:
    """(seconds, repr of the result or of the exception) of one call."""
    t0 = time.perf_counter()
    try:
        result = repr(thunk())
    except Exception as exc:   # a refusal is a result too
        result = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result


def result(thunk):
    """The result of one call, or the repr of its exception."""
    try:
        return thunk()
    except Exception as exc:   # a refusal is a result too
        return f"{type(exc).__name__}: {exc}"


def change_report(pairs) -> list[str]:
    """Lines of the --changes table over pairs (kind, result A, result B)."""
    rows: dict[str, list] = {}
    for kind, a, b in pairs:
        row = rows.setdefault(kind, [0, 0, 0.0, 0])   # calls, moved, max |dv|, beyond
        row[0] += 1
        if repr(a) == repr(b):
            continue
        row[1] += 1
        if hasattr(a, "residual") and hasattr(b, "residual"):
            dv = 0.0 if a.value == b.value else abs(a.value - b.value)
            dv = math.inf if math.isnan(dv) else dv
            row[2] = max(row[2], dv)
            row[3] += not dv <= a.residual + b.residual
    out = [f"{'kind':<16}{'calls':>6}{'moved':>7}{'max |dv|':>11}{'beyond':>8}"]
    for kind in sorted(rows, key=ORDER.index):
        n, moved, dv, beyond = rows[kind]
        out.append(f"{kind:<16}{n:>6}{moved:>7}{dv:>11.3g}{beyond:>8}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision of side A")
    parser.add_argument("--seed", type=int, default=1, help="point_calls seed")
    parser.add_argument("--rounds", type=int, default=5, help="timed calls per query and side")
    parser.add_argument("--changes", action="store_true",
                        help="report the moved results per kind instead of timing")
    args = parser.parse_args(argv)

    calls = inputs.point_calls(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        pkg_a = load_package("skewdyn_a", extract(args.rev, Path(tmp)))
        pkg_b = load_package("skewdyn_b", ROOT / "src" / "skewdyn")
        qa, qb = queries(pkg_a, calls), queries(pkg_b, calls)
    if args.changes:
        print(f"A = {args.rev}, B = working tree; seed {args.seed}")
        print("\n".join(change_report((kind, result(ta), result(tb))
                                      for (kind, ta), (_, tb) in zip(qa, qb))))
        return 0
    best_a, best_b = [float("inf")] * len(calls), [float("inf")] * len(calls)
    differs, outs_a, outs_b = [], [], []
    for r in range(args.rounds):
        for k, ((kind, ta), (_, tb)) in enumerate(zip(qa, qb)):
            if (r + k) % 2:
                (sa, ra), (sb, rb) = timed(ta), timed(tb)
            else:
                (sb, rb), (sa, ra) = timed(tb), timed(ta)
            best_a[k], best_b[k] = min(best_a[k], sa), min(best_b[k], sb)
            if r == 0:
                outs_a.append(ra)
                outs_b.append(rb)
                if ra != rb:
                    differs.append((k, kind, ra, rb))

    sums: dict[str, list] = {}
    for (kind, _), a, b in zip(qa, best_a, best_b):
        entry = sums.setdefault(kind, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += a
        entry[2] += b
    print(f"A = {args.rev}, B = working tree; seed {args.seed}, {args.rounds} rounds")
    print(f"{'kind':<16}{'calls':>6}{'A ms':>10}{'B ms':>10}{'B/A':>8}")
    for kind in sorted(sums, key=ORDER.index):
        n, a, b = sums[kind]
        print(f"{kind:<16}{n:>6}{1e3 * a:>10.1f}{1e3 * b:>10.1f}{b / a:>8.3f}")
    total_a, total_b = sum(best_a), sum(best_b)
    print(f"{'total':<16}{len(calls):>6}{1e3 * total_a:>10.1f}{1e3 * total_b:>10.1f}"
          f"{total_b / total_a:>8.3f}")
    for side, out in (("A", outs_a), ("B", outs_b)):
        digest = hashlib.sha256("\n".join(out).encode()).hexdigest()
        print(f"sha256 of the reprs, {side}: {digest}")
    for k, kind, ra, rb in differs[:10]:
        print(f"DIFFERS call {k} ({kind}):\n  A {ra}\n  B {rb}")
    if differs:
        print(f"{len(differs)} calls differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
