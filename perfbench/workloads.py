"""Set-up, timed pass and correctness checks of each workload.

Importing this module imports the package, so the set-up timing starts
before the import.  Every call into the package goes through a public
name looked up at call time (a module attribute or a ``green.ESTIMATORS``
entry), which is where the tracer in ``tracing.py`` hooks in.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from inputs import (BASIN_BUDGET, BOTTCHER_N_MAX, BOTTCHER_TOL, ESTIMATOR_KEYS,
                    N_MAX, TOL, WEDGE_R, FiberInputs, PointCall)

# importlib returns the submodules themselves: the package namespace
# rebinds some of their names (skewdyn.bottcher is the function there).
algebra = importlib.import_module("skewdyn.algebra")
bottcher_mod = importlib.import_module("skewdyn.bottcher")
cli = importlib.import_module("skewdyn.cli")
fileio = importlib.import_module("skewdyn.fileio")
green = importlib.import_module("skewdyn.green")
newton = importlib.import_module("skewdyn.newton")
oracles = importlib.import_module("skewdyn.oracles")
regions = importlib.import_module("skewdyn.regions")

CHECK_TOL = 1e-6          # |estimate - oracle|, as in the package's transport check
BOTTCHER_RESIDUAL = 1e-8  # conjugacy residual bound of the package's acceptance gate
ORACLE_BUDGET = 200
BUDGET = "budget"


@dataclass
class PassResult:
    seconds: float
    op_seconds: list[float]       # one entry per timed operation
    outputs: list                 # comparable per-operation results


def upper_decile(values: list[float]) -> float:
    """The 90th percentile of a run's pass (or render) times.

    The machine this benchmark was built on runs at two speeds that
    switch every few seconds, as other tenants load the shared cores;
    most of the time it runs at the slow one.  The upper decile of the
    passes sits on that common level in almost every run, so it repeats
    more closely between runs than the fastest or the median pass, and
    unlike the fastest pass it does not fall as a run fits in more passes.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


@dataclass
class Timings:
    """What the timed phase keeps of its passes."""

    seconds: list[float] = field(default_factory=list)     # per pass
    ops: list[list[float]] = field(default_factory=list)   # per pass, when few operations
    op_p50: list[float] = field(default_factory=list)      # per pass: operation quantiles
    op_p99: list[float] = field(default_factory=list)

    def add(self, result: PassResult) -> None:
        ops = result.op_seconds
        self.seconds.append(result.seconds)
        if len(ops) >= 1000:  # at least ten operations beyond p99
            cuts = statistics.quantiles(ops, n=100)
            self.op_p50.append(cuts[49])
            self.op_p99.append(cuts[98])
        else:
            self.ops.append(ops)

    def wall(self) -> float:
        return upper_decile(self.seconds)


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    refused: int = 0              # documented ValueError
    unsettled: int = 0            # estimates whose termination is 'budget'
    estimates: int = 0
    skipped: int = 0              # no oracle value (Julia band, no table entry)
    examples: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.examples) < 8:
            self.examples.append(what)


def _close(value: float, expected: float) -> bool:
    if math.isfinite(value) and math.isfinite(expected):
        return abs(value - expected) <= CHECK_TOL
    return value == expected


# ---------------------------------------------------------------------------
# fiber renders through the CLI
# ---------------------------------------------------------------------------

@dataclass
class FiberState:
    name: str
    inputs: FiberInputs
    map_path: Path
    out_dir: Path


def fiber_setup(name: str, inputs: FiberInputs, map_path: Path, work: Path) -> FiberState:
    f = fileio.load_skew_product(map_path)
    newton.classify(f)
    return FiberState(name, inputs, map_path, work / "render")


def fiber_pass(state: FiberState) -> PassResult:
    """One `skewdyn render` per function; outputs are (exit code, CSV text).

    The operations are the renders, each timed whole.
    """
    inp = state.inputs
    ops, codes = [], []
    sink = io.StringIO()
    t_pass = time.perf_counter()
    for fn in inp.functions:
        argv = ["render", str(state.map_path), "--function", fn,
                "--grid", inp.grid_arg(), "--n-max", str(N_MAX), "--tol", repr(TOL),
                "--out-dir", str(state.out_dir), "--out-prefix", f"{state.name}-{fn}"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            codes.append(cli.main(argv))
        ops.append(time.perf_counter() - t0)
    seconds = time.perf_counter() - t_pass
    outputs = [(rc, (state.out_dir / f"{state.name}-{fn}.csv").read_text() if rc == 0 else "")
               for fn, rc in zip(inp.functions, codes)]
    return PassResult(seconds, ops, outputs)


def _basilica_rate(c: complex, budget: int = 4000) -> float | None:
    """lim 2^-n log|c_n| for c' = c^2 - 1, or None when undecided.

    |c| < 0.4 and |c + 1| < 0.18 are trapped by the superattracting
    2-cycle {0, -1}, where the rate is 0; past |c| = 1e8 the remaining
    tail is below 1e-16 / 2^n.
    """
    for n in range(budget):
        a = abs(c)
        if a > 1e8:
            return math.log(a) / 2**n
        if a < 0.4 or abs(c + 1) < 0.18:
            return 0.0
        c = c * c - 1
    return None


def _ratio_oracle(fn: str, z: complex, w: complex) -> float | None:
    """fiber_ratio: c = w / z follows h(c) = c^3 + c^2 (alpha = 1)."""
    h = oracles.example_cubic_h()
    c = w / z
    side = oracles.julia_membership(h, c, ORACLE_BUDGET)
    if side == "boundary_band":
        return None
    if fn == "Gzap":
        return oracles.g_h_infty_plus(h, c, ORACLE_BUDGET, 1e-12)
    if fn == "Gza":
        # the rate is 0 on the basin of 0; g_h_infty reports -inf there
        # once the orbit underflows to an exact zero
        return oracles.g_h_infty(h, c, ORACLE_BUDGET, 1e-12) if side == "escaping" else 0.0
    return math.log(abs(z))  # Gz = alpha * G_p, G_p = log|z| for p = z^4


def _direct_oracle(fn: str, z: complex, w: complex) -> float | None:
    """fiber_direct: G_p = log|z| and the escape rate of c = w / z^(3/2)."""
    g = _basilica_rate(w / z**1.5)
    if g is None:
        return None
    lz = math.log(abs(z))
    return {"Gza": g, "Gzi": 1.5 * lz + g, "Gz": 1.5 * lz + g,
            "Gf": max(lz, 1.5 * lz + g), "Gfa": 1.5 * lz + g}[fn]


def fiber_diff(first: list, other: list) -> set:
    """(function index, row) of every CSV row that differs from the first pass."""
    out = set()
    for k, ((rc_a, text_a), (rc_b, text_b)) in enumerate(zip(first, other)):
        if (rc_a, text_a) != (rc_b, text_b):
            rows_a, rows_b = text_a.splitlines()[1:], text_b.splitlines()[1:]
            out.update((k, i) for i in range(max(len(rows_a), len(rows_b)))
                       if rows_a[i:i + 1] != rows_b[i:i + 1])
    return out


def fiber_check(state: FiberState, first: PassResult, differs: set) -> Checks:
    oracle = _ratio_oracle if state.name == "fiber_ratio" else _direct_oracle
    z = state.inputs.fiber_z
    chk = Checks()
    for k, fn in enumerate(state.inputs.functions):
        rc, text = first.outputs[k]
        if rc != 0:
            chk.attempted += state.inputs.grid ** 2
            chk.fail(f"render {fn} exited {rc}", count=state.inputs.grid ** 2)
            continue
        for i, row in enumerate(text.splitlines()[1:]):
            chk.attempted += 1
            chk.estimates += 1
            if (k, i) in differs:
                chk.fail(f"{fn} row {i}: differs between passes")
                continue
            cols = row.split(",")
            w = complex(float(cols[2]), float(cols[3]))
            value, term = float(cols[4]), cols[6]
            if term == "converged" and not math.isfinite(value):
                chk.fail(f"{fn} at w={w}: converged with value {value}")
                continue
            if term == BUDGET:
                chk.unsettled += 1
                continue
            expected = oracle(fn, z, w)
            if expected is None:
                chk.skipped += 1
            elif not _close(value, expected):
                chk.fail(f"{fn} at w={w}: {value!r} ({term}) vs oracle {expected!r}")
    return chk


def fiber_extras(state: FiberState, timings: Timings) -> dict:
    """Each render's time, taken as wall_s is, per pixel."""
    px = state.inputs.grid ** 2
    return {f"us_per_px.{fn}": (upper_decile(list(times)) / px * 1e6, "us")
            for fn, times in zip(state.inputs.functions, zip(*timings.ops))}


# ---------------------------------------------------------------------------
# skewdyn verify
# ---------------------------------------------------------------------------

def verify_pass(state=None) -> PassResult:
    """`skewdyn verify`, one operation; the output is (exit code, stdout)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = cli.main(["verify"])
    seconds = time.perf_counter() - t0
    return PassResult(seconds, [seconds], [(rc, sink.getvalue())])


def verify_diff(first: list, other: list) -> set:
    return {0} if first != other else set()


def verify_check(state, first: PassResult, differs: set) -> Checks:
    chk = Checks()
    rc, text = first.outputs[0]
    lines = [ln for ln in text.splitlines() if ln.startswith(("PASS:", "FAIL:"))]
    for ln in lines:
        chk.attempted += 1
        if ln.startswith("FAIL:"):
            chk.fail(ln)
    if rc != 0 and chk.failed == 0:
        chk.attempted += 1
        chk.fail(f"verify exited {rc} without a FAIL line")
    if differs:
        chk.fail("verify output differs between passes")
    return chk


# ---------------------------------------------------------------------------
# point queries
# ---------------------------------------------------------------------------

@dataclass
class Query:
    call: PointCall
    kind: str          # resolved estimator key, 'bottcher' or 'classify_point'
    f: object
    c: object
    spec: object = None


def _applies(key: str, c) -> bool:
    if key in ("Gza", "Gzap"):
        return c.d >= 1 and c.alpha is not None
    if key == "Gzi":
        return c.d >= 1 and c.delta == c.d
    if key == "Gfa":
        return c.alpha is not None
    return True


def point_setup(calls: list[PointCall]) -> list[Query]:
    """Build and classify every map; swap inapplicable estimator keys."""
    queries = []
    for call in calls:
        f = algebra.SkewProduct(algebra.UniPoly(dict(call.p_terms)),
                                algebra.BiPoly(dict(call.q_terms)))
        c = newton.classify(f)
        kind, spec = call.kind, None
        if kind in ESTIMATOR_KEYS:
            start = ESTIMATOR_KEYS.index(kind)
            kind = next(k for k in ESTIMATOR_KEYS[start:] + ESTIMATOR_KEYS[:start]
                        if _applies(k, c))
        elif kind == "classify_point":
            spec = regions.wedge_u_l(Fraction(call.wedge_l).limit_denominator(12), WEDGE_R)
        queries.append(Query(call, kind, f, c, spec))
    return queries


def _invoke(q: Query):
    z, w = q.call.z, q.call.w
    if q.kind == "bottcher":
        return bottcher_mod.bottcher(q.f, q.c, z, w, n_max=BOTTCHER_N_MAX, tol=BOTTCHER_TOL)
    if q.kind == "classify_point":
        return regions.classify_point(q.f, q.c, q.spec, z, w, budget=BASIN_BUDGET)
    return green.ESTIMATORS[q.kind](q.f, q.c, z, w, N_MAX, TOL)


@dataclass(frozen=True)
class Raised:
    error: str
    message: str


def point_pass(queries: list[Query]) -> PassResult:
    """Closed loop: each query is issued when the previous one returned."""
    clock = time.perf_counter
    times, outputs = [], []
    t_pass = clock()
    for q in queries:
        t0 = clock()
        try:
            out = _invoke(q)
        except Exception as exc:  # the loop must survive; the check reports it
            out = Raised(type(exc).__name__, str(exc))
        times.append(clock() - t0)
        outputs.append(out)
    return PassResult(clock() - t_pass, times, outputs)


def point_diff(first: list, other: list) -> set:
    """Indices of calls whose result differs from the first pass (repr is nan-safe)."""
    return {i for i, (a, b) in enumerate(zip(first, other)) if repr(a) != repr(b)}


def point_check(queries: list[Query], first: PassResult, differs: set) -> Checks:
    chk = Checks()
    for i, (q, out) in enumerate(zip(queries, first.outputs)):
        chk.attempted += 1
        what = f"{q.kind} {q.call.stratum} at ({q.call.z}, {q.call.w})"
        if i in differs:
            chk.fail(f"{what}: differs between passes")
            continue
        if isinstance(out, Raised):
            if out.error == "ValueError":
                chk.refused += 1
            else:
                chk.fail(f"{what}: {out.error}: {out.message}")
            continue
        if q.kind == "bottcher":
            finite = all(math.isfinite(abs(v)) for v in (out.phi1, out.phi2))
            if not finite or not out.conj_residual <= BOTTCHER_RESIDUAL:
                chk.fail(f"{what}: conj_residual {out.conj_residual!r}")
            continue
        if q.kind == "classify_point":
            if out.label not in regions.LABELS:
                chk.fail(f"{what}: unknown label {out.label!r}")
            continue
        chk.estimates += 1
        if out.termination == "converged" and not math.isfinite(out.value):
            chk.fail(f"{what}: converged with value {out.value!r}")
            continue
        if out.termination == BUDGET:
            chk.unsettled += 1
            continue
        if q.call.monomial is None:
            continue
        try:
            expected = oracles.monomial_reference(*q.call.monomial, (q.call.z, q.call.w),
                                                  q.kind)
        except ValueError:
            chk.skipped += 1  # no closed-form table entry for this function/regime
            continue
        if not _close(out.value, expected):
            chk.fail(f"{what}: {out.value!r} ({out.termination}) vs table {expected!r}")
    return chk


def point_extras(queries, timings: Timings) -> dict:
    """Call latency as seen, contention included: median over passes."""
    return {"call_us_p50": (statistics.median(timings.op_p50) * 1e6, "us"),
            "call_us_p99": (statistics.median(timings.op_p99) * 1e6, "us")}
