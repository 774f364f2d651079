#!/usr/bin/env python3
"""Benchmark of skewdyn: four seeded workloads, end-to-end metrics and a
traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload fiber_ratio --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every metric, the workload-specific ones included, is also printed by
name with its unit, and the whole record (with provenance) is written to
``perfbench/_work/<workload>-seed<seed>-trace<trace>.json``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOADS = ("fiber_ratio", "fiber_direct", "verify", "point_mix")
SETUP_SAMPLES = 8
CHILD_TIMEOUT = 150
# one process, one thread: keep numpy's BLAS pool from starting threads
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up in this fresh interpreter and print it")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup_once(workload: str, seed: int):
    """Import, map load and classify; returns (seconds, workload state)."""
    import inputs

    if workload in ("fiber_ratio", "fiber_direct"):
        fiber = inputs.fiber_inputs(workload, seed)
        map_path = WORK / f"{workload}.skew"
        map_path.write_text(fiber.map_text)
    elif workload == "point_mix":
        calls = inputs.point_calls(seed)
    t0 = time.perf_counter()
    import workloads as wl

    if workload in ("fiber_ratio", "fiber_direct"):
        state = wl.fiber_setup(workload, fiber, map_path, WORK)
    elif workload == "point_mix":
        state = wl.point_setup(calls)
    else:
        state = None
    return time.perf_counter() - t0, state


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

def timed_phase(run_pass, diff, seconds: float, tracer=None, between=None):
    """Repeat passes until the next one would overrun `seconds` (at least one).

    With a tracer each round is an untraced pass followed by a traced one;
    the traced passes give the per-layer metrics, one dict per pass.  Only
    the first pass keeps its outputs; every later pass is compared with it
    at once, so memory does not grow with the number of passes.
    After each round, between(share of `seconds` used) runs outside the
    timed budget.
    """
    import workloads as wl

    plain, traced = wl.Timings(), wl.Timings()
    layers: list[dict] = []
    differs: set = set()
    first = spans = None
    elapsed = 0.0
    while True:
        start = time.perf_counter()
        result = run_pass()
        if first is None:
            first = result
        else:
            differs.update(diff(first.outputs, result.outputs))
        plain.add(result)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass()
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
            if spans is None:
                spans = list(tracer.spans)
            differs.update(diff(first.outputs, result.outputs))
            traced.add(result)
        elapsed += time.perf_counter() - start
        done = elapsed + elapsed / len(plain.seconds) > seconds
        if between is not None:
            between(1.0 if done else elapsed / seconds)
        if done:
            return first, plain, traced, layers, spans, differs


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def provenance(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "skewdyn").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(args) -> int:
    import inputs

    # set-up time is an end-to-end metric, so traced runs skip the probes.
    # The first probe may compile the package's bytecode and is dropped;
    # the others are spread over the timed phase, so that they meet the
    # machine at the speeds the passes meet it.
    setups: list[float] = []
    probe_setups = None
    if not args.trace:
        setup_probe(args.workload, args.seed)

        def probe_setups(share: float) -> None:
            while len(setups) < round(SETUP_SAMPLES * share):
                setups.append(setup_probe(args.workload, args.seed))

    _, state = setup_once(args.workload, args.seed)
    import workloads as wl

    if Path(wl.cli.__file__).resolve().parent != SRC / "skewdyn":
        print(f"error: imported skewdyn from {wl.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload in ("fiber_ratio", "fiber_direct"):
        state.out_dir.mkdir(parents=True, exist_ok=True)
        run_pass, diff, check, extras = (wl.fiber_pass, wl.fiber_diff, wl.fiber_check,
                                         wl.fiber_extras)
        shape = {"grid": f"{state.inputs.grid}x{state.inputs.grid}",
                 "functions": list(state.inputs.functions),
                 "fiber_z": repr(state.inputs.fiber_z), "centre": repr(state.inputs.centre),
                 "window": "1.0x1.0", "n_max": inputs.N_MAX, "tol": inputs.TOL}
    elif args.workload == "point_mix":
        run_pass, diff, check, extras = (wl.point_pass, wl.point_diff, wl.point_check,
                                         wl.point_extras)
        shape = {"calls": len(state), "calls_by_kind": dict(Counter(q.kind for q in state))}
    else:
        run_pass, diff, check, extras = wl.verify_pass, wl.verify_diff, wl.verify_check, None
        shape = {"calls": 1, "command": "skewdyn verify"}

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    first, plain, traced, layers, spans, differs = timed_phase(
        lambda: run_pass(state), diff, args.seconds, tracer, probe_setups)

    chk = check(state, first, differs)
    counts = [{k: v for k, (v, unit) in d.items() if unit == "count"} for d in layers]
    if any(c != counts[0] for c in counts[1:]):
        chk.fail("per-layer counts differ between traced passes")

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        for name, (_, unit) in layers[0].items():
            metrics[name] = (statistics.median(d[name][0] for d in layers), unit)
        metrics["trace.overhead_frac"] = (
            traced.wall() / plain.wall() - 1.0, "ratio")
        metrics["trace.absent"] = (len(tracer.absent), "count")
        tracing.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl", spans)
        reported = dict(metrics)
    else:
        metrics["setup_s"] = (wl.upper_decile(setups), "s")
        metrics["wall_s"] = (plain.wall(), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        reported = dict(metrics)
        metrics["wall_median_s"] = (statistics.median(plain.seconds), "s")
        if extras is not None:
            metrics.update(extras(state, plain))
        metrics["fail_frac"] = (chk.failed / chk.attempted, "ratio")
        if chk.estimates:
            metrics["unsettled_frac"] = (chk.unsettled / chk.estimates, "ratio")

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "shape": shape,
        "passes": len(plain.seconds),
        "pass_seconds": plain.seconds,
        "traced_passes": len(traced.seconds),
        "setup_samples_s": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": {"attempted": chk.attempted, "failed": chk.failed,
                   "refused": chk.refused, "unsettled": chk.unsettled,
                   "estimates": chk.estimates, "skipped": chk.skipped,
                   "examples": chk.examples},
    }
    if tracer is not None:
        record["absent"] = tracer.absent
        record["other_terminations"] = tracer.other_terminations()
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} passes {len(plain.seconds)}"
          f" traced_passes {len(traced.seconds)} shape {json.dumps(shape)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    if tracer is not None and tracer.absent:
        print("absent " + " ".join(tracer.absent))
    print(f"check attempted {chk.attempted} failed {chk.failed} refused {chk.refused}"
          f" unsettled {chk.unsettled} skipped {chk.skipped}")
    for example in chk.examples:
        print(f"check failure: {example}")
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    results, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT + 60)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skewdyn" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'skewdyn'} not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    # the CLI reads SKEWDYN_* defaults (thread pool, budgets) from the
    # environment; the benchmark's load is fixed by its own arguments
    for name in [n for n in os.environ if n.startswith("SKEWDYN_")]:
        del os.environ[name]
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(exist_ok=True)
    if args.setup_probe:
        seconds, _ = setup_once(args.workload, args.seed)
        print(repr(seconds))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
