"""Command-line front end: analyze / green / render / verify.

Run configuration defaults come from RunConfig and may be overridden by
environment variables SKEWDYN_N_MAX, SKEWDYN_TOL and SKEWDYN_SEED, then
by flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

from .blowup import check_blowup_tables, blowup_pi1
from .bottcher import bottcher
from .fileio import load_skew_product
from .green import ESTIMATORS
from .newton import classification_report, classify
from .raster import RenderJob, RunConfig, render
from .regions import verify_invariance, WedgeSpec
from .suites import run_suites
from .weights import d_value, weight_interval


def _env_config(args) -> RunConfig:
    """RunConfig field by field: flag, else SKEWDYN_<NAME>, else the default."""
    values = {}
    for field in dataclasses.fields(RunConfig):
        cast = type(field.default)
        flag = getattr(args, field.name, None)
        raw = os.environ.get(f"SKEWDYN_{field.name.upper()}")
        if flag is not None:
            values[field.name] = cast(flag)
        elif raw is not None:
            values[field.name] = cast(raw)
    return RunConfig(**values)


def cmd_analyze(args) -> int:
    f = load_skew_product(args.file)
    c = classify(f)
    print(classification_report(f, c))
    for idx, term in enumerate(c.terms):
        prefix = "" if idx == 0 else f"alt{idx}_"
        try:
            iv = weight_interval(c, term)
            print(f"{prefix}weights: {iv}")
        except ValueError as exc:
            print(f"{prefix}weights: unavailable ({exc})")
    for lstr in args.dl or []:
        l = Fraction(lstr)
        dv = d_value(f.q, l)
        print(f"D_{l}: {dv.d_min} at vertex {dv.attaining_vertex} "
              f"attained by {list(dv.attaining_points)}")
    if args.blowup is not None:
        l = Fraction(args.blowup)
        flags = check_blowup_tables(f, c, l)
        print(f"blowup_l: {l}")
        for key in ("holomorphic", "superattracting", "degenerates"):
            print(f"blowup_{key}: {str(flags[key]).lower()}")
        if l.denominator == 1 and flags["holomorphic"] and set(f.p.terms) == {f.delta}:
            res = blowup_pi1(f, int(l), c.primary.vertex)
            print(f"blowup_gamma_tilde: {res.gamma_tilde}")
            print("blowup_support: " +
                  " ".join(f"({i},{j})" for i, j in res.transformed.q.support))
    return 0


def _parse_point(raw: str) -> tuple[complex, complex]:
    vals = [float(x) for x in raw.split(",")]
    if len(vals) != 4:
        raise SystemExit("--point needs re,im,re,im")
    return complex(vals[0], vals[1]), complex(vals[2], vals[3])


def cmd_green(args) -> int:
    if args.point and args.grid:
        raise SystemExit("green takes --point or --grid, not both")
    if args.function == "bottcher" and args.out:
        raise SystemExit("green --function bottcher takes no --out")
    f = load_skew_product(args.file)
    c = classify(f)
    cfg = _env_config(args)
    if args.function == "bottcher":
        if args.point is None:
            raise SystemExit("green --function bottcher needs --point")
        z, w = _parse_point(args.point)
        n_max = min(cfg.n_max, 32)   # the budget applied: at most 32 steps
        est = bottcher(f, c, z, w, n_max=n_max, tol=cfg.tol)
        print(f"phi1: {est.phi1.real!r} {est.phi1.imag!r}")
        print(f"phi2: {est.phi2.real!r} {est.phi2.imag!r}")
        print(f"n_used: {est.n_used}")
        print(f"n_max: {n_max}")
        print(f"conj_residual: {est.conj_residual!r}")
        print(f"id_deviation: {est.id_deviation!r}")
        if est.no_theorem_warning:
            print("warning: no convergence theorem backs this regime")
        return 0
    fn = ESTIMATORS[args.function]
    if args.point:
        z, w = _parse_point(args.point)
        est = fn(f, c, z, w, cfg.n_max, cfg.tol)
        print(f"value: {est.value!r}")
        print(f"n_used: {est.n_used}")
        print(f"termination: {est.termination}")
        print(f"residual: {est.residual!r}")
        if args.out:
            header = "z_re,z_im,w_re,w_im,value,n_used,termination,residual"
            row = (f"{z.real!r},{z.imag!r},{w.real!r},{w.imag!r},"
                   f"{est.value!r},{est.n_used},{est.termination},{est.residual!r}")
            Path(args.out).write_text(header + "\n" + row + "\n")
            print(f"csv: {args.out}")
        return 0
    if args.grid:
        job = _grid_job(args)
        paths = render(f, job, cfg, out_dir=args.out_dir)
        if args.out:
            Path(args.out).write_bytes(paths["csv"].read_bytes())
            print(f"csv: {args.out}")
        else:
            print(f"csv: {paths['csv']}")
        print(f"pgm: {paths['pgm']}")
        print(f"meta: {paths['meta']}")
        return 0
    raise SystemExit("green needs --point or --grid")


def _grid_job(args) -> RenderJob:
    spec = args.grid
    vals = [float(x) for x in spec.split(",")]
    if len(vals) != 7:
        raise SystemExit(
            "--grid needs z_re,z_im,center_re,center_im,width,height,pixels"
        )
    pixels = int(vals[6])
    return RenderJob(
        function=args.function,
        fiber_z=complex(vals[0], vals[1]),
        center=complex(vals[2], vals[3]),
        width=vals[4],
        height=vals[5],
        pixels_x=pixels,
        pixels_y=pixels,
        out_prefix=args.out_prefix,
    )


def cmd_render(args) -> int:
    f = load_skew_product(args.file)
    cfg = _env_config(args)
    job = _grid_job(args)
    paths = render(f, job, cfg, out_dir=args.out_dir)
    for key in ("pgm", "csv", "meta"):
        print(f"{key}: {paths[key]}")
    return 0


def cmd_verify(args) -> int:
    cfg = _env_config(args)
    if args.wedge:
        if None in (args.file, args.weights, args.radii):
            raise SystemExit("verify --wedge needs a map file, --weights and --radii")
        f = load_skew_product(args.file)
        weights = tuple(Fraction(x) for x in args.weights.split(","))
        radii = tuple(float(x) for x in args.radii.split(","))
        spec = WedgeSpec(args.wedge, weights, radii)
        report = verify_invariance(f, spec, args.samples, cfg.seed)
        status = "PASS" if report.ok else "FAIL"
        print(f"{status}: invariance of {args.wedge} weights={args.weights} "
              f"radii={args.radii}: {len(report.violations)} violations "
              f"in {report.samples} samples")
        for v in report.violations[:4]:
            print(f"  witness: {v.point} -> {v.image}")
        return 0 if report.ok else 1
    results = run_suites(args.suite or None)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if not res.passed:
            failed += 1
        print(f"{status}: {res.name}: {res.detail}")
    print(f"total: {len(results)} checks, {failed} failed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    # every add_argument makes a help formatter, which without a width asks
    # the terminal for one: this parser asks once, as HelpFormatter would
    fmt = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    ap = argparse.ArgumentParser(
        prog="skewdyn",
        description="Newton-polygon classification, invariant wedges, Green "
                    "functions and Böttcher coordinates for superattracting "
                    "polynomial skew products",
        formatter_class=fmt,
    )
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=functools.partial(argparse.ArgumentParser,
                                                           formatter_class=fmt))

    def common(p):
        p.add_argument("--n-max", dest="n_max", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)

    pa = sub.add_parser("analyze", help="classification and weight report")
    pa.add_argument("file")
    pa.add_argument("--blowup", metavar="L", default=None,
                    help="also report pi_1 blow-up predictions at weight L")
    pa.add_argument("--dl", action="append", metavar="L",
                    help="report D_L for a weight (repeatable)")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("green", help="evaluate a Green-type function")
    pg.add_argument("file")
    pg.add_argument("--function", required=True,
                    choices=sorted(ESTIMATORS) + ["bottcher"])
    pg.add_argument("--point", help="re,im,re,im")
    pg.add_argument("--grid",
                    help="z_re,z_im,center_re,center_im,width,height,pixels")
    pg.add_argument("--out", help="write the evaluated values to this CSV")
    pg.add_argument("--out-dir", default=".")
    pg.add_argument("--out-prefix", default="green")
    common(pg)
    pg.set_defaults(func=cmd_green)

    pr = sub.add_parser("render", help="raster a fiber window to PGM+CSV")
    pr.add_argument("file")
    pr.add_argument("--function", required=True, choices=sorted(ESTIMATORS))
    pr.add_argument("--grid", required=True,
                    help="z_re,z_im,center_re,center_im,width,height,pixels")
    pr.add_argument("--out-dir", default=".")
    pr.add_argument("--out-prefix", default="render")
    common(pr)
    pr.set_defaults(func=cmd_render)

    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("--suite", action="append",
                    help="monomial|hull|invariance|semiconjugate (repeatable)")
    pv.add_argument("file", nargs="?",
                    help="map file (for --wedge invariance checks)")
    pv.add_argument("--wedge", help="region family for a one-off check")
    pv.add_argument("--weights", help="comma-separated rational weights")
    pv.add_argument("--radii", help="comma-separated radii")
    pv.add_argument("--samples", type=int, default=10_000)
    pv.add_argument("--seed", type=int, default=None,
                    help="sampling seed of the --wedge check")
    pv.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
