"""Named verification suites behind the `verify` CLI subcommand.

Each suite returns a list of CheckResult; a suite passes when every check
does.  All sampling is seeded, so suite output is reproducible
byte-for-byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import SkewProduct, UniPoly, BiPoly, monomial_skew
from .newton import classify, newton_polygon, newton_polygon_bruteforce
from .green import fiber_sample
from .oracles import (
    example_cubic_h,
    example_degenerate,
    g_h_infty_plus_lanes,
    julia_membership_lanes,
    monomial_reference,
)
from .regions import verify_invariance, wedge_u_r1r2
from .weights import invariance_radii

MONOMIAL_REGIMES = ((2, 1, 3), (2, 1, 2), (3, 1, 2), (2, 0, 3), (2, 0, 2), (3, 0, 2))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fmt(x: float) -> str:
    return f"{x:.3e}"


def _monomial_points(delta: int, gamma: int, d: int, count: int,
                     seed: int) -> list[tuple[complex, complex]]:
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(0.15, 0.8), rng.uniform(-0.4, 0.4))
        w = complex(rng.uniform(0.1, 0.8), rng.uniform(-0.4, 0.4))
        if abs(z) >= 0.85 or abs(w) >= 0.85 or abs(z) < 0.05 or abs(w) < 0.05:
            continue
        if gamma > 0 and delta < d:
            alpha = gamma / (delta - d)
            if abs(w) * abs(z) ** (-alpha) >= 0.9:
                continue
        pts.append((z, w))
    return pts


def _applicable(delta: int, gamma: int, d: int) -> list[str]:
    fns = ["Gp"]
    fns.append("Gzi" if delta == d else "Gza")
    fns.append("Gz")
    if (gamma > 0 and delta <= d) or (gamma == 0 and delta < d):
        fns.append("Gf")
    return fns


def suite_monomial(tol: float = 1e-8, points: int = 10, seed: int = 11,
                   n_max: int = 72) -> list[CheckResult]:
    """Every applicable estimator against its closed-form table value."""
    from .green import ESTIMATORS

    out = []
    for (delta, gamma, d) in MONOMIAL_REGIMES:
        f0 = monomial_skew(delta, gamma, d)
        c = classify(f0)
        worst = 0.0
        worst_fn = ""
        ok = True
        for z, w in _monomial_points(delta, gamma, d, points, seed):
            for fn_name in _applicable(delta, gamma, d):
                expected = monomial_reference(delta, gamma, d, (z, w), fn_name)
                est = ESTIMATORS[fn_name](f0, c, z, w, n_max, 1e-12)
                if math.isinf(expected):
                    good = est.value == expected
                    err = 0.0 if good else math.inf
                else:
                    err = abs(est.value - expected) if est.finite else math.inf
                    good = err < tol
                if err > worst or not worst_fn and math.isfinite(expected):
                    worst, worst_fn = err, fn_name   # an exact 0 names its estimator too
                ok = ok and good
        out.append(CheckResult(
            f"monomial ({delta},{gamma},{d})", ok,
            f"max |error| {_fmt(worst)} ({worst_fn or 'all sentinels'})",
        ))
    return out


def suite_hull(n_supports: int = 1000, seed: int = 7) -> list[CheckResult]:
    """newton_polygon vs the brute-force staircase-plus-hull oracle."""
    rng = random.Random(seed)
    grid = [(i, j) for i in range(10) for j in range(10)]
    bad = 0
    first = ""
    for _ in range(n_supports):
        support = rng.sample(grid, rng.randint(1, 12))
        fast = newton_polygon(BiPoly({pt: 1.0 for pt in support}))
        slow = newton_polygon_bruteforce(support)
        if fast.vertices != slow.vertices or fast.intercepts != slow.intercepts:
            bad += 1
            if not first:
                first = f"support {sorted(support)}"
    return [CheckResult(
        "hull oracle equivalence", bad == 0,
        f"{n_supports} random supports, {bad} mismatches"
        + (f"; first: {first}" if first else ""),
    )]


def invariance_example_case2() -> SkewProduct:
    """f = (z^2, z w^3 + z^5): Case 2 with dominant (5, 0)."""
    return SkewProduct(UniPoly({2: 1.0}), BiPoly({(1, 3): 1.0, (5, 0): 1.0}))


def invariance_example_case4() -> SkewProduct:
    """f = (z^3, w^5 + 3 z w^2 + z^3 w): Case 4 with dominant (1, 2)."""
    return SkewProduct(
        UniPoly({3: 1.0}), BiPoly({(0, 5): 1.0, (1, 2): 3.0, (3, 1): 1.0})
    )


def _invariance_pair(f: SkewProduct, l, r2: float, samples: int, seed: int,
                     label: str) -> list[CheckResult]:
    c = classify(f)
    r1 = invariance_radii(f, c, Fraction(l), r2)
    spec = wedge_u_r1r2(Fraction(l), r1, r2)
    report = verify_invariance(f, spec, samples, seed)
    inflated = wedge_u_r1r2(Fraction(l), 10 * r1, r2)
    bad_report = verify_invariance(f, inflated, samples, seed + 1)
    return [
        CheckResult(
            f"invariance {label} (r1={r1:.3g}, r2={r2:.3g}, l={l})",
            report.ok,
            f"{report.samples} samples, {len(report.violations)} violations",
        ),
        CheckResult(
            f"falsifiability {label} (r1 x10)",
            not bad_report.ok,
            f"{len(bad_report.violations)} violations found (>=1 wanted)",
        ),
    ]


def suite_invariance(samples: int = 10_000, seed: int = 5) -> list[CheckResult]:
    """Witness radii give zero exits; inflated radii are caught."""
    out = _invariance_pair(invariance_example_case2(), 1, 0.05, samples, seed,
                           "case2 (z^2, zw^3+z^5) U^1")
    out += _invariance_pair(invariance_example_case4(), Fraction(1, 2), 0.2,
                            samples, seed + 100, "case4 U^{1/2,+}")
    return out


def suite_semiconjugate(grid: int = 64, tol: float = 1e-6,
                        budget: int = 200) -> list[CheckResult]:
    """Transport of G_z^{alpha,+} through the degenerate example."""
    f = example_degenerate(alpha=1, delta=4)
    c = classify(f)
    h = example_cubic_h()
    z0 = 0.5 + 0j
    scale = abs(z0)  # window is [-1, 1]^2 * |z0|^alpha
    ws = [complex(scale * (2 * (ix + 0.5) / grid - 1), scale * (2 * (iy + 0.5) / grid - 1))
          for iy in range(grid) for ix in range(grid)]
    ratios = [w / z0 for w in ws]
    sides = julia_membership_lanes(h, ratios, budget)
    kept = [k for k, side in enumerate(sides) if side != "boundary_band"]  # off the band
    band_cells = grid * grid - len(kept)
    compared = len(kept)
    sample = fiber_sample(f, c, "Gzap", z0, [ws[k] for k in kept], budget, 1e-12)
    ghs = g_h_infty_plus_lanes(h, [ratios[k] for k in kept], budget, 1e-12)
    worst = 0.0
    mismatches = 0
    for k, gf, gh in zip(kept, sample.columns[0].tolist(), ghs):
        worst = max(worst, abs(gf - gh))
        # the locus side of a cell: escape seen by the 2-D estimator
        positive = gf > 1e-9
        if positive != (sides[k] == "escaping"):
            mismatches += 1
    frac = mismatches / compared if compared else 0.0
    return [
        CheckResult(
            "semiconjugate transport |G_z^{a,+} - G_h^{inf,+}|",
            worst < tol,
            f"max diff {_fmt(worst)} over {compared} cells ({band_cells} banded)",
        ),
        CheckResult(
            "weighted Julia sign locus",
            frac < 0.01,
            f"{mismatches} sign mismatches / {compared} cells ({100 * frac:.2f}%)",
        ),
    ]


SUITES = {
    "monomial": suite_monomial,
    "hull": suite_hull,
    "invariance": suite_invariance,
    "semiconjugate": suite_semiconjugate,
}


def run_suites(names: list[str] | None = None) -> list[CheckResult]:
    chosen = names or sorted(SUITES)
    results: list[CheckResult] = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)}")
        results.extend(SUITES[name]())
    return results
