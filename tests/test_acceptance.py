"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line (run pytest -s to see them); the
assertions carry the same tolerances, so the suite is the gate.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from skewdyn import (
    BiPoly,
    SkewProduct,
    UniPoly,
    bottcher,
    classify,
    classify_point,
    functional_residual,
    g_p,
    g_z,
    invariance_radii,
    monomial_skew,
    submean_check,
    verify_invariance,
)
from skewdyn.green import ESTIMATORS, fiber_sample
from skewdyn.newton import Case, newton_polygon, newton_polygon_bruteforce
from skewdyn.oracles import (
    example_cubic_h,
    example_degenerate,
    g_h_infty_plus_lanes,
    julia_membership,
    julia_membership_lanes,
    monomial_reference,
)
from skewdyn.raster import RenderJob, RunConfig, render
from skewdyn.regions import wedge_u_r1r2
from skewdyn.suites import (
    MONOMIAL_REGIMES,
    _applicable,
    _monomial_points,
    invariance_example_case2,
    invariance_example_case4,
    run_suites,
    suite_semiconjugate,
)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_monomial_oracle_suite():
    t0 = time.time()
    worst = 0.0
    ok = True
    for (delta, gamma, d) in MONOMIAL_REGIMES:
        f0 = monomial_skew(delta, gamma, d)
        c = classify(f0)
        for z, w in _monomial_points(delta, gamma, d, 10, seed=2):
            for name in _applicable(delta, gamma, d):
                expected = monomial_reference(delta, gamma, d, (z, w), name)
                est = ESTIMATORS[name](f0, c, z, w, 72, 1e-12)
                if math.isinf(expected):
                    ok = ok and est.value == expected
                else:
                    err = abs(est.value - expected)
                    worst = max(worst, err)
                    ok = ok and err < 1e-8
    elapsed = time.time() - t0
    _report("criterion 1 (monomial oracle suite)", ok and elapsed < 1.0,
            f"max error {worst:.2e}, {elapsed:.2f}s")


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_newton_polygon_exactness():
    t0 = time.time()
    rng = random.Random(7)
    grid = [(i, j) for i in range(10) for j in range(10)]
    ok = True
    for _ in range(1000):
        support = rng.sample(grid, rng.randint(1, 12))
        fast = newton_polygon(BiPoly({pt: 1.0 for pt in support}))
        slow = newton_polygon_bruteforce(support)
        ok = ok and fast.vertices == slow.vertices
        ok = ok and fast.intercepts == slow.intercepts
    elapsed = time.time() - t0
    _report("criterion 2 (hull oracle, 1000 supports)", ok and elapsed < 5.0,
            f"{elapsed:.2f}s")


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_classification_boundary_cases():
    c1 = classify(SkewProduct(UniPoly({2: 1.0}),
                              BiPoly({(0, 4): 1.0, (2, 1): 1.0, (3, 0): 1.0})))
    ok = (c1.case is Case.CASE2 and c1.primary.vertex == (3, 0)
          and c1.l1 == 1 and c1.l2 is None and c1.alpha == Fraction(3, 2)
          and c1.lam == 2 and c1.c_infinity == 2)

    c2 = classify(SkewProduct(UniPoly({4: 1.0}),
                              BiPoly({(1, 3): 1.0, (2, 2): 1.0})))
    ok = ok and c2.two_dominant_terms
    ok = ok and c2.terms[0].vertex == (1, 3) and c2.terms[0].case is Case.CASE3
    ok = ok and c2.terms[1].vertex == (2, 2) and c2.terms[1].case is Case.CASE2
    ok = ok and c2.terms[0].alpha == c2.terms[1].alpha == 1

    c3 = classify(SkewProduct(UniPoly({2: 1.0}), BiPoly({(1, 3): 1.0})))
    ok = ok and (c3.case is Case.CASE1 and c3.primary.vertex == (1, 3)
                 and c3.l1 == 0 and c3.l2 is None and c3.alpha == -1)
    _report("criterion 3 (classification boundary cases)", ok)


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_invariance_witnesses():
    f2 = invariance_example_case2()
    c2 = classify(f2)
    r1 = invariance_radii(f2, c2, Fraction(1), 0.05)
    good = verify_invariance(f2, wedge_u_r1r2(1, r1, 0.05), 10_000, seed=5)
    bad = verify_invariance(f2, wedge_u_r1r2(1, 10 * r1, 0.05), 10_000, seed=6)

    f4 = invariance_example_case4()
    c4 = classify(f4)
    r1b = invariance_radii(f4, c4, Fraction(1, 2), 0.2)
    good4 = verify_invariance(f4, wedge_u_r1r2(Fraction(1, 2), r1b, 0.2),
                              10_000, seed=105)
    bad4 = verify_invariance(f4, wedge_u_r1r2(Fraction(1, 2), 10 * r1b, 0.2),
                             10_000, seed=106)
    ok = good.ok and good4.ok and not bad.ok and not bad4.ok
    _report("criterion 4 (invariance witnesses + falsifiability)", ok,
            f"violations {len(good.violations)}/{len(good4.violations)} at "
            f"witness radii; {len(bad.violations)}/{len(bad4.violations)} inflated")


# -- 5 -----------------------------------------------------------------------

def _wedge_points_u_l(rng, l, r, n):
    pts = []
    for _ in range(n):
        lz = math.log(r) - rng.uniform(0.1, 2.0)
        z = cmath.rect(math.exp(lz), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.2, 0.9) * r * abs(z) ** l,
                       rng.uniform(0, 2 * math.pi))
        pts.append((z, w))
    return pts


def test_criterion_5_bottcher_conjugacy():
    rng = random.Random(55)
    cases = []
    # Case 2 delta < d
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 5): 0.5, (1, 3): 1.0}))
    cases.append(("case2 d>delta", f, _wedge_points_u_l(rng, 0.5, 0.05, 100)))
    # Case 2 delta > d >= 2
    f = SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 4): 1.0, (1, 2): 1.0}))
    cases.append(("case2 delta>d", f, _wedge_points_u_l(rng, 0.75, 0.05, 100)))
    # Case 3 d >= 2: vertices (1,2),(3,1), T_1 = 5/2 < 3
    f = SkewProduct(UniPoly({3: 1.0}), BiPoly({(1, 2): 1.0, (3, 1): 1.0}))
    pts = []
    for _ in range(100):
        w = cmath.rect(rng.uniform(0.3, 0.9) * 0.05, rng.uniform(0, 2 * math.pi))
        z = cmath.rect(rng.uniform(0.05, 0.8) * 0.05 * abs(w) ** 0.5,
                       rng.uniform(0, 2 * math.pi))
        pts.append((z, w))
    cases.append(("case3", f, pts))
    # Case 4 d >= 2
    f = SkewProduct(UniPoly({3: 1.0}),
                    BiPoly({(0, 5): 1.0, (1, 2): 1.0, (3, 1): 1.0}))
    pts = []
    for _ in range(100):
        top = math.log(0.05) * (1 + 3 / 5)
        lz = top - rng.uniform(0.2, 2.0)
        z = cmath.rect(math.exp(lz), rng.uniform(0, 2 * math.pi))
        hi = 0.05 * abs(z) ** (1 / 3)
        lo = abs(z) ** 2 / 0.05 ** (5 / 3)
        wa = lo + rng.uniform(0.3, 0.9) * (hi - lo)
        pts.append((z, cmath.rect(wa, rng.uniform(0, 2 * math.pi))))
    cases.append(("case4", f, pts))

    ok = True
    detail = []
    for name, f, pts in cases:
        c = classify(f)
        worst = 0.0
        for z, w in pts:
            est = bottcher(f, c, z, w, n_max=28, tol=1e-13)
            worst = max(worst, est.conj_residual)
        detail.append(f"{name} {worst:.1e}")
        ok = ok and worst < 1e-8

    f0 = monomial_skew(2, 1, 3)
    est = bottcher(f0, classify(f0), 0.04 + 0.01j, 0.02 - 0.03j)
    identity_exact = (est.conj_residual < 1e-14
                      and abs(est.phi1 - (0.04 + 0.01j)) < 1e-14)
    ok = ok and identity_exact
    _report("criterion 5 (Böttcher conjugacy)", ok, "; ".join(detail))


# -- 6 -----------------------------------------------------------------------

def test_criterion_6_functional_equations():
    rng = random.Random(66)
    worst = 0.0
    f0 = monomial_skew(2, 1, 3)
    c0 = classify(f0)
    for _ in range(100):
        z = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
        r = functional_residual(f0, c0, "alpha", z, w, 72, 1e-12)
        worst = max(worst, r)
    f1 = monomial_skew(2, 1, 2)
    c1 = classify(f1)
    for _ in range(100):
        z = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
        r = functional_residual(f1, c1, "infty", z, w, 72, 1e-12)
        worst = max(worst, r)
    fe = example_degenerate(1, 4)
    ce = classify(fe)
    h = example_cubic_h()
    count = 0
    while count < 100:
        z = cmath.rect(rng.uniform(0.3, 0.7), rng.uniform(0, 2 * math.pi))
        ratio = cmath.rect(rng.uniform(1.2, 2.5), rng.uniform(0, 2 * math.pi))
        if julia_membership(h, ratio) != "escaping":
            continue
        r = functional_residual(fe, ce, "alpha", z, ratio * z, 200, 1e-13)
        if r is None:
            continue
        worst = max(worst, r)
        count += 1
    _report("criterion 6 (functional equations)", worst < 1e-6,
            f"max single-step residual {worst:.2e}")


# -- 7 -----------------------------------------------------------------------

def test_criterion_7_semiconjugacy_transport():
    t0 = time.time()
    results = suite_semiconjugate(grid=64, tol=1e-6, budget=200)
    elapsed = time.time() - t0
    ok = all(r.passed for r in results) and elapsed < 30.0
    _report("criterion 7 (semiconjugacy transport, 64x64 grid)", ok,
            "; ".join(r.detail for r in results) + f"; {elapsed:.1f}s")


# -- 8 -----------------------------------------------------------------------

def test_criterion_8_attracting_set_at_desk_scale():
    f = SkewProduct(UniPoly({2: 1.0}),
                    BiPoly({(0, 4): 1.0, (2, 1): 1.0, (3, 0): 1.0}))
    c = classify(f)
    assert c.npoly.vertices[0] != (0, c.delta)
    # l strictly inside (0, alpha) = (0, 3/2)
    r1 = invariance_radii(f, c, Fraction(1), 0.05)
    spec = wedge_u_r1r2(1, r1, 0.05)
    rng = random.Random(1234)
    entered = 0
    undecided = 0
    kept = 0
    while kept < 500:
        z = cmath.rect(rng.uniform(0.05, 0.6), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.01, 0.6), rng.uniform(0, 2 * math.pi))
        lbl = classify_point(f, c, spec, z, w, budget=200)
        if lbl.label not in ("in_A0_and_Afl", "in_A0_not_yet_Afl"):
            continue
        kept += 1
        if lbl.label == "in_A0_and_Afl":
            entered += 1
        if lbl.undecided:
            undecided += 1
    _report("criterion 8 (basin points enter the wedge)",
            entered == 500 and undecided == 0,
            f"{entered}/500 entered, {undecided} undecided")


# -- 9 -----------------------------------------------------------------------

def test_criterion_9_d0_green_identity():
    f = SkewProduct(UniPoly({2: 1.0}),
                    BiPoly({(0, 4): 1.0, (2, 1): 1.0, (3, 0): 1.0}))
    c = classify(f)
    rng = random.Random(14)
    worst = 0.0
    count = 0
    while count < 50:
        z = cmath.rect(rng.uniform(0.15, 0.6), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.05, 0.5), rng.uniform(0, 2 * math.pi))
        gz = g_z(f, c, z, w, 96, 1e-13)
        gp = g_p(f.p, z, 96, 1e-13)
        if not (gz.finite and gp.finite):
            continue
        worst = max(worst, abs(gz.value - 1.5 * gp.value))
        count += 1
    _report("criterion 9 (d = 0 identity G_z = (3/2) G_p)", worst < 1e-6,
            f"max deviation {worst:.2e} over 50 basin points")


# -- 10 ----------------------------------------------------------------------

def test_criterion_10_plurisubharmonicity_surrogate():
    f = example_degenerate(1, 4)
    c = classify(f)
    h = example_cubic_h()
    z0 = 0.5 + 0j

    def sampler(ws: list[complex]):
        # one fiber_sample per circle: equal by repr to g_z_alpha_plus per point
        sample = fiber_sample(f, c, "Gzap", z0, ws, 220, 1e-13)
        return [est.value if est.finite else None for est in sample.estimates]

    def one_sided(center: complex, radius: float):
        # certified side: every dense probe node decided on one side, with a
        # Green-level margin on the escaping side (see decisions ledger on
        # circle sampling near the locus); one lane-oracle call per circle
        ratios = [(center + radius * cmath.exp(2j * math.pi * k / 192)) / z0
                  for k in range(192)]
        sides = set(julia_membership_lanes(h, ratios, 400))
        if len(sides) != 1 or "boundary_band" in sides:
            return None
        side = sides.pop()
        if side == "escaping" and min(g_h_infty_plus_lanes(h, ratios, 220, 1e-13)) < 0.02:
            return None
        return side

    rng = random.Random(42)
    count = inside_n = outside_n = 0
    worst = -math.inf
    worst_abs = 0.0
    while count < 100:
        center = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45))
        radius = rng.uniform(0.01, 0.05)
        side = one_sided(center, radius)
        if side is None:
            continue
        res = submean_check(sampler, center, radius, 96)
        if not res.conclusive:
            continue
        count += 1
        worst = max(worst, res.deficit)
        worst_abs = max(worst_abs, abs(res.deficit))
        inside_n += side == "inside_filled"
        outside_n += side == "escaping"
    ok = worst <= 1e-9 and worst_abs <= 1e-9
    _report("criterion 10 (sub-mean-value surrogate)", ok,
            f"worst deficit {worst:.2e}, |deficit| {worst_abs:.2e} over "
            f"{inside_n} inside / {outside_n} outside circles")


# -- 11 ----------------------------------------------------------------------

def test_criterion_11_determinism(tmp_path, capsys):
    f = example_degenerate(1, 4)
    job = RenderJob(function="Gzap", fiber_z=0.5 + 0j, width=1.0, height=1.0,
                    pixels_x=24, pixels_y=24, out_prefix="det")
    p1 = render(f, job, RunConfig(), out_dir=tmp_path / "one")
    p2 = render(f, job, RunConfig(), out_dir=tmp_path / "two")
    same_render = all(
        p1[k].read_bytes() == p2[k].read_bytes() for k in ("pgm", "csv", "meta")
    )
    lines1 = [f"{r.passed} {r.name} {r.detail}" for r in run_suites(["hull"])]
    lines2 = [f"{r.passed} {r.name} {r.detail}" for r in run_suites(["hull"])]
    _report("criterion 11 (byte-identical reruns)",
            same_render and lines1 == lines2)
