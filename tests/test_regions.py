"""Region membership, invariance sampling, and basin classification."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from skewdyn import (
    BiPoly,
    SkewProduct,
    UniPoly,
    WedgeSpec,
    boundary_probe,
    classify,
    classify_point,
    contains,
    invariance_radii,
    monomial_skew,
    verify_invariance,
    wedge_case3,
    wedge_u_l,
    wedge_u_l1l2,
    wedge_u_r1r2,
)
from skewdyn.algebra import eval_skew
from skewdyn.oracles import example_cubic_h, example_degenerate, julia_membership
from skewdyn.regions import InvarianceReport, Violation, _sample_lanes, _stream
from skewdyn.suites import invariance_example_case2, invariance_example_case4


def test_contains_u_l_examples():
    spec = wedge_u_l(1, 0.1)
    assert contains(spec, 0.05, 0.004)       # 0.004 < 0.1 * 0.05
    assert not contains(spec, 0.0, 0.0)      # |w| < r |z|^l fails at z = 0
    assert not contains(spec, 0.05, 0.006)


def test_contains_u_l1l2_example():
    spec = wedge_u_l1l2(1, 1, 0.1)
    assert not contains(spec, 0.05, 0.03)    # 0.03 >= 0.1 * 0.05
    # fibers are nonempty only below |z| = r^2; inside needs
    # r^{-l2} |z|^{l1+l2} < |w| < r |z|^{l1}
    assert contains(spec, 0.005, 0.0004)
    assert not contains(spec, 0.005, 0.0001)  # below the lower cone
    assert not contains(spec, 0.005, 0.002)   # above the upper cone


def test_contains_v_and_s_families():
    v = WedgeSpec("V_l", (Fraction(1),), (0.1, 0.05))
    assert contains(v, 0.01, 0.02)            # |w| >= r|z|, |w| < r3
    assert not contains(v, 0.01, 0.0005)      # below the cone
    assert not contains(v, 0.0, 0.01)         # needs 0 < |z|
    s_out = WedgeSpec("S_out", (Fraction(1),), (0.1,))
    assert contains(s_out, 0.001, 0.1)
    assert not contains(s_out, 0.001, 0.05)
    s_in = WedgeSpec("S_in", (Fraction(1),), (0.1,))
    # the cone is |w| = (|z|/r)^l with |w| < r
    assert contains(s_in, 0.005, 0.05)
    assert not contains(s_in, 0.005, 0.02)


def _lane_points(spec, rng, count):
    """count points of the lane sampler, from the next 4 count uniforms of rng."""
    u = np.array([rng.random() for _ in range(4 * count)]).reshape(count, 4)
    zs, ws, failure = _sample_lanes(spec, u)
    assert failure is None
    return list(zip(zs.tolist(), ws.tolist()))


def test_sampler_stays_inside():
    rng = random.Random(1)
    for spec in (
        wedge_u_l(Fraction(3, 2), 0.05),
        wedge_u_r1r2(1, 0.02, 0.05),
        wedge_u_l1l2(Fraction(1, 3), Fraction(5, 3), 0.05),
        wedge_case3(2, 0.05),
        WedgeSpec("V_l", (Fraction(1),), (0.1, 0.05)),
    ):
        for z, w in _lane_points(spec, rng, 200):
            assert contains(spec, z, w), (spec.family, z, w)


def test_v_l_draws_cover_the_admissible_interval():
    # r |z|^l < r3 cuts log|z| to (log r - 8 log 10, (log r3 - log r) / l]:
    # the draws fill that interval evenly and all lie in the wedge
    r, r3 = 0.5, 1e-3
    spec = WedgeSpec("V_l", (Fraction(1),), (r, r3))
    lo, hi = math.log(r) - 8 * math.log(10), math.log(r3) - math.log(r)
    points = _lane_points(spec, random.Random(3), 2000)
    logs = [math.log(abs(z)) for z, _ in points]
    assert all(contains(spec, z, w) for z, w in points)
    assert all(lo < lz <= hi for lz in logs)
    counts = [0] * 10
    for lz in logs:
        counts[min(int((lz - lo) / (hi - lo) * 10), 9)] += 1
    assert min(counts) > 150 and max(counts) < 250, counts


@pytest.mark.parametrize("weights, radii", [((1,), (0.5, 1e-30)), ((0,), (0.5, 0.4))])
def test_v_l_without_admissible_z_raises(weights, radii):
    # r |z|^l >= r3 on the whole |z| interval: no sample exists, and no draw may loop
    spec = WedgeSpec("V_l", tuple(Fraction(x) for x in weights), radii)
    square = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0}))
    with pytest.raises(ValueError, match=r"cannot sample V_l with weights \d and radii"):
        verify_invariance(square, spec, 10, seed=1)


def test_monomial_invariance_clean():
    f0 = monomial_skew(2, 1, 3)
    report = verify_invariance(f0, wedge_u_l(1, 0.1), 10_000, seed=3)
    assert report.ok


def test_invariance_witness_and_falsifiability():
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(1, 3): 1.0, (5, 0): 1.0}))
    c = classify(f)
    r2 = 0.05
    r1 = invariance_radii(f, c, Fraction(1), r2)
    good = verify_invariance(f, wedge_u_r1r2(1, r1, r2), 10_000, seed=4)
    assert good.ok
    bad = verify_invariance(f, wedge_u_r1r2(1, 10 * r1, r2), 10_000, seed=5)
    assert not bad.ok
    # the report carries witness points that genuinely exit
    v = bad.violations[0]
    assert contains(wedge_u_r1r2(1, 10 * r1, r2), *v.point)
    assert not contains(wedge_u_r1r2(1, 10 * r1, r2), *v.image)


def test_nesting_of_wedges():
    # U^{l'} subset U^l for l' > l (same r); Case 4 wedges nest in U^{l1,l2}
    rng = random.Random(6)
    big, small = wedge_u_l(1, 0.05), wedge_u_l(2, 0.05)
    for z, w in _lane_points(small, rng, 300):
        assert contains(big, z, w)
    outer = wedge_u_l1l2(Fraction(1, 3), Fraction(5, 3), 0.05)
    inner = wedge_u_l1l2(Fraction(1, 2), Fraction(1), 0.05)
    inside_count = 0
    for z, w in _lane_points(inner, rng, 300):
        if contains(outer, z, w):
            inside_count += 1
    assert inside_count == 300


def test_case4_disjoint_wedges():
    # U^{l1, alpha-l1} and U^{alpha, l1+l2-alpha} never meet (Case 4 interior)
    f = SkewProduct(UniPoly({3: 1.0}),
                    BiPoly({(0, 5): 1.0, (1, 2): 1.0, (3, 1): 1.0}))
    c = classify(f)
    l1, alpha, l2 = c.l1, c.alpha, c.l2
    a_spec = wedge_u_l1l2(l1, alpha - l1, 0.05)
    b_spec = wedge_u_l1l2(alpha, l1 + l2 - alpha, 0.05)
    rng = random.Random(7)
    for z, w in _lane_points(a_spec, rng, 500):
        assert not contains(b_spec, z, w)
    for z, w in _lane_points(b_spec, rng, 500):
        assert not contains(a_spec, z, w)


D0_MAP = SkewProduct(UniPoly({2: 1.0}),
                     BiPoly({(0, 4): 1.0, (2, 1): 1.0, (3, 0): 1.0}))


def test_classify_point_basics():
    f0 = monomial_skew(2, 1, 3)
    c = classify(f0)
    spec = wedge_u_l(1, 0.1)
    lbl = classify_point(f0, c, spec, 0.05, 0.004, budget=50)
    assert lbl.label == "in_A0_and_Afl" and lbl.entry_step == 0
    # d > delta with |zw| > 1: w_n explodes
    lbl = classify_point(f0, c, spec, 0.5, 10.0, budget=100)
    assert lbl.label == "escapes_or_outside"
    assert classify_point(f0, c, spec, 0.0, 0.3, budget=10).label == "on_Ez"


def test_classify_point_near_edeg():
    # fiber z = 0 is degenerated by q = z w^3 + z^2 w^2 (all c_j(0) = 0)
    f = example_degenerate(1, 4)
    c = classify(f)
    spec = wedge_u_l(1, 0.05)
    # nonzero z with degenerate-looking fiber requires |c_j(z)| tiny for all
    # j >= 1: here only z = 0 qualifies, which on_Ez wins; craft a map with a
    # genuinely degenerate interior fiber instead:
    g = SkewProduct(UniPoly({2: 1.0}),
                    BiPoly({(1, 1): 1.0, (2, 1): 1.0, (3, 0): 1.0}))
    cg = classify(g)
    lbl = classify_point(g, cg, spec, -1.0, 0.3, budget=50)
    assert lbl.label == "near_Edeg"


def test_classify_point_monotone_in_budget():
    f = D0_MAP
    c = classify(f)
    r2 = 0.05
    r1 = invariance_radii(f, c, Fraction(1), r2)
    spec = wedge_u_r1r2(1, r1, r2)
    rng = random.Random(8)
    for _ in range(60):
        z = cmath.rect(rng.uniform(0.1, 0.5), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.05, 0.5), rng.uniform(0, 2 * math.pi))
        prev = None
        for budget in (5, 20, 80, 200):
            lbl = classify_point(f, c, spec, z, w, budget)
            if prev is not None and not prev.undecided:
                if prev.label in ("in_A0_and_Afl", "escapes_or_outside"):
                    assert lbl.label == prev.label
            prev = lbl


def test_boundary_probe_no_boundary_for_full_fiber():
    # monomial delta > d, gamma > 0 with l < alpha: A_f^l = A_0 - E_z is the
    # full fiber {|z| < 1}, so the ray carries no boundary at all
    f0 = monomial_skew(3, 1, 2)
    c = classify(f0)
    spec = wedge_u_l(Fraction(1, 2), 0.1)
    with pytest.raises(ValueError, match="boundary"):
        boundary_probe(f0, c, spec, 0.5, 1.0, steps=4, t_max=3.0)


def test_boundary_probe_semiconjugate_fiber():
    # boundary along the ray sits near |w| = |z| * (J_h radius in that
    # direction); oracle: 1-D Julia membership of h
    f = example_degenerate(1, 4)
    c = classify(f)
    h = example_cubic_h()
    z0 = 0.5 + 0j
    spec = wedge_case3(1, 0.2)
    samples = boundary_probe(f, c, spec, z0, 1.0, steps=6, budget=300)
    assert samples
    t_bound = abs(samples[-1].point[1]) / abs(z0)
    # along the positive real ray the escape threshold of h = w^3 + w^2
    # sits at the real point where the orbit stops escaping
    lo, hi = 0.5, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if julia_membership(h, mid, 400) == "escaping":
            hi = mid
        else:
            lo = mid
    assert abs(t_bound - 0.5 * (lo + hi)) < 0.05
    # G values along the approach stay finite and positive (escaping side)
    g_vals = [s.g_value for s in samples if s.g_value is not None]
    assert g_vals and all(v > 0 for v in g_vals)


def test_case3_wedge_invariance_at_user_radii():
    # no constructive radii exist for Case 3 outer wedges, but sampled
    # invariance still holds at small user-supplied r
    g = SkewProduct(UniPoly({3: 1.0}), BiPoly({(1, 2): 1.0, (3, 1): 1.0}))
    rep = verify_invariance(g, wedge_case3(2, 0.05), 5000, seed=9)
    assert rep.ok


def test_boundary_probe_g_tends_to_zero():
    # along the approach to the Case 3 attracting-set boundary the weighted
    # Green value decreases toward 0 (the limsup row of the comparison chart)
    f = example_degenerate(1, 4)
    c = classify(f)
    spec = wedge_case3(1, 0.2)
    samples = boundary_probe(f, c, spec, 0.5 + 0j, 1.0, steps=8, budget=300)
    g_vals = [s.g_value for s in samples if s.g_value is not None]
    assert len(g_vals) >= 6
    assert g_vals[-1] < g_vals[0]
    assert g_vals[-1] < 0.05


def test_invariance_witnesses_random_maps():
    # constructive radii verify clean across random maps and weights
    from skewdyn.newton import Case

    rng = random.Random(777)
    grid = [(i, j) for i in range(8) for j in range(8)
            if i + j >= 2 or (i, j) == (1, 0)]
    tested = 0
    for trial in range(120):
        support = rng.sample(grid, rng.randint(1, 6))
        delta = rng.randint(2, 6)
        try:
            f = SkewProduct(UniPoly({delta: 1.0}),
                            BiPoly({pt: complex(rng.uniform(-3, 3),
                                                rng.uniform(-1, 1))
                                    for pt in support}))
        except ValueError:
            continue
        c = classify(f)
        term = next((t for t in c.terms if t.case is not Case.CASE3), None)
        if term is None:
            continue
        g, d = term.vertex
        if delta <= d:
            l = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        else:
            l = term.alpha * Fraction(rng.randint(1, 7), 8)
            if l <= 0:
                continue
        try:
            r1 = invariance_radii(f, c, l, 0.08, term=term)
        except ValueError:
            continue
        rep = verify_invariance(f, wedge_u_r1r2(l, r1, 0.08), 800, seed=trial)
        assert rep.ok, (support, delta, l, r1, rep.violations[:1])
        tested += 1
    assert tested > 60


def _per_sample_reference(f, spec, samples, seed, max_violations):
    """verify_invariance as a loop over the lane sampler's points, one sample at a time."""
    rng = _stream(seed)
    u = np.array([rng.random() for _ in range(4 * samples)]).reshape(samples, 4)
    violations = []
    for idx in range(samples):
        # sample idx reads uniforms 4 idx ... 4 idx + 3, whatever the block
        zs, ws, failure = _sample_lanes(spec, u[idx:idx + 1])
        if failure is not None:
            raise failure
        (z,), (w,) = zs.tolist(), ws.tolist()
        if not contains(spec, z, w):
            continue
        z1, w1 = eval_skew(f, z, w)
        if not contains(spec, z1, w1):
            violations.append(Violation((z, w), (z1, w1)))
            if len(violations) >= max_violations:
                break
    return InvarianceReport(spec=spec, samples=samples, violations=tuple(violations))


def _report_or_error(run):
    try:
        return repr(run())
    except (ValueError, OverflowError) as exc:
        return repr(exc)


def test_verify_invariance_matches_per_sample_reference(monkeypatch):
    # verify_invariance draws, tests and maps its samples a block at a time;
    # its reports, witnesses included, and its errors must be the loop's
    from skewdyn import regions

    case2, case4 = invariance_example_case2(), invariance_example_case4()
    r1 = invariance_radii(case2, classify(case2), Fraction(1), 0.05)
    r1b = invariance_radii(case4, classify(case4), Fraction(1, 2), 0.2)
    # sample 0 of seed 1 maps onto |w| = r exactly, so it exits; at this r
    # np.log (numpy 2.4, x86-64) is one ulp below math.log and would keep it
    r_edge = 0.2917460554893024
    edge = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 3.8153677885693518}))
    (z0, w0), = _lane_points(wedge_u_l(0, r_edge), _stream(1), 1)
    assert abs(eval_skew(edge, z0, w0)[1]) == r_edge
    # powers that overflow (eval_skew gives inf) and products that
    # overflow (non-finite, no OverflowError); for the square map, seed 64
    # meets an image whose abs() raises after five exits, and on the huge
    # U_l1l2 wedge seed 17 a draw that overflows after two
    huge = SkewProduct(UniPoly({2: 1.0, 90: 1.0}), BiPoly({(0, 80): 1.0, (1, 2): 1e300}))
    square = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0}))
    raising = ((wedge_u_l(0, 1.6e154), 64, 5, "OverflowError"),
               (wedge_u_l1l2(Fraction(3, 5), 1, 1e141), 17, 2, "ValueError"))
    polar = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (1, 101): 1.0}))  # w**101
    flat = SkewProduct(UniPoly({90: 1.0}), BiPoly({(0, 2): 1.0}))   # z**90 underflows to 0
    s_out = WedgeSpec("S_out", (Fraction(1),), (0.1,))
    runs = [
        (case2, wedge_u_r1r2(1, r1, 0.05), 2000, 5),
        (case2, wedge_u_r1r2(1, 10 * r1, 0.05), 2000, 6),
        (case4, wedge_u_r1r2(Fraction(1, 2), r1b, 0.2), 2000, 105),
        (case4, wedge_u_r1r2(Fraction(1, 2), 10 * r1b, 0.2), 2000, 106),
        (monomial_skew(2, 1, 3), wedge_u_l(1, 3.0), 600, 3),
        (D0_MAP, WedgeSpec("U_l_plus", (Fraction(1),), (0.6,)), 600, 4),
        (case4, wedge_u_l1l2(Fraction(1, 3), Fraction(5, 3), 1.0), 600, 7),
        (case2, WedgeSpec("V_l", (Fraction(1),), (0.3, 0.5)), 600, 8),
        (edge, wedge_u_l(0, r_edge), 1, 1),
        (huge, wedge_u_l(0, 1e5), 600, 9),
        *((square, spec, 50, seed) for spec, seed, _, _ in raising),
        (polar, wedge_u_l(0, 3.0), 300, 10),
        (flat, wedge_u_l(0, 0.5), 200, 2),
        (case2, wedge_u_l(1, 0.1), 0, 1),
        (case2, s_out, 0, 1),
        (case2, s_out, 5, 1),
        (case2, WedgeSpec("S_in", (Fraction(1),), (0.1,)), 5, 1),
    ]
    # a block of 10 puts the stops at 1 and 16 exits inside a block
    for block in (regions._BLOCK, 10):
        monkeypatch.setattr(regions, "_BLOCK", block)
        for f, spec, samples, seed in runs:
            for most in (1, 16):
                want = _report_or_error(
                    lambda: _per_sample_reference(f, spec, samples, seed, most))
                got = _report_or_error(lambda: verify_invariance(f, spec, samples, seed, most))
                assert got == want, (spec, samples, seed, most, block)
    # the image's abs() raises OverflowError; the sampler reports its overflow as ValueError
    for spec, seed, exits, error in raising:
        first, last, past, sixteen = (
            _report_or_error(lambda: verify_invariance(square, spec, 50, seed, most))
            for most in (1, exits, exits + 1, 16))
        assert first.startswith("InvarianceReport") and sixteen.startswith(error)
        assert last.count("Violation(") == exits and past.startswith(error)


def test_verify_invariance_prefix_across_blocks(monkeypatch):
    # the samples of a run of N are the first N of a run of M > N, whatever
    # the block: the exits of N = 2500 open the report of M = 3000
    from skewdyn import regions

    f = invariance_example_case2()
    r1 = invariance_radii(f, classify(f), Fraction(1), 0.05)
    spec = wedge_u_r1r2(1, 10 * r1, 0.05)
    reports = []
    for block in (regions._BLOCK, 10):
        monkeypatch.setattr(regions, "_BLOCK", block)
        short, long = (verify_invariance(f, spec, n, 6, max_violations=10_000).violations
                       for n in (2500, 3000))
        assert 0 < len(short) < len(long) and long[:len(short)] == short
        reports.append(long)
    assert reports[0] == reports[1]


def test_verify_invariance_seeds():
    # the same seed repeats its report; distinct seeds, negative ones
    # included (random.Random seeds from |seed|), draw distinct samples
    f = invariance_example_case2()
    r1 = invariance_radii(f, classify(f), Fraction(1), 0.05)
    spec = wedge_u_r1r2(1, 10 * r1, 0.05)
    seeds = (-3, -2, -1, 0, 1, 2, 3, 1 << 40, -(1 << 40))
    reports = [verify_invariance(f, spec, 500, s, max_violations=1) for s in seeds]
    assert reports == [verify_invariance(f, spec, 500, s, max_violations=1) for s in seeds]
    firsts = {_stream(s).random() for s in seeds}
    assert len(firsts) == len(seeds)
    witnesses = {rep.violations[0].point for rep in reports}
    assert len(witnesses) == len(seeds)


def test_verify_invariance_seeds_one_stream_per_call(monkeypatch):
    # one seeding per call, however many samples and blocks it draws
    from skewdyn import regions

    seeded = []

    class Counting(random.Random):
        def seed(self, *args, **kwargs):
            seeded.append(args)
            super().seed(*args, **kwargs)

    monkeypatch.setattr(regions.random, "Random", Counting)
    monkeypatch.setattr(regions, "_BLOCK", 100)
    f = invariance_example_case2()
    report = verify_invariance(f, wedge_u_l(1, 0.05), 3000, seed=4)
    assert report.ok and len(seeded) == 1
    verify_invariance(f, wedge_u_l(1, 0.05), 10, seed=5)
    assert len(seeded) == 2


def test_classify_point_on_a_fiber_coefficient_past_the_double_range():
    # q = B w^2 with |B| = 2.1e308: abs(B) overflows, and such a fiber is
    # far from degenerate; |w| = 1/|B| = 4.7e-309 is the repelling circle,
    # so w = 0 stays and w = 0.1 or 1e-200 (w_1 = 2.1e-92, w_2 = 9e124) escapes
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.5e308 + 1.5e308j}))
    c = classify(f)
    spec = wedge_u_l(c.l1, 0.05)
    labels = [classify_point(f, c, spec, 0.5, w).label for w in (0.1, 0, 1e-200)]
    assert labels == ["escapes_or_outside", "in_A0_and_Afl", "escapes_or_outside"]
