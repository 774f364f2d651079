"""Green-type estimators against closed forms and functional equations."""

import cmath
import math
import random

import pytest

from skewdyn import (
    BiPoly,
    SkewProduct,
    UniPoly,
    classify,
    fiber_zero_preimages,
    functional_residual,
    g_f,
    g_f_alpha,
    g_p,
    g_z,
    g_z_alpha,
    g_z_alpha_plus,
    g_z_infty,
    monomial_skew,
    submean_check,
)
from skewdyn.green import DEFAULT_TOL, ESTIMATORS, fiber_sample
from skewdyn.oracles import (
    example_degenerate,
    julia_membership,
    monomial_reference,
)
from skewdyn.suites import MONOMIAL_REGIMES, _applicable, _monomial_points


def test_gp_square():
    p = UniPoly({2: 1.0})
    est = g_p(p, 0.5)
    assert abs(est.value - math.log(0.5)) < 1e-12
    assert est.termination == "converged"


def test_gp_zero():
    est = g_p(UniPoly({2: 1.0}), 0.0)
    assert est.value == -math.inf and est.termination == "hit_zero"


def test_gp_self_consistency_high_n():
    p = UniPoly({2: 1.0, 3: 1.0})
    a = g_p(p, 0.1, 40, 1e-14)
    b = g_p(p, 0.1, 50, 1e-15)
    assert abs(a.value - b.value) < 1e-8


def test_gza_monomial_delta_lt_d():
    f0 = monomial_skew(2, 1, 3)
    c = classify(f0)
    est = g_z_alpha(f0, c, 0.5, 0.4)
    assert abs(est.value - math.log(0.2)) < 1e-10


def test_gza_monomial_w_on_graph():
    f0 = monomial_skew(3, 1, 2)
    c = classify(f0)
    est = g_z_alpha(f0, c, 0.5, 0.5)  # w = z^alpha
    assert abs(est.value) < 1e-12


def test_gzi_monomial():
    f0 = monomial_skew(2, 1, 2)
    c = classify(f0)
    est = g_z_infty(f0, c, 0.5, 0.3)
    assert abs(est.value - math.log(0.3)) < 1e-10
    est1 = g_z_infty(f0, c, 0.7, 1.0)
    assert abs(est1.value) < 1e-10


def test_monomial_table_every_regime():
    # all six table regimes at 10 generic points, tolerance 1e-8
    for (delta, gamma, d) in MONOMIAL_REGIMES:
        f0 = monomial_skew(delta, gamma, d)
        c = classify(f0)
        for z, w in _monomial_points(delta, gamma, d, 10, seed=2):
            for name in _applicable(delta, gamma, d):
                expected = monomial_reference(delta, gamma, d, (z, w), name)
                est = ESTIMATORS[name](f0, c, z, w, 72, 1e-12)
                if math.isinf(expected):
                    assert est.value == expected, (delta, gamma, d, name)
                else:
                    assert abs(est.value - expected) < 1e-8, (delta, gamma, d, name)


def test_gz_divergent_sentinel_delta_eq_d():
    f0 = monomial_skew(2, 1, 2)
    c = classify(f0)
    est = g_z(f0, c, 0.5, 0.3)
    assert est.value == -math.inf
    assert est.termination == "divergent_to_minus_inf"


def test_gfa_exceeds_alpha_gp_inside_attracting_set():
    # gamma = 0, delta = d example: G_f^alpha > alpha G_p inside A_f^alpha,
    # = alpha G_p outside (sampled)
    from skewdyn.oracles import example_nondegenerate

    f = example_nondegenerate(alpha=1)
    c = classify(f)
    assert c.delta == c.d and c.gamma == 0
    assert c.alpha == 1
    z = 0.6 + 0j
    gp = g_p(f.p, z, 96, 1e-13).value
    # w/z inside the filled Julia set of h: ratio never escapes
    inside = g_f_alpha(f, c, z, 0.05 * z, 96, 1e-13)
    assert abs(inside.value - 1.0 * gp) < 1e-9
    # w/z escaping for h: strictly above alpha G_p
    outside = g_f_alpha(f, c, z, 2.0 * z, 96, 1e-13)
    assert outside.value > 1.0 * gp + 0.05


def test_functional_residual_monomial():
    f0 = monomial_skew(2, 1, 3)
    c = classify(f0)
    rng = random.Random(6)
    worst = 0.0
    for _ in range(100):
        z = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
        r = functional_residual(f0, c, "alpha", z, w, 72, 1e-12)
        assert r is not None
        worst = max(worst, r)
    assert worst < 1e-10


def test_functional_residual_infty_identity():
    f0 = monomial_skew(2, 1, 2)
    c = classify(f0)
    rng = random.Random(7)
    for _ in range(100):
        z = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(0, 2 * math.pi))
        r = functional_residual(f0, c, "infty", z, w, 72, 1e-12)
        assert r is not None and r < 1e-10


def test_functional_residual_alpha_plus_nonescaping():
    f0 = monomial_skew(3, 1, 2)
    c = classify(f0)
    r = functional_residual(f0, c, "alpha_plus", 0.5, 0.1, 64, 1e-12)
    assert r == 0.0


def test_functional_residual_semiconjugate_example():
    f = example_degenerate(1, 4)
    c = classify(f)
    rng = random.Random(9)
    count = 0
    worst = 0.0
    while count < 100:
        z = cmath.rect(rng.uniform(0.3, 0.7), rng.uniform(0, 2 * math.pi))
        ratio = cmath.rect(rng.uniform(1.2, 2.5), rng.uniform(0, 2 * math.pi))
        w = ratio * z  # inside A_1 when the h-orbit of the ratio escapes
        if julia_membership(f_h(), ratio) != "escaping":
            continue
        r = functional_residual(f, c, "alpha", z, w, 200, 1e-13)
        if r is None:
            continue
        worst = max(worst, r)
        count += 1
    assert worst < 1e-6


def f_h():
    from skewdyn.oracles import example_cubic_h

    return example_cubic_h()


def test_sign_contracts():
    # G_z^{alpha,+} >= 0 wherever evaluated; G_z^alpha < 0 on U^{l1} when
    # delta < d
    f0 = monomial_skew(2, 1, 3)
    c = classify(f0)
    rng = random.Random(10)
    for _ in range(200):
        z = cmath.rect(rng.uniform(0.01, 0.6), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.01, 0.6), rng.uniform(0, 2 * math.pi))
        plus = g_z_alpha_plus(f0, c, z, w, 64)
        assert plus.value >= 0.0
    for _ in range(100):
        # U^{l1} with l1 = 0 and r = 0.3: |z| < r, |w| < r
        z = cmath.rect(rng.uniform(0.01, 0.3), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.01, 0.3), rng.uniform(0, 2 * math.pi))
        val = g_z_alpha(f0, c, z, w, 64)
        assert val.value < 0.0


def test_asymptotic_identity_shrinks_with_r():
    # |G_z^alpha - log|w/z^alpha|| small on U and shrinking as r -> 0
    f = SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 4): 1.0, (1, 2): 1.0}))
    c = classify(f)
    alpha = float(c.alpha)
    rng = random.Random(13)
    sups = []
    for r in (1e-2, 1e-3, 1e-4):
        worst = 0.0
        for _ in range(100):
            lz = math.log(r) - rng.uniform(0.0, 2.0)
            z = cmath.rect(math.exp(lz), rng.uniform(0, 2 * math.pi))
            w = cmath.rect(rng.uniform(0.1, 0.9) * r * abs(z) ** c.l1,
                           rng.uniform(0, 2 * math.pi))
            est = g_z_alpha(f, c, z, w, 96, 1e-13)
            ref = math.log(abs(w)) - alpha * math.log(abs(z))
            worst = max(worst, abs(est.value - ref))
        sups.append(worst)
    assert sups[0] <= 0.1
    assert sups[2] <= sups[1] * 1.5 <= sups[0] * 2.5
    assert sups[2] < sups[0]


D0_MAP = SkewProduct(
    UniPoly({2: 1.0}),
    BiPoly({(0, 4): 1.0, (2, 1): 1.0, (3, 0): 1.0}),
)


def test_d0_green_identity():
    # delta > d = 0: G_z = alpha G_p on A_0 with alpha = 3/2
    c = classify(D0_MAP)
    assert c.d == 0 and float(c.alpha) == 1.5
    rng = random.Random(14)
    count = 0
    while count < 50:
        z = cmath.rect(rng.uniform(0.15, 0.6), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.05, 0.5), rng.uniform(0, 2 * math.pi))
        gz = g_z(D0_MAP, c, z, w, 96, 1e-13)
        gp = g_p(D0_MAP.p, z, 96, 1e-13)
        if not (gz.finite and gp.finite):
            continue
        assert abs(gz.value - 1.5 * gp.value) < 1e-6
        count += 1


def test_submean_harmonic_oracle():
    # mean-value property of the harmonic function log|w|
    def sampler(w: complex):
        return math.log(abs(w)) if w != 0 else None

    res = submean_check(lambda ws: map(sampler, ws), 1.0 + 0.5j, 0.25, 64)
    assert res.conclusive
    assert abs(res.deficit) < 1e-9


def test_submean_subharmonic_side_and_falsifiability():
    f = example_degenerate(1, 4)
    c = classify(f)
    z0 = 0.5 + 0j

    def sampler(w: complex):
        est = g_z_alpha_plus(f, c, z0, w, 200, 1e-12)
        return est.value if est.finite else None

    # circle crossing the weighted Julia locus (radius reaches past 0.5 J_h)
    res = submean_check(lambda ws: map(sampler, ws), 0.30 + 0.30j, 0.35, 128)
    assert res.conclusive
    assert res.deficit <= 1e-9
    # the negated function violates the sub-mean inequality on that circle
    neg = submean_check(lambda ws: (-sampler(w) for w in ws), 0.30 + 0.30j, 0.35, 128)
    assert neg.conclusive and neg.deficit > 1e-6


def test_fiber_zero_preimages_multiplicity_collapse():
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0}))
    roots = fiber_zero_preimages(f, 0.4 + 0.1j, 2)
    assert len(roots) == 1
    assert abs(roots[0]) < 1e-4


def test_fiber_zero_preimages_cubic():
    # q = w^3 + z w: roots of q_z are 0 and +-sqrt(-z)
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 3): 1.0, (1, 1): 1.0}))
    z = 0.3 + 0.2j
    roots = fiber_zero_preimages(f, z, 1)
    assert len(roots) == 3
    expected = {0j, cmath.sqrt(-z), -cmath.sqrt(-z)}
    for r in roots:
        assert min(abs(r - e) for e in expected) < 1e-9
    # n = 2 roots all satisfy the residual bound (checked internally)
    roots2 = fiber_zero_preimages(f, z, 2)
    assert len(roots2) >= 3


def test_fiber_degenerate_error():
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(1, 1): 1.0, (3, 0): 1.0}))
    with pytest.raises(ValueError, match="degenerate fiber"):
        fiber_zero_preimages(f, 0.0, 1)


def test_ratio_and_direct_modes_agree():
    # the weighted-ratio recursion and the raw orbit compute the same limit
    f = SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 4): 1.0, (1, 2): 1.0}))
    c = classify(f)
    from skewdyn.green import _gza_direct, best_orbit_logs, ratio_orbit

    assert ratio_orbit(f, c.alpha, 0.1, 0.01, 4) is not None
    rng = random.Random(2)
    worst = 0.0
    for _ in range(100):
        z = cmath.rect(rng.uniform(0.05, 0.4), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.01, 0.2), rng.uniform(0, 2 * math.pi))
        a = g_z_alpha(f, c, z, w, 48, 1e-12)
        b = _gza_direct(f, c, best_orbit_logs(f, c, z, w, 48), 1e-12, plus=False)
        if a.finite and b.finite:
            worst = max(worst, abs(a.value - b.value))
    assert worst < 1e-12


def _estimate_key(est):
    # repr keeps -0.0 and nan apart, so equal keys mean identical estimates
    return (repr(est.value), est.n_used, est.termination, repr(est.residual))


def _keys_or_refusal(evaluate):
    try:
        return [_estimate_key(e) for e in evaluate()]
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_fiber_sample_traversal_order(monkeypatch):
    # fiber_sample (batched kernels or scalar loop) must reproduce the
    # per-point estimators exactly, refusals included
    from skewdyn import green
    from skewdyn.green import best_orbit_logs, fiber_sample, ratio_orbit

    maps = [
        example_degenerate(1, 4),                               # c' = c^3 + c^2
        monomial_skew(2, 1, 3),                                 # alpha -1
        SkewProduct(UniPoly({2: 1.0, 3: 1.0}),                  # p tail: corr != 0,
                    BiPoly({(0, 2): 1.0, (2, 0): -1.0})),       # w-axis not invariant
        SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 2): 1.0, (1, 2): 0.5})),  # alpha 0
        SkewProduct(UniPoly({4: 1.0}),                          # i~ = 1 term
                    BiPoly({(1, 3): 1.0, (2, 2): 1.0, (3, 2): 2e-4j})),
        # d = 1 with complex coefficients: G_z^alpha diverges
        SkewProduct(UniPoly({3: 0.7879175174070936 - 0.7699751993438908j}),
                    BiPoly({(2, 1): 0.10326285516058764 + 1.0097536050355722j,
                            (5, 0): -1.1932483280029809 - 0.011650103391599664j,
                            (6, 4): 1.4114347607494637 - 1.8895241945084722j})),
        SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0})),  # alpha 3/2
        monomial_skew(2, 1, 2),                                 # alpha undefined
        # delta = d, alpha 2: G_f^alpha composes G_p with G_z^{alpha,+}
        SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (2, 1): 0.3, (4, 0): 0.2})),
    ]
    ws = [0j, -0.5 + 0j, 0.01 + 0.02j, 0.1 - 0.05j, 0.3 + 0.2j, -0.4 + 0.1j,
          0.45 + 0.45j, 1.5 - 0.5j, 4.0 + 3.0j]
    # the first map at z = 0.5 covers w = 0, an exact zero c_1 = h(-1) = 0
    # and an escaping lane; on |z| = 1 the i~ = 1 term stays within 80
    # e-folds, so the log-space extension runs with eta > 0
    f0, c0 = maps[0], classify(maps[0])
    assert ratio_orbit(f0, c0.alpha, 0.5, ws[1], 64).log_mags[1] == -math.inf
    assert ratio_orbit(f0, c0.alpha, 0.5, ws[8], 64).reason == "escaped"
    assert any(ratio_orbit(maps[4], classify(maps[4]).alpha, -1.0, ws[2], 64).etas)
    # the last fiber suits the d = 1 map; on its extra lane np.log and
    # math.log differ in the last bit
    fibers = ((0.5, ws), (0.3 - 0.4j, ws[2:]), (-1.0, ws[2:6]), (0.5, ws[4:5]),
              (0.03764810541555223 + 0.10912968991605897j,
               ws[1:] + [-0.05114840645440921 - 0.16137751025848493j]))
    for f in maps:
        c = classify(f)
        for key, fn in ESTIMATORS.items():
            for z, lanes in fibers:
                for n_max, tol in ((64, 1e-10), (9, 1e-6)):
                    got = _keys_or_refusal(
                        lambda: fiber_sample(f, c, key, z, lanes, n_max, tol).estimates)
                    want = _keys_or_refusal(
                        lambda: [fn(f, c, z, w, n_max, tol) for w in lanes])
                    assert got == want, (f.q.terms, key, z, n_max)

    # the batched direct orbit: on the first fiber the alternate vertex
    # (3, 0) wins the retry; the second holds the transient zero w_8 = 0;
    # on the third half the lanes switch to the log recursion with eta > 0,
    # where np.exp and math.exp differ in the last bit; on the p-tail map
    # the orbit ends as 'range' at step 4; then z = 0, an escaping p(z),
    # budgets 0 and 1, and batches of 3 lanes
    alpha32 = maps[6]
    ptail = SkewProduct(UniPoly({2: 1.0, 3: 0.5}), BiPoly({(1, 3): 1.0, (2, 3): 0.25j}))
    w_fold = 0.008730071332046972 - 0.02482660783051319j
    cases = [
        (alpha32, 0.5, [-0.3125 - 0.020833333333333315j, 0.3125 + 0.02083333333333337j]
         + ws[2:7]),
        (alpha32, 0.5042848627857037 + 0.002342753301247936j,
         [0.010872111935944177 - 0.002017993161311824j] + ws[:5]),
        (alpha32, -0.09897173011784269 + 0.054432495748585684j,
         [w_fold + complex(0.004 * a, 0.004 * b) for a in range(-2, 3) for b in range(-2, 3)]),
        (ptail, 0.3 + 0.2j, [0.1 - 0.05j] + ws[:6]),
        (alpha32, 0j, ws),
        (ptail, 0j, ws),
        (alpha32, 1.5 + 0.5j, ws),
        # the first lane's weighted ratio escapes with |b| != 1
        (ESCAPE_MAP, 0.134 - 0.221j, [0.165 + 0.395j]),
    ]
    c32 = classify(alpha32)
    assert best_orbit_logs(alpha32, c32, cases[0][1], cases[0][2][0], 64).dominant == (3, 0)
    assert best_orbit_logs(alpha32, c32, cases[1][1], cases[1][2][0], 64).steps[8][2] == -math.inf
    tail_logs = best_orbit_logs(ptail, classify(ptail), 0.3 + 0.2j, 0.1 - 0.05j, 64)
    assert (tail_logs.reason, tail_logs.steps[-1][0]) == ("range", 4)
    _, z_esc, (w_esc, *_) = cases[-1]
    c_esc = classify(ESCAPE_MAP)
    assert ratio_orbit(ESCAPE_MAP, c_esc.alpha, z_esc, w_esc, 64).reason == "escaped"
    for chunk in (green._CHUNK, 3):
        monkeypatch.setattr(green, "_CHUNK", chunk)
        for f, z, lanes in cases:
            c = classify(f)
            for key, fn in ESTIMATORS.items():
                for n_max, tol in ((64, 1e-10), (9, 1e-6), (1, 1e-10), (0, 1e-10)):
                    got = _keys_or_refusal(
                        lambda: fiber_sample(f, c, key, z, lanes, n_max, tol).estimates)
                    want = _keys_or_refusal(
                        lambda: [fn(f, c, z, w, n_max, tol) for w in lanes])
                    assert got == want, (f.q.terms, key, z, n_max, chunk)
    sample = fiber_sample(f0, c0, "Gza", 0.5, ws)
    assert sample.ws == tuple(ws)


def test_fiber_direct_lanes_match_point_estimators(monkeypatch):
    # the direct path settles every lane of a batch as arrays; it must
    # reproduce the per-point estimators exactly, and settle no lane
    # through the scalar routines
    from skewdyn import green
    from skewdyn.green import _direct_only, best_orbit_logs, fiber_sample

    alpha32 = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
    ptail = SkewProduct(UniPoly({2: 1.0, 3: 0.5}), BiPoly({(1, 3): 1.0, (2, 3): 0.25j}))
    w_alt = -0.3125 - 0.020833333333333315j
    z_zero = 0.5042848627857037 + 0.002342753301247936j
    w_zero = 0.010872111935944177 - 0.002017993161311824j
    fibers = [
        (alpha32, 0.5, [w_alt, 0.1 - 0.05j]),   # the alternate vertex (3, 0) wins the retry
        (alpha32, z_zero, [w_zero, 0.3 + 0.2j]),   # w_8 = 0: a transient zero, skipped
        (alpha32, 0j, [0j, 0.2 - 0.1j]),
        (ptail, 0.3 + 0.2j, [0.1 - 0.05j, 0.01 + 0.02j]),   # ends as 'range' at step 4
    ]
    c32 = classify(alpha32)
    logs = best_orbit_logs(alpha32, c32, 0.5, w_alt, 64)
    assert logs.dominant == (3, 0) and logs.switch_step is not None
    assert best_orbit_logs(alpha32, c32, z_zero, w_zero, 64).steps[8][2] == -math.inf
    assert best_orbit_logs(ptail, classify(ptail), 0.3 + 0.2j, 0.1 - 0.05j, 64).reason == "range"
    # seeded random maps, one of each Case
    rng = random.Random(7)
    grid = [(i, j) for i in range(6) for j in range(5) if i + j >= 2]
    seen = set()
    while len(seen) < 4:
        try:
            f = SkewProduct(UniPoly({rng.randint(2, 4): cmath.rect(1, rng.uniform(0, 6.3))}),
                            BiPoly({pt: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                    for pt in rng.sample(grid, rng.randint(2, 4))}))
        except ValueError:
            continue
        if classify(f).case not in seen:
            seen.add(classify(f).case)
            z = cmath.rect(rng.uniform(0.1, 0.8), rng.uniform(0, 6.3))
            fibers.append((f, z, [cmath.rect(rng.uniform(0.0, 1.0) ** 2, rng.uniform(0, 6.3))
                                  for _ in range(4)] + [0j]))
    runs = []
    for f, z, lanes in fibers:
        c = classify(f)
        for key in ("Gza", "Gzap", "Gzi", "Gz", "Gf", "Gfa"):
            if _direct_only(f, c, key, z):
                for n_max, tol in ((64, 1e-10), (9, 1e-6), (1, 1e-10), (0, 1e-10)):
                    want = [_estimate_key(ESTIMATORS[key](f, c, z, w, n_max, tol)) for w in lanes]
                    runs.append((f, c, key, z, lanes, n_max, tol, want))
    assert len(runs) > 60
    calls = []
    for name in ("_gza_direct", "_gzi_direct", "_gz_direct", "_max_of_limits", "orbit_logs"):
        monkeypatch.setattr(green, name, lambda *a, _name=name: calls.append(_name))
    for chunk in (green._CHUNK, 3):
        monkeypatch.setattr(green, "_CHUNK", chunk)
        for f, c, key, z, lanes, n_max, tol, want in runs:
            got = fiber_sample(f, c, key, z, lanes, n_max, tol).estimates
            got = [_estimate_key(e) for e in got]
            assert got == want, (f.q.terms, key, z, n_max, chunk)
    assert calls == []   # no lane falls back to the scalar settle


# Case 3 with delta = d = 3 and alpha = 1; its ratio recursion
# c' = (b c^3 + b' c) (1 + p tail) has |b| != 1
ESCAPE_MAP = SkewProduct(UniPoly({3: 1.28 + 0.40j, 4: 0.22 + 0.16j}),
                         BiPoly({(0, 3): 0.77 - 0.67j, (2, 1): 0.94 - 0.56j}))


def test_ratio_escape_exit_carries_log_b():
    # past the escape radius c' = b c^3 (1 + o(1)), so the exit reads
    # (log|c_n| + log|b|/(d - 1)) / d^n; the reference iterates the ratio
    # recursion c' = q(z, z c) / p(z) itself in mpmath, 45 steps deep
    import mpmath as mp

    from skewdyn.green import fiber_sample

    f, z, w = ESCAPE_MAP, 0.134 - 0.221j, 0.165 + 0.395j
    c = classify(f)
    assert (c.delta, c.d, c.alpha) == (3, 3, 1)
    with mp.workdps(40):
        zn, cn = mp.mpc(z), mp.mpc(w) / mp.mpc(z)
        for _ in range(45):
            pz = sum(mp.mpc(a) * zn**k for k, a in f.p.terms.items())
            cn = sum(mp.mpc(b) * zn**i * (zn * cn)**j for (i, j), b in f.q.terms.items()) / pz
            zn = pz
        limit = float(mp.log(abs(cn)) / mp.mpf(3) ** 45)
    for fn, key in ((g_z_alpha, "Gza"), (g_z_alpha_plus, "Gzap")):
        est = fn(f, c, z, w)
        assert (est.n_used, est.termination) == (5, "escaped_with_tail")
        assert abs(est.value - limit) < 1e-12
        assert fiber_sample(f, c, key, z, [w]).estimates == (est,)


def test_max_of_limits_residual_sums_every_part():
    # G_f and G_f^alpha settle the z and w series apart; the residual is
    # the float sum of both parts' residuals, inf where a part has a single
    # partial (n_max 0), and 0.0 where no part runs a series
    from skewdyn.green import fiber_sample

    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
    c = classify(f)
    for fn, key in ((g_f, "Gf"), (g_f_alpha, "Gfa")):
        est = fn(f, c, 0.5, 0.1 - 0.05j, 0)
        assert (est.n_used, est.termination, est.residual) == (0, "budget", math.inf)
        assert repr(fiber_sample(f, c, key, 0.5, [0.1 - 0.05j], 0).estimates) == repr((est,))
    # alpha = 0: the z part is the constant 0, and w = 0 stays on the invariant axis
    f0 = SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 2): 1.0, (1, 2): 0.5}))
    c0 = classify(f0)
    assert c0.alpha == 0
    est = g_f_alpha(f0, c0, 0.5, 0j)
    assert (est.value, est.termination) == (0.0, "converged")
    assert type(est.residual) is float and est.residual == 0.0
    assert repr(fiber_sample(f0, c0, "Gfa", 0.5, [0j]).estimates) == repr((est,))


def test_gz_converges_at_large_budgets():
    # G_z = G_p = log 0.5 on this fiber
    f = example_degenerate(1, 4)
    c = classify(f)
    for n_max in (600, 10_000):
        est = g_z(f, c, 0.5, 0.1 + 0.1j, n_max)
        assert est.termination == "converged"
        assert abs(est.value - math.log(0.5)) < 1e-9


def test_gz_fiber_lanes_keep_their_estimate_at_large_budgets():
    # every lane settles at n_max 200 and gives the same estimate at 1000
    f = example_degenerate(1, 4)
    c = classify(f)
    ws = [complex(-0.5 + 0.1 * i, -0.5 + 0.1 * j) for j in range(11) for i in range(11)]
    short, deep = (fiber_sample(f, c, "Gz", 0.5, ws, n_max, DEFAULT_TOL).estimates
                   for n_max in (200, 1000))
    assert all(est.termination != "budget" for est in short)
    assert [_estimate_key(est) for est in deep] == [_estimate_key(est) for est in short]


def test_gz_past_the_float_range_of_lambda_powers():
    # on (z^2, z^2), d = 0, so G_z reads the direct orbit, per point and per
    # fiber; lambda = 2 and 2**n leaves the double range at n = 1024, where
    # that orbit ends as 'range', long after the estimate settled at step 3
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(2, 0): 1.0}))
    c = classify(f)
    for n_max in (1000, 1030, 3000):
        for est in (g_z(f, c, 0.5, 0.3, n_max),
                    fiber_sample(f, c, "Gz", 0.5, [0.3], n_max, DEFAULT_TOL).estimates[0]):
            assert (est.value, est.termination, est.n_used) == (
                -0.6931471805599453, "converged", 3), n_max


def test_transient_zero_on_non_invariant_axis():
    # w_8 = w_7^2 - z_7^3 cancels to an exact 0.0 at this pixel; the (3, 0)
    # term revives w, so the limits are finite: c = w / z^(3/2) follows
    # c' = c^2 - 1 into the basin of {0, -1}, where its escape rate is 0
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
    c = classify(f)
    z = 0.5042848627857037 + 0.002342753301247936j
    w = 0.010872111935944177 - 0.002017993161311824j
    from skewdyn.green import orbit_logs

    steps = orbit_logs(f, c.primary.vertex, z, w, 64).steps
    assert any(log_w == -math.inf for _, _, log_w in steps)
    gza = g_z_alpha(f, c, z, w)
    gzi = g_z_infty(f, c, z, w)
    for est in (gza, gzi, g_z_alpha_plus(f, c, z, w), g_z(f, c, z, w)):
        assert est.value != -math.inf
        assert est.finite or est.termination == "budget"
    assert abs(gza.value) < 1e-9
    assert abs(gzi.value - 1.5 * math.log(abs(z))) < 1e-9


def test_gzap_range_exit_is_converged_only_below_tol():
    # when the ratio dives below the double range, G_z^{alpha,+} is 0 with
    # the certified bound tail_m / d^n; that bound decides the tag
    from skewdyn.green import fiber_sample, ratio_orbit

    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
    c = classify(f)
    z = 0.5042848627857037 + 0.002342753301247936j   # direct orbit, alpha = 3/2
    w = 0.010872111935944177 - 0.002017993161311824j
    est = g_z_alpha_plus(f, c, z, w, 64, 1e-10)
    assert (est.value, est.n_used, est.termination) == (0.0, 9, "budget")
    assert abs(est.residual - 0.21586735246819178) < 1e-15
    # tol between the bounds at steps 8 and 9 (d = 2): the same exit, converged
    loose = g_z_alpha_plus(f, c, z, w, 64, 0.3)
    assert loose == type(est)(0.0, 9, "converged", est.residual)
    # the weighted-ratio path (alpha = -1), per point and fiber-batched
    f1 = SkewProduct(UniPoly({2: 0.7491190564317117 + 1.173874525948638j,
                              3: -0.03676929784416657 - 0.4012973584090531j}),
                     BiPoly({(1, 3): -0.7746637104387614 - 0.08701674509972251j,
                             (2, 3): 0.7034450814548691 + 0.4416829017505462j}))
    c1 = classify(f1)
    z1 = -0.43861651604717106 - 0.5276023814832417j
    w1 = 0.3905196576352037 - 0.4691779220356712j
    assert ratio_orbit(f1, c1.alpha, z1, w1, 64).reason == "range"
    for tol, tag in ((1e-10, "budget"), (0.3, "converged")):   # bound 0.17 at step 6
        est = g_z_alpha_plus(f1, c1, z1, w1, 64, tol)
        assert (est.value, est.n_used, est.termination) == (0.0, 6, tag)
        assert fiber_sample(f1, c1, "Gzap", z1, [w1], 64, tol).estimates == (est,)


def test_n_used_is_the_step_index_past_a_transient_zero():
    # the pixel of test_transient_zero_on_non_invariant_axis: w_8 = 0 has no
    # partial, and the orbit ends as 'range' after step 9; the estimators
    # settle on step 9, so n_used is 9, not the 9 partials' last index 8
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
    c = classify(f)
    z = 0.5042848627857037 + 0.002342753301247936j
    w = 0.010872111935944177 - 0.002017993161311824j
    from skewdyn.green import best_orbit_logs

    logs = best_orbit_logs(f, c, z, w, 64)
    assert [n for n, _, log_w in logs.steps if log_w == -math.inf] == [8]
    assert (logs.reason, logs.steps[-1][0]) == ("range", 9)
    for fn in (g_z_alpha, g_z_infty, g_z, g_f, g_f_alpha):
        est = fn(f, c, z, w)
        assert (est.n_used, est.termination) == (9, "converged"), fn.__name__


def test_switch_fold_on_direct_early_exits():
    # alpha = 3/2 runs the direct orbit, which switches to the log-space
    # extension at step 8; the escape exit at step 9 must carry the switch
    # fold 4 eta / d^8 like every other exit
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
    c = classify(f)
    z = -0.09897173011784269 + 0.054432495748585684j
    w = 0.008730071332046972 - 0.02482660783051319j
    from skewdyn.green import best_orbit_logs

    logs = best_orbit_logs(f, c, z, w, 64)
    assert logs.switch_step == 8 and logs.switch_eta > 1e-10
    fold = 4 * logs.switch_eta / 2**8
    for fn in (g_z_alpha, g_z_alpha_plus):
        est = fn(f, c, z, w, 64, 1e-10)
        assert est.termination == "escaped_with_tail"
        assert est.residual >= fold


def test_gz_alpha_gp_identity_on_trapped_side():
    # on the bounded-ratio side of the degenerate example the identity
    # G_z = alpha G_p holds; reaching it needs the ratio orbit to continue
    # in log space through the superattracting dive
    f = example_degenerate(1, 4)
    c = classify(f)
    h = f_h()
    rng = random.Random(77)
    worst = 0.0
    n = 0
    while n < 40:
        z = cmath.rect(rng.uniform(0.3, 0.7), rng.uniform(0, 2 * math.pi))
        ratio = cmath.rect(rng.uniform(0.05, 0.6), rng.uniform(0, 2 * math.pi))
        if julia_membership(h, ratio, 300) != "inside_filled":
            continue
        gz = g_z(f, c, z, ratio * z, 120, 1e-12)
        gp = g_p(f.p, z, 120, 1e-12)
        if not (gz.finite and gp.finite):
            continue
        worst = max(worst, abs(gz.value - gp.value))
        n += 1
    assert worst < 1e-9


def test_no_cancellation_in_extended_weighted_ratio():
    # regression: past the float window log|w_n| and alpha log|z_n| both grow
    # like delta^n; forming their difference from saturated absolutes loses
    # digits, so the direct path must use the exact u' = d u + const recursion
    f = SkewProduct(UniPoly({6: 1.0}), BiPoly({
        (3, 3): 1.102430976322334 + 1.4595985130737255j,
        (5, 3): 0.8563256122809357 + 1.9031455401567907j,
    }))
    c = classify(f)
    z = 0.3708528453780349 - 0.2443675240623793j
    w = 0.12887679402368873 - 0.26749442862304296j
    from skewdyn.green import _gza_direct, best_orbit_logs

    a = g_z_alpha(f, c, z, w, 40, 1e-11)
    b = _gza_direct(f, c, best_orbit_logs(f, c, z, w, 40), 1e-11, plus=False)
    assert a.termination == b.termination == "converged"
    assert abs(a.value - b.value) < 1e-12


def test_gzi_functional_identity_random_maps():
    rng = random.Random(31415)
    grid = [(i, j) for i in range(7) for j in range(7)
            if i + j >= 2 or (i, j) == (1, 0)]
    checked = 0
    worst = 0.0
    while checked < 25:
        support = rng.sample(grid, rng.randint(2, 6))
        delta = rng.randint(2, 5)
        try:
            f = SkewProduct(UniPoly({delta: 1.0}),
                            BiPoly({pt: complex(rng.uniform(-2, 2),
                                                rng.uniform(-2, 2))
                                    for pt in support}))
        except ValueError:
            continue
        c = classify(f)
        if c.delta != c.d or c.gamma <= 0:
            continue
        checked += 1
        for _ in range(4):
            z = cmath.rect(rng.uniform(0.03, 0.25), rng.uniform(0, 2 * math.pi))
            w = cmath.rect(rng.uniform(0.1, 0.9) * 0.1 * abs(z) ** float(c.l1),
                           rng.uniform(0, 2 * math.pi))
            r = functional_residual(f, c, "infty", z, w, 48, 1e-13)
            if r is not None:
                worst = max(worst, r)
    assert worst < 1e-9


def test_log_extension_overflow_is_not_an_exact_zero():
    # log|z_n| = 2^n log 0.5 overflows to -inf near step 1025; the orbit ends
    # as 'range' before that step, which must not read as z_n = w_n = 0
    from skewdyn.green import fiber_sample

    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
    c = classify(f)
    z, w = 0.5, -0.375 - 0.375j
    for key, fn in (("Gf", g_f), ("Gfa", g_f_alpha)):
        want = fn(f, c, z, w, 64)
        assert (want.value, want.n_used, want.termination) == (-0.561731229503312, 7,
                                                               "converged")
        for n_max in (1030, 5000):
            assert repr(fn(f, c, z, w, n_max)) == repr(want), (key, n_max)
            got = fiber_sample(f, c, key, z, [w], n_max).estimates[0]
            assert repr(got) == repr(want), (key, n_max)
