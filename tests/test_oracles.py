"""Monomial tables, 1-D escape rates, and the semiconjugate family."""

import cmath
import math
import random

import pytest

from skewdyn import (
    OneDimPoly,
    SemiconjugateSpec,
    build_semiconjugate,
    classify,
    g_h_infty,
    g_h_infty_plus,
    g_h_zero,
    g_z_alpha,
    iterate,
    julia_membership,
    monomial_reference,
)
from skewdyn.fiber import fiber_sample
from skewdyn.oracles import (
    _h_rate_lanes,
    _trap_radius,
    example_cubic_h,
    example_degenerate,
    example_nondegenerate,
    g_h_infty_plus_lanes,
    julia_membership_lanes,
)


def test_monomial_reference_examples():
    assert abs(monomial_reference(2, 1, 3, (0.5, 0.4), "Gza") - math.log(0.2)) < 1e-15
    assert abs(monomial_reference(3, 1, 2, (0.5, 0.2), "Gz") - math.log(0.5)) < 1e-15
    for regime in ((2, 0, 3), (3, 0, 2)):
        got = monomial_reference(*regime, (0.5, 0.4), "Gza")
        assert abs(got - math.log(0.4)) < 1e-15
    got = monomial_reference(2, 0, 2, (0.5, 0.4), "Gzi")
    assert abs(got - math.log(0.4)) < 1e-15


def test_monomial_reference_domain_errors():
    with pytest.raises(ValueError):
        monomial_reference(3, 1, 2, (0.0, 0.4), "Gza")
    with pytest.raises(ValueError):
        monomial_reference(2, 1, 2, (1.5, 0.4), "Gz")
    with pytest.raises(ValueError):
        monomial_reference(3, 1, 2, (0.5, 0.4), "Gf")


def test_one_dim_poly_validation():
    with pytest.raises(ValueError):
        OneDimPoly((1.0, 1.0), 0)  # m = 0
    with pytest.raises(ValueError):
        OneDimPoly((1.0, 2.0), 1)  # not monic
    h = example_cubic_h()
    assert h.degree == 3 and h.m == 2
    assert h(2.0) == 12.0  # 8 + 4


def test_build_semiconjugate_degenerate_vertices():
    f = example_degenerate(alpha=1, delta=4)
    assert f.q.support == ((1, 3), (2, 2))
    c = classify(f)
    assert c.npoly.vertices == ((1, 3), (2, 2))


def test_build_semiconjugate_nondegenerate_vertices():
    f = example_nondegenerate(alpha=1)
    # (n1, m1) = (0, d), (n2, m2) = (alpha (d - m), m)
    assert f.q.support == ((0, 3), (1, 2))


def test_build_semiconjugate_alpha_zero_is_product():
    h = example_cubic_h()
    f = build_semiconjugate(SemiconjugateSpec(h, 0, 4, "degenerate"))
    assert f.q.support == ((0, 2), (0, 3))
    assert all(i == 0 for (i, _) in f.q.support)


def test_semiconjugate_invalid_specs():
    h = example_cubic_h()
    with pytest.raises(ValueError):
        SemiconjugateSpec(h, 1, 3, "degenerate")  # needs delta > deg h
    with pytest.raises(ValueError):
        SemiconjugateSpec(h, 1, 4, "nondegenerate")  # needs delta == deg h
    with pytest.raises(ValueError):
        SemiconjugateSpec(h, -1, 4, "degenerate")


def test_g_h_power_map():
    with pytest.raises(ValueError):
        OneDimPoly((0.0, 1.0), 1)  # b_m = 0 is rejected
    h = OneDimPoly((1.0,), 2)  # w^2
    for w in (1.5, 2.0, 3.0 + 1.0j):
        assert abs(g_h_infty(h, w, 64, 1e-13) - math.log(abs(w))) < 1e-12


def test_g_h_stability_across_budget():
    h = example_cubic_h()
    a = g_h_infty(h, 2.0, 40, 1e-13)
    for n in (32, 48):
        assert abs(g_h_infty(h, 2.0, n, 1e-13) - a) < 1e-10


def test_g_h_zero_rate():
    h = example_cubic_h()
    # near the superattracting 0, G_h^0 = lim m^-n log|h^n|
    v = g_h_zero(h, 0.1, 64, 1e-13)
    assert math.isfinite(v) and v < 0
    # consistency: h(w) ~ w^2 near 0 so G_h^0(0.1) ~ log 0.1 + correction
    assert abs(v - math.log(0.1)) < 0.2


def test_julia_membership_basics():
    h = example_cubic_h()
    assert julia_membership(h, 0.0) == "inside_filled"
    assert julia_membership(h, 0.05) == "inside_filled"
    assert julia_membership(h, 2.0) == "escaping"
    assert julia_membership(h, -1.0) == "inside_filled"  # h(-1) = 0


def _assert_lanes_repeat_scalar(h, ws, n_max, tol):
    rates = ((g_h_infty, h.degree, False), (g_h_infty_plus, h.degree, True),
             (g_h_zero, h.m, False))
    for scalar, base, plus in rates:
        want = [repr(scalar(h, w, n_max, tol)) for w in ws]
        got = [repr(x) for x in _h_rate_lanes(h, ws, n_max, tol, base, plus)]
        assert got == want, (h, scalar.__name__, n_max)
    want = [julia_membership(h, w, n_max) for w in ws]
    assert julia_membership_lanes(h, ws, n_max) == want, (h, n_max)


def test_lane_oracles_repeat_scalar_oracles():
    # the semiconjugate suite's grid, at its budgets
    h = example_cubic_h()
    z0 = 0.5 + 0j
    ratios = [complex(0.5 * (2 * (ix + 0.5) / 64 - 1), 0.5 * (2 * (iy + 0.5) / 64 - 1)) / z0
              for iy in range(64) for ix in range(64)]
    assert julia_membership_lanes(h, ratios, 200) == [
        julia_membership(h, r, 200) for r in ratios]
    assert [repr(x) for x in g_h_infty_plus_lanes(h, ratios, 200, 1e-12)] == [
        repr(g_h_infty_plus(h, r, 200, 1e-12)) for r in ratios]
    # exact zeros (h(-1) = 0), escape at the start, and budget exits
    special = [0j, -1 + 0j, 0.05, 2.0, 1e13, -0.5 + 0.3j]
    for n_max in (0, 1, 2, 5, 64):
        _assert_lanes_repeat_scalar(h, special, n_max, 1e-13)
    # seeded random maps: m = 1..3, degree up to 5, some with no trap disc
    rng = random.Random(2024)
    trapless = 0
    for _ in range(24):
        m = rng.randint(1, 3)
        degree = rng.randint(max(2, m + 1), 5)
        scale = rng.choice((0.5, 1.5, 3.0))
        coeffs = [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
                  for _ in range(degree - m)]
        h_r = OneDimPoly((*coeffs, 1.0 + 0j), m)
        trapless += _trap_radius(h_r) is None
        ws = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(60)]
        for n_max in (3, 40):
            _assert_lanes_repeat_scalar(h_r, [0j, *ws], n_max, 1e-12)
    assert trapless >= 3
    # at n_max 0 a rate is log|w| itself, so many moduli near 1 pin each
    # lane's modulus and log to abs and math.log, last bit included
    near_one = [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi))
                for _ in range(2000)]
    _assert_lanes_repeat_scalar(h, near_one, 0, 1e-12)
    # images past the double range: w = 1e5 maps to inf, and on a map with
    # m = 30, w**30 raises OverflowError, which the scalar oracles read as escape
    huge = OneDimPoly((1e300 + 0j, 1.0 + 0j), 2)
    assert not cmath.isfinite(huge(1e5))
    _assert_lanes_repeat_scalar(huge, [1e-100, 1e-3, 1e5, 1e-140j, 1e-200, 0.5 + 0.5j], 60, 1e-12)
    steep = OneDimPoly((1.0 + 0j, 1.0 + 0j), 30)
    with pytest.raises(OverflowError):
        steep(1e11)
    _assert_lanes_repeat_scalar(steep, [1e11, 0.5, 1.01, 1.0], 30, 1e-12)
    # h(1.1) = 1.32e308 (1 + i) has finite parts but no finite modulus; the
    # oracles read such a point as escape, past the stop on g_0 that
    # tol = 1e300 makes and at a start point, and the lanes repeat them
    edge = OneDimPoly((1.2e308 + 1.2e308j, 1.0 + 0j), 1)
    assert g_h_infty_plus(edge, 1.1, 5, 1e300) == math.log(1.1)
    assert julia_membership(edge, 1.5e308 + 1.5e308j) == "escaping"
    # the escape exit reads log|w| of the huge point itself
    assert g_h_infty(edge, 1.1, 5, 1e-12) == pytest.approx(
        (math.log(1.2e308 * 1.1 + 1.21) + 0.5 * math.log(2.0)) / 2, rel=1e-12)
    for tol in (1e300, 1e-12):
        _assert_lanes_repeat_scalar(edge, [0.5, 1.1, 1.5e308 + 1.5e308j, 2.0], 5, tol)


def test_iterate_identity_semiconjugate():
    # f^n(z, w) = (z^(delta^n), z^(alpha delta^n) h^n(w / z^alpha))
    f = example_degenerate(1, 4)
    h = example_cubic_h()
    rng = random.Random(31)
    for _ in range(25):
        z = cmath.rect(rng.uniform(0.5, 0.9), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(0, 2 * math.pi))
        orbit = iterate(f, z, w, 3)
        ratio = w / z
        for pt in orbit:
            zn = z ** (4**pt.n)
            hn = ratio
            for _ in range(pt.n):
                hn = h(hn)
            wn = zn * hn
            if abs(wn) < 1e-280 or abs(wn) > 1e280:
                break
            assert abs(pt.z - zn) <= 1e-10 * max(abs(zn), 1e-30)
            assert abs(pt.w - wn) <= 1e-10 * max(abs(wn), 1e-30)


def test_transport_gza_on_A1():
    # G_z^alpha(z, w) = G_h^inf(w/z^alpha) > 0 on A_1 - {z = 0}
    f = example_degenerate(1, 4)
    c = classify(f)
    h = example_cubic_h()
    rng = random.Random(32)
    count = 0
    while count < 100:
        z = cmath.rect(rng.uniform(0.3, 0.8), rng.uniform(0, 2 * math.pi))
        ratio = cmath.rect(rng.uniform(1.3, 3.0), rng.uniform(0, 2 * math.pi))
        if julia_membership(h, ratio) != "escaping":
            continue
        w = ratio * z
        lhs = g_z_alpha(f, c, z, w, 200, 1e-13)
        rhs = g_h_infty(h, ratio, 200, 1e-13)
        assert lhs.finite
        assert abs(lhs.value - rhs) < 1e-6
        assert rhs > 0
        count += 1


def test_transport_plus_function_grid():
    f = example_degenerate(1, 4)
    c = classify(f)
    h = example_cubic_h()
    z0 = 0.5 + 0j
    ws = [complex(0.5 * (2 * (ix + 0.5) / 64 - 1), 0.5 * (2 * (iy + 0.5) / 64 - 1))
          for iy in range(64) for ix in range(64)]
    lhs = fiber_sample(f, c, "Gzap", z0, ws, 200, 1e-12).estimates
    worst = 0.0
    n = 0
    for w, est in zip(ws, lhs):
        ratio = w / z0
        if julia_membership(h, ratio, 200) == "boundary_band":
            continue
        rhs = g_h_infty_plus(h, ratio, 200, 1e-12)
        worst = max(worst, abs(est.value - rhs))
        n += 1
    assert n > 3000
    assert worst < 1e-6
