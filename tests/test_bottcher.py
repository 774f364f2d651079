"""Böttcher coordinates: round trips, conjugacy, modulus consistency."""

import cmath
import math
import random

import pytest

from skewdyn import (
    BiPoly,
    SkewProduct,
    UniPoly,
    bottcher,
    classify,
    g_p,
    g_z_alpha,
    g_z_infty,
    monomial_skew,
)
from skewdyn.bottcher import monomial_inverse
from skewdyn.regions import wedge_u_l
from skewdyn.algebra import iterate

CASE2_LT = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 5): 0.5, (1, 3): 1.0}))
CASE2_GT = SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 4): 1.0, (1, 2): 1.0}))
CASE3_EX = SkewProduct(UniPoly({3: 1.0}), BiPoly({(1, 2): 1.0, (3, 1): 1.0}))
CASE4_EX = SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 5): 1.0, (1, 2): 1.0, (3, 1): 1.0}))


def _sample_u_l(rng, l, r, decades=2.0):
    lz = math.log(r) - rng.uniform(0.1, decades)
    z = cmath.rect(math.exp(lz), rng.uniform(0, 2 * math.pi))
    w = cmath.rect(rng.uniform(0.2, 0.9) * r * abs(z) ** l,
                   rng.uniform(0, 2 * math.pi))
    return z, w


def test_monomial_inverse_identity_at_n0():
    z, w = 0.3 + 0.1j, 0.2 - 0.4j
    assert monomial_inverse(2, 1, 3, 1.0, 1.0, 0, z, w, []) == (z, w)


@pytest.mark.parametrize("delta,gamma,d,a,b", [
    (2, 1, 3, 1.0, 1.0),
    (3, 1, 2, 1.0, 1.0),
    (2, 1, 2, 0.7 + 0.2j, 1.3 - 0.4j),
])
def test_monomial_inverse_round_trip(delta, gamma, d, a, b):
    f0 = monomial_skew(delta, gamma, d, a, b)
    rng = random.Random(4)
    for _ in range(20):
        z = cmath.rect(rng.uniform(0.05, 0.3), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.05, 0.3), rng.uniform(0, 2 * math.pi))
        orbit = iterate(f0, z, w, 8)
        refs = [(p.z, p.w) for p in orbit]
        for n in range(1, len(orbit)):
            zn, wn = refs[n]
            if min(abs(zn), abs(wn)) < 1e-250:
                break
            back = monomial_inverse(delta, gamma, d, a, b, n, zn, wn, refs)
            assert abs(back[0] - z) < 1e-12 * max(abs(z), 1)
            assert abs(back[1] - w) < 1e-12 * max(abs(w), 1)


def test_bottcher_identity_on_monomial():
    f0 = monomial_skew(2, 1, 3)
    c = classify(f0)
    est = bottcher(f0, c, 0.05 + 0.02j, 0.03 - 0.01j)
    assert abs(est.phi1 - (0.05 + 0.02j)) < 1e-14
    assert abs(est.phi2 - (0.03 - 0.01j)) < 1e-14
    assert est.conj_residual < 1e-14


def test_bottcher_rejects_d0():
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(1, 3): 1.0, (5, 0): 1.0}))
    c = classify(f)
    assert c.d == 0
    with pytest.raises(ValueError):
        bottcher(f, c, 0.01, 0.001)


# f(z, w) has finite parts whose modulus overflows, where abs() raises OverflowError
HUGE_MODULUS = [
    (SkewProduct(UniPoly({2: 1.5e308 + 1.5e308j}), BiPoly({(0, 2): 1.0})), (1.0, 0.5)),
    (SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.5e308 + 1.5e308j})), (0.5, 1.0)),
]


@pytest.mark.parametrize("f, point", HUGE_MODULUS)
def test_bottcher_refuses_an_orbit_whose_modulus_overflows(f, point):
    with pytest.raises(ValueError, match=r"^orbit left the float range at step 1$"):
        bottcher(f, classify(f), *point)


def _extreme_maps(seed, count):
    """Seeded maps with coefficients of modulus 1e-300..1e300 and exponents up to 8."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        def coeff():
            return cmath.rect(10.0 ** rng.uniform(-300, 300), rng.uniform(0, 2 * math.pi))
        delta = rng.randint(2, 8)
        p = {delta: coeff()}
        if rng.random() < 0.5:
            p[rng.randint(delta + 1, 9)] = coeff()
        q = {(rng.randint(0, 8), rng.randint(0, 8)): coeff() for _ in range(rng.randint(1, 4))}
        try:
            f = SkewProduct(UniPoly(p), BiPoly(q))
            out.append((f, classify(f)))
        except ValueError:
            continue
    return out


EXTREME_POINTS = [(0.3 + 0.1j, 0.2 - 0.1j), (0j, 0.5), (0.5, 0j), (1e-200, 1e200),
                  (1e150j, 1e-150), (1.5e308 + 1.5e308j, 0.5), (0.7, 1e308 + 1e308j)]


def test_bottcher_ends_extreme_coefficients_in_a_value_error():
    # a root, power or quotient of the inverse branch past the double range
    # (OverflowError, ZeroDivisionError) ends as the orbit's float-range refusal
    left = 0
    for f, c in _extreme_maps(3, 400):
        for z, w in EXTREME_POINTS:
            for n_max in (0, 1, 64):
                try:
                    bottcher(f, c, z, w, n_max=n_max)
                except ValueError as exc:
                    left += str(exc).startswith("orbit left the float range")
    assert left >= 500


def test_bottcher_point_outside_wedge_errors():
    c = classify(CASE2_GT)
    wedge = wedge_u_l(c.l1, 0.01)
    with pytest.raises(ValueError, match="outside"):
        bottcher(CASE2_GT, c, 0.5, 0.5, wedge=wedge)


def _conj_sample(f, wedge_points, n=100, tol_resid=1e-8):
    c = classify(f)
    worst = 0.0
    for z, w in wedge_points:
        est = bottcher(f, c, z, w, n_max=28, tol=1e-13)
        worst = max(worst, est.conj_residual)
    assert worst < tol_resid, worst
    return worst


def test_bottcher_conjugacy_case2_delta_lt_d():
    rng = random.Random(21)
    c = classify(CASE2_LT)
    pts = [_sample_u_l(rng, float(c.l1), 0.05) for _ in range(100)]
    _conj_sample(CASE2_LT, pts)


def test_bottcher_conjugacy_case2_delta_gt_d():
    rng = random.Random(22)
    c = classify(CASE2_GT)
    pts = [_sample_u_l(rng, 0.75, 0.05) for _ in range(100)]
    _conj_sample(CASE2_GT, pts)


def test_bottcher_conjugacy_case3():
    rng = random.Random(23)
    c = classify(CASE3_EX)
    assert c.case.value == 3 and c.d == 2
    l2 = float(c.l2)
    pts = []
    r = 0.05
    for _ in range(100):
        w = cmath.rect(rng.uniform(0.3, 0.9) * r, rng.uniform(0, 2 * math.pi))
        z = cmath.rect(rng.uniform(0.05, 0.8) * r * abs(w) ** (1 / l2),
                       rng.uniform(0, 2 * math.pi))
        pts.append((z, w))
    _conj_sample(CASE3_EX, pts)


def test_bottcher_conjugacy_case4():
    rng = random.Random(24)
    c = classify(CASE4_EX)
    l1, l2 = float(c.l1), float(c.l2)
    r = 0.05
    pts = []
    for _ in range(100):
        top = math.log(r) * (1 + 1 / l2)
        lz = top - rng.uniform(0.2, 2.0)
        z = cmath.rect(math.exp(lz), rng.uniform(0, 2 * math.pi))
        hi = r * abs(z) ** l1
        lo = abs(z) ** (l1 + l2) / r**l2
        wa = lo + rng.uniform(0.3, 0.9) * (hi - lo)
        pts.append((z, cmath.rect(wa, rng.uniform(0, 2 * math.pi))))
    _conj_sample(CASE4_EX, pts)


def test_modulus_consistency():
    # log|phi1| = G_p; log|phi2/phi1^alpha| = G_z^alpha (delta < d);
    # log|phi2| = G_z^infty (delta = d)
    rng = random.Random(25)
    c = classify(CASE2_LT)
    alpha = float(c.alpha)
    for _ in range(20):
        z, w = _sample_u_l(rng, float(c.l1), 0.05)
        est = bottcher(CASE2_LT, c, z, w, n_max=28, tol=1e-13)
        gp = g_p(CASE2_LT.p, z, 72, 1e-13)
        assert abs(math.log(abs(est.phi1)) - gp.value) < 1e-8
        gza = g_z_alpha(CASE2_LT, c, z, w, 72, 1e-13)
        lhs = math.log(abs(est.phi2)) - alpha * math.log(abs(est.phi1))
        assert abs(lhs - gza.value) < 1e-8

    f_eq = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 4): 1.0, (1, 2): 1.0}))
    c_eq = classify(f_eq)
    assert c_eq.delta == c_eq.d
    for _ in range(20):
        z, w = _sample_u_l(rng, float(c_eq.l1), 0.05)
        est = bottcher(f_eq, c_eq, z, w, n_max=28, tol=1e-13)
        gzi = g_z_infty(f_eq, c_eq, z, w, 72, 1e-13)
        assert abs(math.log(abs(est.phi2)) - gzi.value) < 1e-8


def test_phi_near_identity_as_r_shrinks():
    rng = random.Random(26)
    c = classify(CASE2_GT)
    devs = []
    for r in (1e-2, 1e-3, 1e-4):
        worst = 0.0
        for k in range(30):
            ang = 2 * math.pi * k / 30
            z = cmath.rect(0.5 * r, ang)
            w = cmath.rect(0.5 * r * abs(z) ** 0.75, -ang)
            est = bottcher(CASE2_GT, c, z, w, n_max=28, tol=1e-14)
            worst = max(worst, est.id_deviation)
        devs.append(worst)
    assert devs[0] > devs[1] > devs[2]
    del rng
