"""Polynomials, skew products, orbits."""

import random
from fractions import Fraction

import pytest

from skewdyn import (
    BiPoly,
    SkewProduct,
    UniPoly,
    eval_skew,
    iterate,
    monomial_skew,
)
from skewdyn.algebra import monomial_orbit_closed_form


def test_eval_monomial_direct():
    f = monomial_skew(2, 1, 3)
    assert eval_skew(f, 0.5, 0.5) == (0.25, 0.0625)


def test_eval_z_axis_degenerated():
    f = monomial_skew(2, 1, 3)
    assert eval_skew(f, 0.0, 1.0) == (0.0, 0.0)


def test_eval_two_terms_sum():
    # oracle: independent term-by-term evaluation
    q = BiPoly({(1, 3): 1.0, (2, 2): 1.0})
    f = SkewProduct(UniPoly({2: 1.0}), q)
    z, w = 1.0 + 0j, 1.0 + 0j
    expected_q = sum(c * z**i * w**j for (i, j), c in q.terms.items())
    pz, qzw = eval_skew(f, z, w)
    assert pz == f.p(z)
    assert qzw == expected_q == 2.0


def test_iterate_hand_values():
    f = monomial_skew(2, 1, 3)
    orbit = iterate(f, 0.5, 0.5, 2)
    pts = [(p.z, p.w) for p in orbit]
    assert pts == [(0.5, 0.5), (0.25, 0.0625), (0.0625, 6.103515625e-05)]


def test_iterate_zero_steps():
    f = monomial_skew(2, 0, 2)
    orbit = iterate(f, 0.3 + 0.1j, -0.2j, 0)
    assert len(orbit) == 1
    assert (orbit[0].z, orbit[0].w) == (0.3 + 0.1j, -0.2j)


def test_iterate_truncates_on_escape():
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (2, 0): 2.0}))
    # orbit of w under w^2 + 2 z^... : at z=0 fiber w -> w^2, start on z-axis
    # with explicit constant-free map: use (z^2, w^2 + 2) is not nilpotent,
    # so drive escape through large w directly.
    orbit = iterate(f, 0.0, 2.0, 10, escape_radius=10.0)
    assert orbit[-1].escaped
    assert len(orbit) <= 11
    # consistency with eval_skew on the non-truncated prefix
    for a, b in zip(orbit, orbit[1:]):
        assert eval_skew(f, a.z, a.w) == (b.z, b.w)


def test_iterate_escape_example_w_squared_plus_two():
    # w-orbit 2 -> 6 -> 38 > 10 under q(0, w) = w^2 + 2 z^0... realized with
    # a fiber map w^2 + 2z at z where 2z = 2: not nilpotent-safe; instead
    # check the documented example map on the w-axis via a shifted var.
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (1, 0): 2.0}))
    orbit = iterate(f, 1.0, 2.0, 10, escape_radius=10.0)
    # w_1 = 4 + 2 = 6, z_1 = 1; w_2 = 36 + 2 = 38 breaches
    assert [round(abs(p.w), 6) for p in orbit[:3]] == [2.0, 6.0, 38.0]
    assert orbit[2].escaped and orbit[2].n == 2


def test_rational_arithmetic_exact():
    rng = random.Random(3)
    for _ in range(200):
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a + b) + c == a + (b + c)
        if a != 0:
            assert a / a == 1


@pytest.mark.parametrize("delta,gamma,d", [(2, 1, 3), (3, 1, 2), (2, 1, 2)])
def test_monomial_closed_form_oracle(delta, gamma, d):
    f = monomial_skew(delta, gamma, d)
    rng = random.Random(17)
    for _ in range(20):
        z = complex(rng.uniform(0.3, 0.9), rng.uniform(-0.3, 0.3))
        w = complex(rng.uniform(0.3, 0.9), rng.uniform(-0.3, 0.3))
        orbit = iterate(f, z, w, 6)
        for pt in orbit:
            if not 1e-300 < min(abs(pt.z), abs(pt.w)) and pt.n > 0:
                break
            zn, wn = monomial_orbit_closed_form(delta, gamma, d, z, w, pt.n)
            if max(abs(zn), abs(wn)) > 1e300 or min(abs(zn), abs(wn)) < 1e-300:
                break
            assert abs(pt.z - zn) <= 1e-12 * abs(zn)
            assert abs(pt.w - wn) <= 1e-12 * abs(wn)


def test_nilpotent_constraint_enforced():
    with pytest.raises(ValueError):
        SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 1): 1.0}))
    with pytest.raises(ValueError):
        SkewProduct(UniPoly({1: 1.0}), BiPoly({(1, 3): 1.0}))
    # (1, 0) is the allowed linear term
    SkewProduct(UniPoly({2: 1.0}), BiPoly({(1, 0): 1.0, (0, 2): 1.0}))


def test_polynomials_immutable_and_clean():
    p = UniPoly({2: 1.0, 5: 0.0})
    assert list(p.terms) == [2]
    q = BiPoly({(1, 3): 1.0, (2, 2): 0.0})
    assert q.support == ((1, 3),)
    with pytest.raises(AttributeError):
        p.terms = {}


def test_unipoly_rejects_a_non_integer_exponent():
    # int() would truncate 2.7 to 2 and drop the z^2 term into its place
    with pytest.raises(ValueError, match="non-integer exponent 2.7"):
        UniPoly({2: 1.0, 2.7: 3.0})
    with pytest.raises(ValueError, match="non-integer exponent"):
        UniPoly({Fraction(5, 2): 1.0})
    assert UniPoly({2.0: 1.0, Fraction(3): 2.0}).terms == {2: 1 + 0j, 3: 2 + 0j}
    assert all(type(k) is int for k in UniPoly({2.0: 1.0}).terms)


def test_bipoly_rejects_a_non_integer_exponent():
    with pytest.raises(ValueError, match="non-integer exponent 1.9"):
        BiPoly({(1, 2): 1.0, (1.9, 2): 5.0})
    with pytest.raises(ValueError, match="non-integer exponent"):
        BiPoly({(1, Fraction(1, 2)): 1.0})
    with pytest.raises(ValueError, match="negative exponent pair"):
        BiPoly({(1.0, -2): 1.0})
    assert BiPoly({(1.0, 2): 1.0}).support == ((1, 2),)
    assert all(type(i) is int is type(j) for i, j in BiPoly({(1.0, 2.0): 1.0}).support)
