"""Newton polygon, intercepts, and the Case 1-4 classification."""

import random
from fractions import Fraction

from skewdyn import (
    BiPoly,
    Case,
    SkewProduct,
    UniPoly,
    alpha_redefined,
    classify,
    monomial_skew,
    newton_polygon,
)
from skewdyn.newton import newton_polygon_bruteforce


def _skew(delta, support):
    return SkewProduct(UniPoly({delta: 1.0}), BiPoly({pt: 1.0 for pt in support}))


def test_polygon_two_vertices_example():
    np_ = newton_polygon(BiPoly({(1, 3): 1.0, (2, 2): 1.0}))
    assert np_.vertices == ((1, 3), (2, 2))
    assert np_.intercepts == (Fraction(4),)


def test_polygon_single_term():
    np_ = newton_polygon(BiPoly({(3, 5): 1.0}))
    assert np_.vertices == ((3, 5),)
    assert np_.intercepts == ()


def test_polygon_dominated_point_dropped():
    np_ = newton_polygon(BiPoly({(0, 4): 1.0, (2, 1): 1.0, (3, 0): 1.0, (5, 5): 1.0}))
    assert np_.vertices == ((0, 4), (2, 1), (3, 0))
    assert np_.intercepts == (Fraction(4), Fraction(3))
    # brute-force oracle agrees
    oracle = newton_polygon_bruteforce([(0, 4), (2, 1), (3, 0), (5, 5)])
    assert oracle.vertices == np_.vertices
    assert oracle.intercepts == np_.intercepts


def test_hull_oracle_equivalence_random():
    rng = random.Random(99)
    grid = [(i, j) for i in range(10) for j in range(10)]
    for _ in range(300):
        support = rng.sample(grid, rng.randint(1, 12))
        fast = newton_polygon(BiPoly({pt: 1.0 for pt in support}))
        slow = newton_polygon_bruteforce(support)
        assert fast.vertices == slow.vertices
        assert fast.intercepts == slow.intercepts
        # intercepts strictly decreasing
        assert all(a > b for a, b in zip(fast.intercepts, fast.intercepts[1:]))
        # every vertex in support, every support point inside or on the hull
        assert set(fast.vertices) <= set(support)


def test_classify_case2_d_zero_example():
    c = classify(_skew(2, [(0, 4), (2, 1), (3, 0)]))
    assert c.case is Case.CASE2
    assert c.primary.vertex == (3, 0)
    assert c.l1 == 1
    assert c.alpha == Fraction(3, 2)
    assert c.lam == 2
    assert c.c_infinity == 2
    assert not c.two_dominant_terms


def test_classify_two_dominant_terms_example():
    c = classify(_skew(4, [(1, 3), (2, 2)]))
    assert c.two_dominant_terms
    first, second = c.terms
    assert first.vertex == (1, 3) and first.case is Case.CASE3
    assert second.vertex == (2, 2) and second.case is Case.CASE2
    # alpha depends only on f
    assert first.alpha == second.alpha == 1


def test_classify_case1_single_vertex():
    c = classify(_skew(2, [(1, 3)]))
    assert c.case is Case.CASE1
    assert c.primary.vertex == (1, 3)
    assert c.l1 == 0
    assert c.l2 is None  # +infinity sentinel: U is a bidisk
    assert c.alpha == Fraction(1, 2 - 3)


def test_classify_case3():
    c = classify(_skew(5, [(1, 3), (2, 2)]))
    assert c.case is Case.CASE3
    assert c.primary.vertex == (1, 3)
    assert c.l1 == 0
    assert c.l2 == 1
    assert c.alpha == Fraction(1, 2)


def test_classify_case4():
    c = classify(_skew(3, [(0, 5), (1, 2), (3, 1)]))
    assert c.case is Case.CASE4
    assert c.primary.vertex == (1, 2)
    assert c.l1 == Fraction(1, 3)
    assert c.l1 + c.l2 == 2
    assert c.alpha == 1


def test_alpha_redefined_examples():
    # q = w^2 + z w at delta = 2: alpha = l_2 = 1
    np_ = newton_polygon(BiPoly({(0, 2): 1.0, (1, 1): 1.0}))
    assert alpha_redefined(np_, 2) == 1
    # single vertex (3, 0) at delta = 2: gamma/(delta - d) = 3/2
    np_ = newton_polygon(BiPoly({(3, 0): 1.0}))
    assert alpha_redefined(np_, 2) == Fraction(3, 2)
    # bare (0, delta): boundary of the sweep
    np_ = newton_polygon(BiPoly({(0, 2): 1.0}))
    assert alpha_redefined(np_, 2) == 0


def test_alpha_redefined_sweep_oracle():
    # oracle: explicit rational-line sweep over candidate slopes
    rng = random.Random(5)
    grid = [(i, j) for i in range(8) for j in range(8)]
    for _ in range(150):
        support = rng.sample(grid, rng.randint(1, 8))
        np_ = newton_polygon(BiPoly({pt: 1.0 for pt in support}))
        delta = rng.randint(2, 9)
        got = alpha_redefined(np_, delta)
        candidates = [Fraction(i, delta - j) for (i, j) in support if j < delta]
        if candidates:
            assert got == min(candidates)
        elif np_.vertices == ((0, delta),):
            assert got == 0
        else:
            assert got is None


def test_alpha_consistency_with_dominant_vertex():
    rng = random.Random(8)
    grid = [(i, j) for i in range(8) for j in range(8) if i + j >= 2 or (i, j) == (1, 0)]
    checked = 0
    for _ in range(300):
        support = rng.sample(grid, rng.randint(1, 6))
        delta = rng.randint(2, 7)
        f = _skew(delta, support)
        c = classify(f)
        gamma, d = c.primary.vertex
        if delta > d:
            assert c.alpha == Fraction(gamma, delta - d)
            checked += 1
    assert checked > 50


def test_case_partition():
    rng = random.Random(21)
    grid = [(i, j) for i in range(8) for j in range(8) if i + j >= 2 or (i, j) == (1, 0)]
    for _ in range(400):
        support = rng.sample(grid, rng.randint(1, 9))
        delta = rng.randint(2, 8)
        c = classify(_skew(delta, support))
        np_ = c.npoly
        s = np_.s
        T = np_.intercepts
        if c.two_dominant_terms:
            assert any(t == delta for t in T)
            cases = {t.case for t in c.terms}
            assert len(c.terms) == 2
            assert cases <= {Case.CASE2, Case.CASE3, Case.CASE4}
        else:
            preds = []
            preds.append(s == 1)
            preds.append(s > 1 and delta <= T[s - 2])
            preds.append(s > 1 and delta >= T[0])
            preds.append(s > 2 and any(
                T[k - 1] <= delta <= T[k - 2] for k in range(2, s)))
            assert sum(map(bool, preds)) == 1
            assert preds[c.case.value - 1]


def test_monomial_cases():
    assert classify(monomial_skew(2, 1, 3)).case is Case.CASE1
    assert classify(monomial_skew(3, 0, 2)).case is Case.CASE1


def test_classification_stores_its_primary_terms_gamma_d_alpha():
    # read on every query, they are fields set once, outside repr and equality
    import dataclasses

    c = classify(_skew(3, [(0, 4), (1, 2)]))
    assert (c.gamma, c.d, c.alpha) == (c.primary.gamma, c.primary.d, c.primary.alpha) == (1, 2, 1)
    shown = [f.name for f in dataclasses.fields(c) if f.repr or f.compare]
    assert shown == ["delta", "npoly", "terms", "lam", "c_infinity", "flags"]
    two = classify(_skew(4, [(1, 3), (2, 2)]))
    swapped = dataclasses.replace(two, terms=two.terms[::-1])
    assert (two.d, swapped.d) == (3, 2) and dataclasses.replace(two) == two
