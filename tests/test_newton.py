"""Newton polygon, intercepts, and the Case 1-4 classification."""

import random
from fractions import Fraction

from skewdyn import (
    BiPoly,
    Case,
    Classification,
    DominantTerm,
    NewtonPolygon,
    SkewProduct,
    UniPoly,
    alpha_redefined,
    classify,
    monomial_skew,
    newton_polygon,
)
from skewdyn import newton
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


def _reference_classification(f):
    """classify(f) as the Fraction formulas build it: T_k = m_k + n_k (m_k - m_{k+1})/(n_{k+1}
    - n_k), l2 = edge_weight(k) - l1, and the case picked by comparing delta with each T_k."""
    verts = tuple(newton._lower_hull(newton._staircase(list(f.q.support))))
    T = tuple(Fraction(m1) + Fraction(n1) * Fraction(m1 - m2, n2 - n1)
              for (n1, m1), (n2, m2) in zip(verts, verts[1:]))
    npoly = NewtonPolygon(verts, T)
    delta, s = f.delta, len(verts)

    def term(k, case):
        gamma, d = verts[k - 1]
        if case is Case.CASE1:
            l1, l2 = Fraction(0), None
        elif case is Case.CASE2:
            l1, l2 = npoly.edge_weight(s - 1), None
        elif case is Case.CASE3:
            l1, l2 = Fraction(0), npoly.edge_weight(1)
        else:
            l1 = npoly.edge_weight(k - 1)
            l2 = npoly.edge_weight(k) - l1
        if delta != d:
            alpha = Fraction(gamma, delta - d)
        else:
            alpha = alpha_redefined(npoly, delta) if gamma == 0 else None
        return DominantTerm((gamma, d), case, k, l1, l2, alpha)

    if s == 1:
        terms = [term(1, Case.CASE1)]
    elif any(t == delta for t in T):
        k = T.index(delta) + 1
        terms = [term(k, Case.CASE3 if k == 1 else Case.CASE4),
                 term(k + 1, Case.CASE2 if k + 1 == s else Case.CASE4)]
    elif delta < T[-1]:
        terms = [term(s, Case.CASE2)]
    elif delta > T[0]:
        terms = [term(1, Case.CASE3)]
    else:
        terms = [term(next(k for k in range(2, s) if T[k - 1] < delta < T[k - 2]), Case.CASE4)]
    gamma, d = terms[0].vertex
    flags = {"two_dominant_terms": len(terms) == 2,
             "first_vertex_is_0_delta": verts[0] == (0, delta),
             "d_ge_2": d >= 2, "gamma_positive": gamma > 0}
    return Classification(delta, npoly, tuple(terms), max(delta, d),
                          delta if (gamma > 0 or delta <= d) else d, flags)


def _fraction_types(c):
    return [type(x) for x in c.npoly.intercepts] + [
        (type(t.l1), type(t.l2), type(t.alpha)) for t in c.terms]


def test_classify_matches_the_fraction_reference():
    # 20,000 random supports and delta, and delta = T_k at every integer
    # intercept T_k >= 2 of those polygons: the boundary with two dominant terms
    rng = random.Random(28)
    grid = [(i, j) for i in range(12) for j in range(12) if i + j >= 2 or (i, j) == (1, 0)]
    seen = set()

    def check(delta, support):
        f = _skew(delta, support)
        fast, ref = classify(f), _reference_classification(f)
        assert repr(fast) == repr(ref) and fast == ref, (delta, support)
        assert _fraction_types(fast) == _fraction_types(ref), (delta, support)
        seen.add(tuple(t.case.value for t in fast.terms))
        return fast.npoly.intercepts

    boundaries = 0
    for _ in range(20_000):
        support = rng.sample(grid, rng.randint(1, 10))
        for t in check(rng.randint(2, 14), support):
            if t.denominator == 1 and t >= 2:
                check(int(t), support)
                boundaries += 1
    assert boundaries > 5_000
    assert seen == {(1,), (2,), (3,), (4,), (3, 2), (3, 4), (4, 2), (4, 4)}
