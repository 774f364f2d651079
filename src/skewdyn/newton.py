"""Newton polygon of q and the Case 1-4 classification of a skew product.

The Newton polygon N(q) is the convex hull of the union of upper-right
quadrants D(i, j) = {x >= i, y >= j} over the support of q.  Its boundary
staircase has vertices (n_1, m_1), ..., (n_s, m_s) with n_k strictly
increasing and m_k strictly decreasing, and T_k is the y-intercept of the
line L_k through consecutive vertices.

Comparing the order delta of p with the intercepts selects the dominant
term b_{gamma d} z^gamma w^d of q and one of four cases:

    Case 1:  s == 1
    Case 2:  s > 1 and delta <= T_{s-1}   (dominant (n_s, m_s))
    Case 3:  s > 1 and delta >= T_1       (dominant (n_1, m_1))
    Case 4:  s > 2 and T_k <= delta <= T_{k-1}, 2 <= k <= s-1

All geometry is exact rational arithmetic; the boundary equalities
delta == T_k matter and must not suffer rounding.  When delta == T_k the
map has two dominant terms, each with its own case; the (n_k, m_k) one is
listed first and used as the default downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import BiPoly, Rational, SkewProduct


class Case(enum.Enum):
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3
    CASE4 = 4

    def __str__(self) -> str:
        return f"Case{self.value}"


@dataclass(frozen=True)
class NewtonPolygon:
    """Vertex chain and exact intercepts of N(q)."""

    vertices: tuple[tuple[int, int], ...]
    intercepts: tuple[Rational, ...]  # T_1 > T_2 > ... > T_{s-1}

    @property
    def s(self) -> int:
        return len(self.vertices)

    def edge_weight(self, k: int) -> Rational:
        """The weight (n_{k+1} - n_k)/(m_k - m_{k+1}) of edge L_k (1-based)."""
        (n1, m1), (n2, m2) = self.vertices[k - 1], self.vertices[k]
        return Fraction(n2 - n1, m1 - m2)


def _staircase(support: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Pareto-minimal points of the support, sorted by (i, j)."""
    pts = sorted(set(support))
    keep = []
    best_j = None
    for i, j in pts:  # ascending i, then j: first j per i is the minimal one
        if keep and keep[-1][0] == i:
            continue
        if best_j is not None and j >= best_j:
            continue
        keep.append((i, j))
        best_j = j
    return keep


def _lower_hull(stairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Strict lower-left convex hull of a staircase (collinear points dropped)."""
    hull: list[tuple[int, int]] = []
    for p in stairs:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # cross <= 0: hull[-1] on or above segment hull[-2] -> p.
            cross = (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1)
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def newton_polygon(q: BiPoly) -> NewtonPolygon:
    """Compute N(q): the staircase vertices and exact intercepts T_k."""
    support = list(q.support)
    if not support:
        raise ValueError("q has empty support")
    verts = _lower_hull(_staircase(support))
    intercepts = []
    for k in range(len(verts) - 1):
        (n1, m1), (n2, m2) = verts[k], verts[k + 1]
        # T_k = m_k + n_k (m_k - m_{k+1})/(n_{k+1} - n_k).
        intercepts.append(Fraction(m1) + Fraction(n1) * Fraction(m1 - m2, n2 - n1))
    return NewtonPolygon(tuple(verts), tuple(intercepts))


def newton_polygon_bruteforce(support: list[tuple[int, int]]) -> NewtonPolygon:
    """O(n^3) oracle: pairwise Pareto filter, then a triple vertex test.

    Independent of the staircase-plus-hull pass above; used by tests only.
    """
    pts = sorted(set(support))
    if not pts:
        raise ValueError("empty support")
    minimal = []
    for p in pts:
        dominated = any(
            o != p and o[0] <= p[0] and o[1] <= p[1] for o in pts
        )
        if not dominated:
            minimal.append(p)
    verts = []
    for p in minimal:
        interior = False
        for a in minimal:
            for b in minimal:
                if a[0] < p[0] < b[0]:
                    # p strictly above or on segment a-b => not a vertex.
                    cross = (b[0] - a[0]) * (p[1] - a[1]) - (p[0] - a[0]) * (b[1] - a[1])
                    if cross >= 0:
                        interior = True
        if not interior:
            verts.append(p)
    verts.sort()
    intercepts = tuple(
        Fraction(m1) + Fraction(n1) * Fraction(m1 - m2, n2 - n1)
        for (n1, m1), (n2, m2) in zip(verts, verts[1:])
    )
    return NewtonPolygon(tuple(verts), intercepts)


def alpha_redefined(npoly: NewtonPolygon, delta: int) -> Optional[Rational]:
    """Minimal l >= 0 such that the line x + l y - l delta = 0 meets N(q).

    The rotating line pivots at (0, delta); the first vertex it reaches is
    the one minimizing i/(delta - j) over vertices below height delta, so

        alpha = min { i/(delta - j) : (i, j) vertex, j < delta }.

    This equals gamma/(delta - d) whenever delta > d at the dominant
    vertex and equals l_2 = n_2/(delta - m_2) when gamma = 0 and
    delta = d.  Returns 0 for the bare polygon {(0, delta)} (the sweep
    starts on it) and None when every vertex sits at height > delta,
    where no line with l >= 0 can reach the polygon.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    candidates = [
        Fraction(i, delta - j) for (i, j) in npoly.vertices if j < delta
    ]
    if candidates:
        return min(candidates)
    if npoly.vertices == ((0, delta),):
        return Fraction(0)
    return None


@dataclass(frozen=True)
class DominantTerm:
    """One dominant vertex of N(q) with its case data.

    ``l2`` is None for the +infinity sentinel (Cases 1 and 2).  ``alpha``
    is None only in the gamma > 0, delta == d regime where neither
    gamma/(delta - d) nor the sweep redefinition applies.
    """

    vertex: tuple[int, int]
    case: Case
    k: int  # 1-based index of the vertex in the polygon chain
    l1: Rational
    l2: Optional[Rational]
    alpha: Optional[Rational]

    @property
    def gamma(self) -> int:
        return self.vertex[0]

    @property
    def d(self) -> int:
        return self.vertex[1]


@dataclass(frozen=True)
class Classification:
    """Case data for a skew product; mirrors the first dominant term.

    gamma, d and alpha, the primary term's, are read on every query, so
    they are stored once; they stay out of repr and equality.
    """

    delta: int
    npoly: NewtonPolygon
    terms: tuple[DominantTerm, ...]
    lam: int  # asymptotic normalizer max{delta, d}
    c_infinity: int
    flags: dict
    gamma: int = field(init=False, repr=False, compare=False)
    d: int = field(init=False, repr=False, compare=False)
    alpha: Optional[Rational] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("gamma", "d", "alpha"):
            object.__setattr__(self, name, getattr(self.terms[0], name))

    @property
    def primary(self) -> DominantTerm:
        return self.terms[0]

    @property
    def case(self) -> Case:
        return self.primary.case

    @property
    def l1(self) -> Rational:
        return self.primary.l1

    @property
    def l2(self) -> Optional[Rational]:
        return self.primary.l2

    @property
    def two_dominant_terms(self) -> bool:
        return len(self.terms) == 2


def _term_for_vertex(npoly: NewtonPolygon, delta: int, k: int, case: Case) -> DominantTerm:
    verts = npoly.vertices
    gamma, d = verts[k - 1]
    if case is Case.CASE1:
        l1, l2 = Fraction(0), None
    elif case is Case.CASE2:
        l1 = npoly.edge_weight(npoly.s - 1)
        l2 = None
    elif case is Case.CASE3:
        l1 = Fraction(0)
        l2 = npoly.edge_weight(1)
    else:
        l1 = npoly.edge_weight(k - 1)
        l2 = npoly.edge_weight(k) - l1
    if delta != d:
        alpha = Fraction(gamma, delta - d)
    elif gamma == 0:
        alpha = alpha_redefined(npoly, delta)
    else:
        alpha = None  # gamma > 0, delta == d: use G_z^infty instead
    return DominantTerm(vertex=(gamma, d), case=case, k=k, l1=l1, l2=l2, alpha=alpha)


def classify(f: SkewProduct) -> Classification:
    """Classify f into Cases 1-4 with dominant term(s) and derived constants."""
    npoly = newton_polygon(f.q)
    delta = f.delta
    s = npoly.s
    terms: list[DominantTerm]
    if s == 1:
        terms = [_term_for_vertex(npoly, delta, 1, Case.CASE1)]
    else:
        T = npoly.intercepts
        boundary_k = next((k for k in range(1, s) if T[k - 1] == delta), None)
        if boundary_k is not None:
            # Two dominant terms: vertex k in Case 3/4, vertex k+1 in Case 2/4.
            k = boundary_k
            upper_case = Case.CASE3 if k == 1 else Case.CASE4
            lower_case = Case.CASE2 if k + 1 == s else Case.CASE4
            terms = [
                _term_for_vertex(npoly, delta, k, upper_case),
                _term_for_vertex(npoly, delta, k + 1, lower_case),
            ]
        elif delta < T[s - 2]:
            terms = [_term_for_vertex(npoly, delta, s, Case.CASE2)]
        elif delta > T[0]:
            terms = [_term_for_vertex(npoly, delta, 1, Case.CASE3)]
        else:
            k = next(k for k in range(2, s) if T[k - 1] < delta < T[k - 2])
            terms = [_term_for_vertex(npoly, delta, k, Case.CASE4)]
    prim = terms[0]
    gamma, d = prim.vertex
    lam = max(delta, d)
    c_inf = delta if (gamma > 0 or delta <= d) else d
    flags = {
        "two_dominant_terms": len(terms) == 2,
        "first_vertex_is_0_delta": npoly.vertices[0] == (0, delta),
        "d_ge_2": d >= 2,
        "gamma_positive": gamma > 0,
    }
    return Classification(
        delta=delta,
        npoly=npoly,
        terms=tuple(terms),
        lam=lam,
        c_infinity=c_inf,
        flags=flags,
    )


def classification_report(f: SkewProduct, c: Classification | None = None) -> str:
    """Stable key:value text report for the `analyze` CLI subcommand."""
    if c is None:
        c = classify(f)
    lines = []
    lines.append(f"delta: {c.delta}")
    lines.append("vertices: " + " ".join(f"({n},{m})" for n, m in c.npoly.vertices))
    lines.append(
        "intercepts: " + (" ".join(str(t) for t in c.npoly.intercepts) or "none")
    )
    for idx, t in enumerate(c.terms):
        prefix = "" if idx == 0 else f"alt{idx}_"
        lines.append(f"{prefix}case: {t.case}")
        lines.append(f"{prefix}gamma: {t.gamma}")
        lines.append(f"{prefix}d: {t.d}")
        lines.append(f"{prefix}l1: {t.l1}")
        lines.append(f"{prefix}l2: {t.l2 if t.l2 is not None else 'inf'}")
        lines.append(f"{prefix}alpha: {t.alpha if t.alpha is not None else 'undefined'}")
    lines.append(f"lambda: {c.lam}")
    lines.append(f"c_infinity: {c.c_infinity}")
    for name in sorted(c.flags):
        lines.append(f"flag_{name}: {str(c.flags[name]).lower()}")
    return "\n".join(lines)
