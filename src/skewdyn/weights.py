"""Weight intervals, the quantity D_l, and constructive invariance radii.

A weight l > 0 parametrizes the wedge family; the admissible weights form
an interval (Cases 2 and 3) or a rectangle (Case 4):

    Case 2:  I_f = [l_1, inf)            if delta <= d,
             I_f = [l_1, alpha]          if delta > d,
    Case 3:  I_f = [alpha, l_2]          if gamma > 0,
             I_f = (0, l_2]              if gamma = 0,
    Case 4:  I_f = [l_1, alpha] x [alpha, l_1+l_2] - {(alpha, alpha)}
             (with degenerate forms on the boundaries delta = T_k,
             delta = T_{k-1}),

where the rectangle lives in (l_(1), l_(1)+l_(2)) coordinates.

The quantity D_l = min { i/l + j : b_ij != 0 } is the y-intercept of the
lowest line of slope -1/l touching the support; D_l >= delta is what makes
the wedge U^l_{r1,r2} forward invariant, with the sufficient condition

    C r_1^(l (D - delta)) < r_2        (D > delta)
    2 C r_1^(l (D* - delta)) < r_2     (D = delta, plus a first-sum check)

for explicit constants assembled from the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import BiPoly, Rational, SkewProduct
from .newton import Case, Classification, DominantTerm, newton_polygon

_APPROX_BAND = 1e-12
_MAX_HALVINGS = 64   # invariance_radii halves r_1 at most this often


@dataclass(frozen=True)
class WeightInterval:
    """Interval of weights with exact endpoints; hi=None means +infinity."""

    lo: Rational
    hi: Optional[Rational]
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.hi is not None:
            if self.lo > self.hi:
                raise ValueError("empty interval")
            if self.lo == self.hi and (self.lo_open or self.hi_open):
                raise ValueError("degenerate open interval is empty")

    def contains(self, l) -> bool:
        """Membership; exact for Fraction/int, banded (1e-12) for floats."""
        if isinstance(l, float) and not l.is_integer():
            return self._contains_float(l)
        lv = Fraction(l) if not isinstance(l, Fraction) else l
        if l < self.lo or (self.lo_open and lv == self.lo):
            return False
        if self.hi is None:
            return True
        if lv > self.hi or (self.hi_open and lv == self.hi):
            return False
        return True

    def _contains_float(self, l: float) -> bool:
        # Approximate membership: a guard band around the exact endpoints.
        lo = float(self.lo)
        if l < lo - _APPROX_BAND or (self.lo_open and l <= lo + _APPROX_BAND):
            return False
        if self.hi is None:
            return True
        hi = float(self.hi)
        if l > hi + _APPROX_BAND or (self.hi_open and l >= hi - _APPROX_BAND):
            return False
        return True

    @property
    def is_singleton(self) -> bool:
        return self.hi is not None and self.lo == self.hi

    def __str__(self) -> str:
        lo_b = "(" if self.lo_open else "["
        hi_b = ")" if self.hi_open or self.hi is None else "]"
        hi_s = "inf" if self.hi is None else str(self.hi)
        return f"{lo_b}{self.lo}, {hi_s}{hi_b}"


@dataclass(frozen=True)
class WeightRectangle:
    """Case 4 weight rectangle in (l_(1), l_(1)+l_(2)) coordinates."""

    i1: WeightInterval
    alpha: Rational
    l1: Rational
    l1_plus_l2: Rational
    excluded_corner: Optional[tuple[Rational, Rational]]

    def i2_of(self, l_first: Rational) -> WeightInterval:
        """I_f^2(l_(1)) = [alpha - l_(1), l1 + l2 - l_(1)] intersect R_{>0}."""
        if not self.i1.contains(l_first):
            raise ValueError(f"l_(1)={l_first} outside I_f^1 {self.i1}")
        l_first = Fraction(l_first)
        lo = self.alpha - l_first
        hi = self.l1_plus_l2 - l_first
        if lo > 0:
            return WeightInterval(lo, hi)
        if hi <= 0:
            raise ValueError("I_f^2 is empty")
        return WeightInterval(Fraction(0), hi, lo_open=True)

    def contains(self, l_first, l_sum) -> bool:
        """Membership of (l_(1), l_(1)+l_(2)) in the rectangle."""
        if self.excluded_corner is not None and (l_first, l_sum) == self.excluded_corner:
            return False
        if not self.i1.contains(l_first):
            return False
        try:
            i2 = self.i2_of(Fraction(l_first))
        except ValueError:
            return False
        return i2.contains(Fraction(l_sum) - Fraction(l_first))

    def __str__(self) -> str:
        sides = f"{self.i1} x second-coordinate range [{self.alpha}, {self.l1_plus_l2}]"
        if self.excluded_corner is not None:
            sides += f" - {{({self.excluded_corner[0]}, {self.excluded_corner[1]})}}"
        return sides


@dataclass(frozen=True)
class DValue:
    """D_l with the attaining vertex (smallest j among attaining vertices)."""

    d_min: Rational
    attaining_vertex: tuple[int, int]
    attaining_points: tuple[tuple[int, int], ...]


def _require_case(term: DominantTerm, *cases: Case) -> None:
    if term.case not in cases:
        raise ValueError(f"operation requires {'/'.join(map(str, cases))}, got {term.case}")


def interval_case2(c: Classification, term: DominantTerm | None = None) -> WeightInterval:
    """I_f for a Case 2 (or Case 1) dominant term."""
    t = term if term is not None else c.primary
    _require_case(t, Case.CASE2, Case.CASE1)
    if c.delta <= t.d:
        return WeightInterval(t.l1, None)
    return WeightInterval(t.l1, t.alpha)


def interval_case3(c: Classification, term: DominantTerm | None = None) -> WeightInterval:
    """I_f for a Case 3 dominant term."""
    t = term if term is not None else c.primary
    _require_case(t, Case.CASE3)
    if t.gamma > 0:
        return WeightInterval(t.alpha, t.l2)
    return WeightInterval(Fraction(0), t.l2, lo_open=True)


def rectangle_case4(c: Classification, term: DominantTerm | None = None) -> WeightRectangle:
    """The Case 4 rectangle I_f in its three computed forms."""
    t = term if term is not None else c.primary
    _require_case(t, Case.CASE4)
    k = t.k
    T = c.npoly.intercepts
    t_k, t_km1 = T[k - 1], T[k - 2]
    alpha = t.alpha
    l1 = t.l1
    l12 = t.l1 + t.l2
    delta = Fraction(c.delta)
    if t_k < delta < t_km1:
        i1 = WeightInterval(l1, alpha)
        corner = (alpha, alpha)
    elif delta == t_k:
        i1 = WeightInterval(l1, alpha, hi_open=True)
        corner = None
    else:  # delta == t_km1, so l1 == alpha
        i1 = WeightInterval(alpha, alpha)
        corner = None
    return WeightRectangle(i1=i1, alpha=alpha, l1=l1, l1_plus_l2=l12,
                           excluded_corner=corner)


def weight_interval(c: Classification, term: DominantTerm | None = None):
    """Dispatch to the interval/rectangle of the term's case."""
    t = term if term is not None else c.primary
    if t.case in (Case.CASE1, Case.CASE2):
        return interval_case2(c, t)
    if t.case is Case.CASE3:
        return interval_case3(c, t)
    return rectangle_case4(c, t)


def d_value(q: BiPoly, l: Rational) -> DValue:
    """D_l = min { i/l + j } over the support of q, exactly.

    Ties lie on one line of slope -1/l; the reported attaining vertex is
    the polygon vertex with the smallest j among the attaining points
    (the (N, M) convention), with every attaining support point listed.
    """
    l = Fraction(l)
    if l <= 0:
        raise ValueError("weight l must be positive")
    values = {(i, j): Fraction(i, 1) / l + j for (i, j) in q.support}
    d_min = min(values.values())
    attaining = tuple(sorted(p for p, v in values.items() if v == d_min))
    verts = set(newton_polygon(q).vertices)
    vertex_hits = [p for p in attaining if p in verts]
    best = min(vertex_hits, key=lambda p: (p[1], p[0]))
    return DValue(d_min=d_min, attaining_vertex=best, attaining_points=attaining)


def d_star(q: BiPoly, l: Rational, *, exclude_vertex: tuple[int, int] | None = None,
           exclude_line_delta: int | None = None) -> Rational:
    """The strict minimum D* used when D_l = delta.

    Either excludes one vertex (usually the dominant term) or every support
    point on the line i + l j = l delta.
    """
    l = Fraction(l)
    best = None
    for (i, j) in q.support:
        if exclude_vertex is not None and (i, j) == exclude_vertex:
            continue
        if exclude_line_delta is not None and i + l * j == l * exclude_line_delta:
            continue
        v = Fraction(i) / l + j
        if best is None or v < best:
            best = v
    if best is None:
        raise ValueError("no support points left after exclusion")
    return best


def _p_lower_constant(f: SkewProduct, r1: float) -> float:
    """C1 with |p(z)| >= C1 |z|^delta on |z| < r1, or 0 if r1 is too large."""
    a = abs(f.p.leading_at_zero())
    tail = sum(
        abs(coeff) * r1 ** (k - f.delta)
        for k, coeff in f.p.terms.items()
        if k > f.delta
    )
    return a - tail


def _q_upper_constant(f: SkewProduct, l: Fraction, d_min: Fraction,
                      r1: float, r2: float) -> float:
    """C2 with |q(z,w)| <= C2 |z|^(l D) on U^l_{r1,r2} (coefficient sums)."""
    total = 0.0
    for (i, j), coeff in f.q.terms.items():
        excess = Fraction(i) / l + j - d_min  # (i + lj - lD)/l >= 0
        total += abs(coeff) * r2**j * r1 ** float(l * excess)
    return total


def invariance_radii(
    f: SkewProduct,
    c: Classification,
    l: Rational,
    r2: float,
    term: DominantTerm | None = None,
) -> float:
    """A witness r_1 making U^l_{r1,r2} forward invariant under f.

    Constructive version of the invariant-wedge theorem: starting from
    r_1 = min(r_2, 0.25) the radius is halved (at most _MAX_HALVINGS
    times) until the sufficient inequality holds.  Requires D_l >= delta;
    Case 3 outer wedges are refused (the theory provides no invariance
    statement there).
    """
    if term is None:
        # U^l wedges belong to the Case 1/2/4 machinery; on a two-term
        # boundary prefer the non-Case-3 dominant term.
        term = next((t for t in c.terms if t.case is not Case.CASE3), c.primary)
    t = term
    if t.case is Case.CASE3:
        raise ValueError("no invariance theorem for Case 3 outer wedges")
    l = Fraction(l)
    if l <= 0:
        raise ValueError("weight l must be positive")
    if not 0 < r2 < 1:
        raise ValueError("r2 must lie in (0, 1)")
    dv = d_value(f.q, l)
    delta = c.delta
    if dv.d_min < delta:
        raise ValueError(
            f"regime violation: D_l = {dv.d_min} < delta = {delta} for l = {l}"
        )

    on_line_sum = 0.0
    if dv.d_min == delta:
        # First-sum check: the attaining vertex needs M >= 2 and r2 small
        # enough that the dominant-line sum stays under r2/2.
        N, M = dv.attaining_vertex
        if M < 2:
            raise ValueError(
                "D = delta with attaining w-degree < 2: no invariance witness"
            )
        on_line_sum = sum(
            abs(coeff) * r2**j
            for (i, j), coeff in f.q.terms.items()
            if Fraction(i) / l + j == dv.d_min
        )
        a = abs(f.p.leading_at_zero())
        if on_line_sum / a ** float(l) >= r2 / 2:
            raise ValueError(
                f"r2 = {r2} too large for the D = delta regime "
                f"(dominant-line sum {on_line_sum:.3g} >= r2/2; need roughly "
                f"r2 < {1.0 / (2 * abs(f.q.terms[(N, M)])):.3g})"
            )

    r1 = min(r2, 0.25)
    for _ in range(_MAX_HALVINGS):
        c1 = _p_lower_constant(f, r1)
        p_sup = sum(abs(coeff) * r1**k for k, coeff in f.p.terms.items())
        if c1 > 0 and p_sup < r1:
            if dv.d_min == delta:
                # Off-line terms give C r1^(l (D* - delta)) with D* > delta.
                off_line = sum(
                    abs(coeff) * r2**j * r1 ** float(Fraction(i) + l * j - l * delta)
                    for (i, j), coeff in f.q.terms.items()
                    if Fraction(i) / l + j > dv.d_min
                )
                bound = (on_line_sum + off_line) / c1 ** float(l)
            else:
                c2 = _q_upper_constant(f, l, dv.d_min, r1, r2)
                bound = (c2 / c1 ** float(l)) * r1 ** float(l * (dv.d_min - delta))
            if bound < r2:
                return r1
        r1 /= 2
    raise ValueError(f"no invariance witness within {_MAX_HALVINGS} halvings")
