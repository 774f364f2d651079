"""Green-type escape/attraction-rate functions of a skew product.

Estimated limits, with (z_n, w_n) = f^n(z, w) and lambda = max{delta, d}:

    G_p        = lim delta^-n log|p^n(z)|
    G_z^alpha  = lim d^-n  log|w_n / z_n^alpha|           (delta != d)
    G_z^inf    = lim d^-n  log(|w_n| / |z_n|^(gamma n/d))  (delta == d)
    G_z^alpha+ = lim d^-n  log+|w_n / z_n^alpha|
    G_z        = lim lambda^-n log|w_n|
    G_f        = lim lambda^-n log max(|z_n|, |w_n|)
    G_f^alpha  = lim lambda^-n log max(|z_n^alpha|, |w_n|)

Only magnitudes enter any of these, so orbits are tracked as log
magnitudes by one driver per kind of orbit: _p_steps over p alone for
G_p, orbit_logs over p and q for the others.  Each component is a term
table with a dominant monomial.  The complex orbit is iterated exactly
while every non-negligible monomial stays inside the float window;
past that the driver switches to the exact dominant-monomial recursion in
log space, but only after verifying that the dominant terms actually
dominate (the neglected level eta, folded as 4 eta / base^k for a switch
at step k, is added to the reported residual).  For integer weights alpha
the weighted ratio c_n = w_n / z_n^alpha satisfies its own polynomial
recursion with non-negative z-exponents, which reaches far deeper than
the raw orbit; G_z^alpha and G_z^alpha+ use it when it applies.  Its
driver, ratio_orbit, has no escape exit: where a term or a factor of it
leaves the double range, either way, it continues by the dominant
monomial, re-validated at every step, so d^-n log|c_n| settles as an
ordinary series, or diverges where a term c^j, j > d, comes to lead an
escape.  Past the escape radius that series is geometric at the rate
1/d, and its residual counts the tail (_gza_from_ratio).  Past a
certified step each limit is that of an affine log recursion, so every
series closes at the first step, exact or extended, whose state
certifies it, where the settle alone would grind a geometric tail down
to tol: G_p at its closed form; the ratio (_DiveClose) by its trap,
G_z^{alpha,+} = 0 once a polydisc about (z_n, c_n) maps into itself, or
by a lead z^i~ c^j, j <= d, that provably leads a dive or, by its rate,
holds the top for good, at 0 or at its closed form; the direct orbit at
its switch, past which it is the affine log map of the switched vertex
(_direct_close).  Since
log|w_n| = alpha log|z_n| + log|c_n| exactly, G_z there is composed from
parts that settle on their own, [d = lambda] G_z^alpha + [delta = lambda]
alpha G_p (_gz_composed); the direct orbit serves where a part is not
finite and where a G_z^alpha of weight 0, whose limit G_z needs finite,
did not settle.  Such a part stops at the escape radius where no term
c^j, j > d, can take the lead.  The max in G_f and G_f^alpha splits the
same way: with Z = lim lambda^-n log|z_n| = [delta = lambda] G_p, they are
max(s Z, G_z) for s = 1 and s = alpha (_f_z_part, _max_of_parts), from
the one G_p that G_z's composition shares.

Every estimator reads an orbit in two parts: a producer of pairs
(n, x_n), which keeps only its own exits and closes (handed over as
estimates) and its error fold, and the one settle of the series
base^-n x_n, _settle.
The per-point drivers (orbit_logs, best_orbit_logs, ratio_orbit) are
pulled: each returns an orbit whose steps are computed only as they are
read.  A driver is a generator that records each step on the orbit
before it yields it and runs its successor (the log recursion) by
yield from; the first reader iterates it directly, a later one catches
up from the recorded steps.  An orbit has one reader at a time, never
two interleaved (_PulledSteps).  The settle and regions.classify_point
read in order and stop at their exit, so they compute no step past it.
Where the w-axis is invariant, _gz_direct reads the orbit up to its
switch before it settles, because a zero before it decides how it
settles (past the switch no coordinate becomes 0).
A whole fiber {z} x ws is evaluated by skewdyn.fiber.fiber_sample, whose
lane kernels replay these drivers and settles; they share this module's
closes, folds and per-lane arithmetic (_cmul, _cpow, _log_abs,
_math_map), and this module does not import them.

Both direct drivers keep one rule for the switch of a two-dominant-term
map: at the first step that fails the dominance check, the first of the
primary vertex and the alternates whose eta passes switches there, and
where none does the orbit ends 'range' (_switch_vertex).  Past the switch
an orbit follows the exact log recursion alone (_extension_steps), which
regions.classify_point reads; the estimators close at the switch step,
which the direct lane kernel (fiber._LaneOrbits) steps by that recursion
in the same column loop as its exact ones.  A step the recursion
overflows ends the orbit as 'range' before it, so -inf in an orbit
always means an exact zero.

Infinite values are sentinels (math.inf) with a termination tag, never
silent NaNs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from ._lazy import np
from .algebra import SkewProduct, UniPoly
from .newton import Classification

DEFAULT_N_MAX = 64
DEFAULT_TOL = 1e-10
ESCAPE_LOG = math.log(1e12)

_WINDOW = 690.0          # |log| range where double products stay representable
_NEGLIGIBLE_GAP = 40.0   # terms this many e-folds below the max are droppable
_TAIL_TOL = 1e-9         # dominance level required to extend in log space
_SAFE = _WINDOW - 1.0    # factor logs this small in size need no check
_FLOAT_TOP = 2**1024 - 2**970   # float(n) overflows for ints n from here up

TERM_CONVERGED = "converged"
TERM_ESCAPED = "escaped_with_tail"
TERM_BUDGET = "budget"
TERM_HIT_ZERO = "hit_zero"
TERM_HIT_EZ = "hit_Ez"
TERM_DIV_NEG = "divergent_to_minus_inf"
TERM_DIV_POS = "divergent_to_plus_inf"


@dataclass(frozen=True)
class GreenEstimate:
    """Estimated value with termination diagnostics.

    value is +-math.inf for sentinel outcomes; residual is the last
    increment magnitude plus any folded switch/tail bound.
    """

    value: float
    n_used: int
    termination: str
    residual: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.value)


def _lmag(x: complex) -> float:
    m = abs(x)
    return math.log(m) if m > 0 else -math.inf


def _lcoeff(x: complex) -> float:
    """_lmag of a coefficient: its log is finite also where |x| overflows."""
    try:
        return _lmag(x)
    except OverflowError:
        return math.log(abs(x / 2)) + math.log(2)


def _abs_ratio(x: complex, y: complex) -> float:
    """|x| / |y| of two coefficients, through their logs where a modulus overflows."""
    try:
        return abs(x) / abs(y)
    except OverflowError:
        return math.exp(r) if (r := _lcoeff(x) - _lcoeff(y)) < 709.0 else math.inf


# ---------------------------------------------------------------------------
# orbit drivers
# ---------------------------------------------------------------------------

class _PulledSteps:
    """Steps of a per-point orbit driver, computed only as a reader pulls them.

    The driver is a generator (source) that appends each step to the list
    before it yields it and keeps its running diagnostics on this object;
    it runs a successor (the log recursion) by yield from.  The first
    reader iterates the source itself.  A later reader catches up from
    the list and then resumes the source, so no step is computed twice.
    An orbit has one reader at a time: a reader may stop early and
    another take over, but no two read it interleaved, and no caller
    reads one orbit from two places at once.  A finished orbit (source
    None) iterates as its plain list.
    """

    __slots__ = ("_steps", "_source")

    def __init__(self):
        self._steps: list = []
        self._source: Optional[Iterator] = None

    def __iter__(self) -> Iterator:
        if self._source is None:
            return iter(self._steps)
        return self._pull() if self._steps else self._source

    def _pull(self) -> Iterator:
        yield from self._steps
        yield from self._source

    def _drain(self) -> list:
        """Every step, the source run to its end first."""
        if self._source is not None:
            for _ in self._source:
                pass
            self._source = None
        return self._steps


def _final(attr: str) -> property:
    """A public field: read on an orbit still running, it computes the rest first."""
    def get(self):
        self._drain()
        return getattr(self, attr)
    return property(get)


class _OrbitLogs(_PulledSteps):
    """Log-magnitude orbit steps (n, log|z_n|, log|w_n|), pulled from orbit_logs.

    Lazy consumers iterate the orbit and stop at their exit or close, so
    no step past it is computed: _gza_direct, _gzi_direct, _gz_direct and
    regions.classify_point.  While the orbit runs, _switch_step,
    _switch_eta and _dominant hold the values of the steps computed so
    far; the switch and the vertex that drives it are set before the
    switch step is yielded, so a consumer reads them at or after that
    step.  Draining consumers read the public fields, which compute the
    whole orbit first.
    """

    __slots__ = ("_reason", "_switch_step", "_switch_eta", "_dominant")

    def __init__(self, dominant: Optional[tuple[int, int]]):
        super().__init__()
        self._reason = "complete"          # 'complete' | 'escaped' | 'range'
        self._switch_step: Optional[int] = None
        self._switch_eta = 0.0
        self._dominant = dominant          # q vertex driving the extension

    steps = _final("_steps")
    reason = _final("_reason")
    switch_step = _final("_switch_step")
    switch_eta = _final("_switch_eta")
    dominant = _final("_dominant")


def _terms_safe(term_logs: list[float], exps: Optional[tuple] = None, lc: float = 0.0,
                lz: float = 0.0, ac: float = 0.0) -> bool:
    """True when a polynomial value computes faithfully in doubles.

    The result magnitude tracks the top term, so the top must sit inside
    the window, and every other term must be representable or negligible
    relative to the top.  -inf terms are exact zeros and never block.
    exps = (j per term, i~ per term, top j, top i~) marks the terms z^i~ c^j
    of the ratio recursion at log|c| = lc, log|z| = lz, ac = alpha Re(corr):
    no factor c^j or exp(i~ log z - alpha corr) may overflow, and one may
    underflow only in a negligible term (checked where one can at all).
    """
    top = max(term_logs)
    if top == -math.inf:
        return True
    if top > _WINDOW or top < -_WINDOW:
        return False
    low = top - _NEGLIGIBLE_GAP
    if min(term_logs) < -_WINDOW and not all(t >= -_WINDOW or t <= low for t in term_logs):
        return False
    if exps is None:
        return True
    js, its, j_top, it_top = exps
    if j_top * abs(lc) <= _SAFE and it_top * abs(lz) + abs(ac) <= _SAFE:
        return True
    return all(x <= _WINDOW and (x >= -_WINDOW or t <= low)
               for t, j, it in zip(term_logs, js, its)
               for x in (j * lc if j else 0.0, (it * lz if it else 0.0) - ac))


def _extension_eta(comps: list, lz: float, lw: float) -> Optional[float]:
    """None while every component computes faithfully in doubles, else eta.

    A component is a term table over (z, w) with its dominant monomial.
    eta bounds the sum over components of |component/dominant - 1| in log
    form.
    """
    term_logs = [[(0.0 if i == 0 else i * lz) + (0.0 if j == 0 else j * lw)
                  for i, j in terms] for terms, _ in comps]
    if all(map(_terms_safe, term_logs)):
        return None
    eta = 0.0
    for (terms, dom), tl in zip(comps, term_logs):
        base = dom[0] * lz + dom[1] * lw
        for (key, coeff), t in zip(terms.items(), tl):
            if key != dom:
                eta += _abs_ratio(coeff, terms[dom]) * math.exp(min(t - base, 700.0))
    return eta


def orbit_logs(f: SkewProduct, dominant: tuple[int, int], z: complex, w: complex,
               n_max: int, alternates: Iterable[tuple[int, int]] = ()) -> _OrbitLogs:
    """Log-magnitude orbit with validated extension past the float window.

    The components are p and q, each a term table with a dominant
    monomial, (delta, 0) for p and `dominant` for q, whose exact log
    recursion continues the orbit once it leaves the double range.
    Where `dominant` refuses the switch, the alternates of q are tried in
    order (_switch_vertex).  The steps are computed as they are read
    (_OrbitLogs).  g_p runs the orbit of p alone (_p_steps).
    """
    logs = _OrbitLogs(dominant)
    logs._source = _log_steps(logs, f, dominant, z, w, n_max, alternates)
    return logs


def _log_steps(logs: _OrbitLogs, f: SkewProduct, dominant: tuple[int, int], z: complex,
               w: complex, n_max: int, alternates: Iterable[tuple[int, int]]
               ) -> Iterator[tuple[int, float, float]]:
    """orbit_logs' steps one by one, each put on logs before it is yielded.

    The switch, its vertex and the end go on logs too.  At the switch
    the log recursion runs on by yield from.
    """
    p, q = f.p, f.q
    comps = _components(f, dominant)
    # each term log is at most i_top |lz| + j_top |lw| in size: below _WINDOW, all are safe
    i_top, j_top = max(max(p.terms), max(q.terms)[0]), max(j for _, j in q.terms)
    append = logs._steps.append
    lz, lw = _lmag(z := complex(z)), _lmag(w := complex(w))
    append(step := (0, lz, lw))
    yield step
    for n in range(1, n_max + 1):
        if lz > ESCAPE_LOG or lw > ESCAPE_LOG:
            logs._reason = "escaped"
            return
        if (not i_top * abs(lz) + j_top * abs(lw) <= _WINDOW
                and (eta := _extension_eta(comps, lz, lw)) is not None):
            if (switch := _switch_vertex(f, [dominant, *alternates], eta, lz, lw)) is None:
                logs._reason = "range"
                return
            (logs._dominant, logs._switch_eta), logs._switch_step = switch, n
            yield from _extension_steps(logs, f, logs._dominant, n, lz, lw, n_max)
            return
        try:   # p(z), q(z, w) or a modulus past the double range ends the orbit escaped
            z, w = p(z), q(z, w)
            az, aw = abs(z), abs(w)
        except OverflowError:
            az = math.inf
        if not (math.isfinite(az) and math.isfinite(aw)):
            logs._reason = "escaped"
            return
        lz = math.log(az) if az > 0 else -math.inf
        lw = math.log(aw) if aw > 0 else -math.inf
        append(step := (n, lz, lw))
        yield step


def _components(f: SkewProduct, dominant: tuple[int, int]) -> list:
    """The term tables of p and q, each with its dominant monomial."""
    p = f.p
    return [({(k, 0): coeff for k, coeff in p.terms.items()}, (p.order, 0)),
            (f.q.terms, dominant)]


def _extension_steps(logs: _OrbitLogs, f: SkewProduct, dominant: tuple[int, int], n: int,
                     lz: float, lw: float, n_max: int) -> Iterator[tuple[int, float, float]]:
    """Steps n..n_max by the dominant-monomial log recursion from step n - 1's logs.

    A step past ESCAPE_LOG ends the orbit as 'escaped' after it, as in
    _log_steps; a non-finite step (the recursion overflowed the double
    range) ends it as 'range' before it, so -inf on an orbit is always an
    exact zero.
    """
    append = logs._steps.append
    delta, log_a = f.p.order, _lcoeff(f.p.leading_at_zero())
    (gamma, d), log_b = dominant, _lcoeff(f.q.terms[dominant])
    while True:
        lz, lw = log_a + delta * lz, log_b + gamma * lz + d * lw
        if not (math.isfinite(lz) and math.isfinite(lw)):
            logs._reason = "range"
            return
        append(step := (n, lz, lw))
        yield step
        if n == n_max:
            return
        n += 1
        if lz > ESCAPE_LOG or lw > ESCAPE_LOG:
            logs._reason = "escaped"
            return


def best_orbit_logs(f: SkewProduct, c: Classification, z: complex, w: complex,
                    n_max: int) -> _OrbitLogs:
    """Orbit logs extended with whichever dominant term carries furthest.

    A two-dominant-term map has one dominant vertex per wedge; when the
    primary term fails the dominance check, the alternate may still
    extend the orbit past the float window.
    """
    return orbit_logs(f, c.primary.vertex, z, w, n_max, [term.vertex for term in c.terms[1:]])


def _switch_vertex(f: SkewProduct, vertices: list[tuple[int, int]], eta: float, lz: float,
                   lw: float) -> Optional[tuple[tuple[int, int], float]]:
    """(vertex, eta) of the first of vertices whose eta passes at (lz, lw), else None.

    (lz, lw) are the logs of the step before the first that fails the dominance check,
    and eta is the first vertex's there.  At most one vertex passes at a point (each
    bounds the others' terms against its own), so the first that passes carries furthest.
    """
    if lz > -math.inf and lw > -math.inf:   # an exact zero coordinate cannot switch
        for k, vertex in enumerate(vertices):
            if (eta := _extension_eta(_components(f, vertex), lz, lw) if k else eta) < _TAIL_TOL:
                return vertex, eta
    return None


def _p_steps(logs: _OrbitLogs, p: UniPoly, z: complex, n_max: int, tol: float
             ) -> Iterator[tuple[int, float | GreenEstimate]]:
    """(n, log|z_n|) on the orbit of p alone, as _log_steps runs the z side, for g_p alone.

    The switch and the end go on logs; g_p reads each step once, so none
    is kept.  The first step whose closed form (_DiveClose) is within tol,
    or exact but for rounding (U = 0), gives that estimate in its place,
    and an escape that p's top term provably leads gives +inf (_p_escapes).
    """
    delta, log_a, k_top = p.order, _lcoeff(p.leading_at_zero()), max(p.terms)
    comps = [({(k, 0): coeff for k, coeff in p.terms.items()}, (delta, 0))]
    close = _DiveClose(log_a, delta, _p_tail(p)) if delta >= 2 else None
    switched, lz = False, _lmag(z := complex(z))
    for n in range(n_max + 1):
        if n and lz > ESCAPE_LOG:
            logs._reason = "escaped"
            if _p_escapes(p, lz):
                yield n - 1, GreenEstimate(math.inf, n - 1, TERM_DIV_POS, 0.0)
            return
        if n and (switched or (not k_top * abs(lz) <= _WINDOW
                               and (eta := _extension_eta(comps, lz, 0.0)) is not None)):
            if not switched and eta < _TAIL_TOL and lz > -math.inf:
                logs._switch_step, logs._switch_eta, switched = n, eta, True
            if not (switched and math.isfinite(lz := log_a + delta * lz)):
                logs._reason = "range"   # a refused switch, or the recursion overflowed
                return
        elif n:
            try:
                az = abs(z := p(z))
            except OverflowError:
                az = math.inf   # escaped, as a non-finite value is
            if not math.isfinite(az):
                logs._reason = "escaped"
                return
            lz = math.log(az) if az > 0 else -math.inf
        # u/delta^n < (delta - 1) tol first: a cheap test that the residual can be below tol
        if (close is not None and lz > -math.inf and (u := close.z_part(lz)) is not None
                and (u == 0.0 or _over(u, delta**n) < (delta - 1) * tol)):
            value, residual = _closed_form(lz, log_a, delta, n, u)
            if u == 0.0 or _switch_fold(logs, delta, n) + residual < tol:
                yield n, GreenEstimate(value, n, TERM_CONVERGED, residual)
                return
        yield n, lz


def _p_escapes(p: UniPoly, lz: float) -> bool:
    """Whether p's top term a_K z^K, K > delta, leads the orbit up from log|z| = lz for good.

    With S = sum |a_k/a_K| |z|^(k-K) over p's other terms, log|a_K| + (K-1) lz -
    S/(1-S) > 0 makes log|z'| > log|z|, so S falls and log|z_n| grows like K^n: G_p = +inf.
    """
    if (k_top := max(p.terms)) == p.order or not (s := sum(
            _abs_ratio(coeff, p.terms[k_top]) * math.exp((k - k_top) * lz)
            for k, coeff in p.terms.items() if k != k_top)) < 0.5:
        return False
    la, x = _lcoeff(p.terms[k_top]), (k_top - 1) * lz - s / (1.0 - s)
    return la + x > _CLOSE_SLACK * (abs(la) + abs(x) + 1.0)


def _switch_fold(logs: _OrbitLogs, base: int, n_used: int) -> float:
    """Value error of the log-space extension in a partial read at step n_used.

    A switch at step k with neglected-term level eta moves base^-n log|.|
    by at most 4 eta base^-k.  Reads the running switch, so the orbit
    must have been read up to step n_used.
    """
    if logs._switch_step is None or logs._switch_step > n_used:
        return 0.0
    return _switch_share(logs._switch_eta, base, logs._switch_step)


def _switch_share(eta, base: int, k: int):
    """4 eta / base^k, the fold of a switch at step k, for a float eta or lanes."""
    return _over(4 * eta, base**k)


def _over(x, den: int):
    """x / den for a float x or an array of lanes, as x / float(den) reads it.

    Past the double range, where float(den) raises OverflowError, each
    finite x is divided exactly as its integer ratio and rounded once, so
    that base^-n partials stay defined at every step n of a ratio orbit.
    """
    try:
        return x / float(den)
    except OverflowError:
        pass
    if isinstance(x, float):   # not np: a scalar query must not load numpy
        return _over_exact(x, den)
    return np.array([_over_exact(v, den) for v in x.tolist()], float)


def _over_exact(x: float, den: int) -> float:
    if not math.isfinite(x):
        return x   # inf and nan over a positive den
    top, bottom = x.as_integer_ratio()
    return top / (bottom * den)   # int / int rounds the exact quotient once


# ---------------------------------------------------------------------------
# weighted-ratio orbit (integer alpha)
# ---------------------------------------------------------------------------

_SOFT_TAIL_TOL = 1e-3   # dominance level accepted with the error folded in


def _ratio_terms(f: SkewProduct, alpha: Fraction
                 ) -> Optional[list[tuple[int, int, complex, float]]]:
    """(i~, j, coeff, log|coeff|) of the weight-alpha ratio recursion, or None.

    The recursion c' = q(z, z^alpha c)/p(z)^alpha has monomials
    (b_ij / a^alpha) z^(i~) c^j with i~ = i + alpha (j - delta); it is
    usable when alpha is an integer, every i~ is >= 0 and every coefficient
    and its log are finite (else the direct orbit serves).
    """
    if alpha.denominator != 1:
        return None
    al = int(alpha)
    terms = [(i + al * (j - f.delta), j, b) for (i, j), b in f.q.terms.items()]
    if any(it < 0 for it, _, _ in terms):
        return None
    try:   # ValueError: the log of a coefficient that underflowed to 0
        a_pow = f.p.leading_at_zero() ** al
        terms = [(it, j, b / a_pow, math.log(abs(b / a_pow))) for it, j, b in terms]
    except (OverflowError, ZeroDivisionError, ValueError):
        return None
    return terms if all(cmath.isfinite(x) and math.isfinite(lb) for _, _, x, lb in terms) else None


def _p_tail(p: UniPoly) -> list[tuple[complex, int]]:
    """(coeff / a, k - delta) for each term of p past its leading a z^delta."""
    a, delta = p.leading_at_zero(), p.order
    return [(coeff / a, k - delta) for k, coeff in p.terms.items() if k != delta]


def _p_tail_log(tail: list[tuple[complex, int]], lz: complex) -> complex:
    """p-tail correction log(p(z)/(a z^delta)) at log z; exact 0 once z underflows."""
    if not tail or lz.real <= -700.0:
        return 0j   # cmath.log(1 + 0), exactly as the sum gives it at z = 0
    zv = cmath.exp(lz)
    if len(tail) == 1:   # one term t, added as sum() adds it: 0 + t
        return cmath.log(1 + (0 + tail[0][0] * zv ** tail[0][1]))
    return cmath.log(1 + sum(ca * zv ** e for ca, e in tail))


_CLOSE_SLACK = 1e-9   # a close's inequalities hold by this share of their terms' size
_ROUNDING = 8 * 2.0**-52   # rounding of a closed form, relative to its parts' size plus 1


def _closed_form(x, lb: float, base: int, n: int, trunc):
    """(value, residual) of lim base^-m x_m, x_{m+1} = base x_m + lb + r_m from x_n = x.

    Every |r_m| <= trunc; the residual adds the rounding of the orbit and
    of the value.  For floats or lanes alike.
    """
    bn, shift = base**n, lb / (base - 1)
    rounding = _ROUNDING * (1.0 + _over(abs(x) + abs(shift), bn))
    return _over(x + shift, bn), _over(trunc, bn) / (base - 1) + rounding


class _DiveClose:
    """The closes: where the state at step n certifies a series' limit.

    With L = Re log z_n and U = S/(1-S), S = sum |t/a| |z_n|^(k-delta) over
    p's tail terms t z^k (U = 0 without a tail; none where S >= 1), U
    bounds |Re log(p(z)/(a z^delta))| at every |z| <= |z_n|.  All need
    (c) Re log a + (delta - 1) L + U < 0: then L_{n+1} < L, so L, U and the
    left side of (c) fall for good, and L_{m+1} = delta L_m + log|a| + r_m,
    |r_m| <= U: G_p = delta^-n (L + log|a|/(delta-1)) within
    delta^-n U/(delta-1) (_closed_form; g_p).

    On the ratio, C = log|c_n| strays from the true one by at most
    drift = d^n times the orbit's fold.  Its terms b z^i c^j have i, j >= 0;
    at (L, C) the largest log is top, on a term of power j, and eta sums
    e^(t - top) over the others; at C + drift a gap grows by at most
    spread = (j_top - j) drift (max |j_t - j| drift for a rate lead), so
    eta' = eta (1 + 2 spread) bounds them (spread <= 1), and
    E = eta'(1 + 2 eta') >= log(1 + eta'), and >= -log(1 - eta') for eta' <= 1/2.

    Trap and dive need D = top - C + (j - 1) drift + |alpha| U + E < 0.

    Trap, G_z^{alpha,+}: the polydisc |z| <= |z_n|, |c| <= R = e^(C + drift),
    which holds the true (z_n, c_n), maps into itself: z by (c), and
    |c'| <= sum |b| |z|^i |c|^j e^(|alpha| U) <= e^(top + j drift + E +
    |alpha| U) < R, as i, j >= 0.  So |c_m| <= R for good:
    G_z^{alpha,+} = 0 where d >= 2 or R < 1.

    Rate, a lead b c^j, i~ = 0, 2 <= j <= d, delta >= j, on top with eta <
    _SOFT_TAIL_TOL: while it leads, C' = j C + lb + r, |r| <= E + |alpha| U.
    For each other term t let dj = j_t - j, K_t = i~_t (|log|a|| + U) +
    |dj| (|lb| + E + |alpha| U), Phi_t = i~_t (delta-1) L + dj (j-1) C +
    (delta-1) K_t/(j-1).  Its gap to the lead grows by at most Phi_t, and
    as L < 0 and delta >= j, Phi_t' <= j Phi_t, so Phi_t < 0 (with |dj|
    (j-1) drift in the margin) holds for good and the lead leads for good:
    G_z^alpha = 0 where j < d, and where j = d, d^-n (C + lb/(d-1)) within
    d^-n (E + |alpha| U)/(d-1) and the fold, taken below tol or where
    E + |alpha| U = 0; so is G_z^{alpha,+} where C - drift > (E + |alpha| U
    + |lb|)/(d-1), as C rises for good.

    Dive, G_z^alpha, led by l = b z^i~ c^j of least j and least i~
    (_ratio_close; tried before the rate where C fell), on top with
    eta < _SOFT_TAIL_TOL: no other term's gap to l grows while L and C
    fall, so eta never grows and l leads for good; C_{n+1} - C <= D, so C
    and D fall, and c_n -> 0.  Then where j < d, and i~ = 0 or delta < d,
    C_{m+1} = j C_m + i~ L_m + O(1) with L_m = O(delta^m) (O(m) for
    delta = 1): G_z^alpha = 0.  Where j = d >= 2 and i~ = 0, the closed
    form above, taken once below tol, or at once where E + |alpha| U = 0.

    Each inequality holds by _CLOSE_SLACK times its terms' size (rounding,
    and the terms below e^-80 that eta leaves out).  Past the z side's one
    tail sum all are + - * /, so a scalar orbit and its lanes decide alike.
    """

    __slots__ = ("d", "j_top", "alpha", "log_a", "delta", "tail", "lead", "plus", "terms",
                 "rate", "j_span")

    def __init__(self, log_a: float, delta: int, tail: list[tuple[complex, int]], d: int = 0,
                 terms: Optional[list] = None, al: int = 0, plus: bool = False):
        # p's log|a|, delta, _p_tail; the ratio's terms, per term a rate lead or not (rate)
        self.log_a, self.delta, self.tail = log_a, delta, [(abs(ca), e) for ca, e in tail]
        if terms is not None:
            self.d, self.alpha, self.lead, self.plus = d, abs(al), None, plus
            self.terms = [(it, j) for it, j, _, _ in terms]
            js = [j for _, j in self.terms]
            self.j_top, self.j_span = max(js), max(js) - min(js)
            self.rate = [it == 0 and 2 <= j <= d and delta >= j and (j == d or not plus)
                         for it, j in self.terms]

    def z_part(self, lzr: float) -> Optional[float]:
        """U where (c) holds at L = lzr, else None."""
        s = 0.0
        for m, e in self.tail:
            if e * lzr > 700.0:
                return None   # S may be past 1
            s += m * math.exp(e * lzr)
        if not s < 1.0:
            return None
        u = s / (1.0 - s)
        zf = (self.delta - 1) * lzr
        x = self.log_a + zf + u
        return u if x + _CLOSE_SLACK * (abs(self.log_a) + abs(zf) + u + 1.0) < 0.0 else None

    def may_close(self, j, eta, fold, n: int, u: float, tol: float):
        """A cheap test that a rate lead's close can hold: its residual is at least at E = eta."""
        t = eta + self.alpha * u
        return (j < self.d) | (t == 0.0) | (fold + _over(t, self.d**n) / (self.d - 1) < tol)

    def closes(self, top, j, lb, lc, lzr: float, eta, fold, n: int, u: float, tol: float,
               rated: bool):
        """(closes, value, residual) of the rate lead where rated, else of the trap or the dive.

        top is the largest term log, of power j and log|b| lb; for a point or per lane alike.
        """
        dn = self.d**n
        drift = fold * (float(dn) if dn < _FLOAT_TOP else math.inf)   # inf or NaN past range
        spread = (self.j_span if rated else self.j_top - j) * drift
        grown = eta * (1.0 + 2.0 * spread)
        e, au, dm = grown * (1.0 + 2.0 * grown), self.alpha * u, self.delta - 1
        ea, ok = e + au if au else e, spread <= 1.0
        if rated:   # j and lb are the lead's, one for all lanes
            # each test, linear in C and lbk, with the slack s times its terms' sizes in it
            s, lbk, la, j1 = _CLOSE_SLACK, ea + abs(lb), abs(self.log_a) + u, j - 1
            cs = s * abs(lc)
            for it, jt in self.terms:
                if it or jt != j:   # each term but the lead: Phi_t, dj (j-1) C + kf + zf + drift
                    dj, zf = jt - j, it * dm * lzr
                    rest = zf + s * (abs(zf) + 1.0) + (1 + s) * dm * it * la / j1
                    ok = ok & (dj * j1 * (lc + cs if dj > 0 else lc - cs)
                               + (1 + s) * dm * abs(dj) / j1 * lbk
                               + (rest + abs(dj) * j1 * drift) < 0.0)
            if self.plus:   # an escape, for good (j = d): C - drift > lbk/(d-1)
                ok = ok & (lc - cs - (1.0 / (self.d - 1) + s) * lbk - ((1 + s) * drift + s) > 0.0)
        else:
            jd = (j - 1) * drift
            x = top + jd + ea - lc
            ok = ok & (x + (abs(top) + abs(jd) + ea + abs(lc) + 1.0) * _CLOSE_SLACK < 0.0)
            if self.lead is None:
                return ok & ((self.d >= 2) | (lc + drift < 0.0)), 0.0, 0.0
            j, lb = self.lead   # the top of every lane offered
        if j < self.d:
            return ok, 0.0, 0.0
        value, residual = _closed_form(lc, lb, self.d, n, ea)
        return ok & ((ea == 0.0) | (fold + residual < tol)), value, residual


def _ratio_close(c: Classification, terms: list[tuple[int, int, complex, float]], plus: bool,
                 al: int, log_a: float, tail: list) -> tuple[Optional[_DiveClose], Optional[int]]:
    """(close, the dive lead's index or None) of the ratio orbit of terms, or (None, None).

    al = c.alpha, log_a and tail are p's log|a| and _p_tail.  For plus, the trap and the
    rate leads c^d; else the rate leads and the dive's.  Only a term of least j and least
    i~ can lead a dive for good; it needs j >= 1, and j < d with i~ = 0 or delta < d
    (limit 0), or j = d >= 2 with i~ = 0 (a closed form).
    """
    d, delta, lead = c.d, c.delta, None
    close = _DiveClose(log_a, delta, tail, d, terms, al, plus)
    if not plus:
        js, its = [j for _, j, _, _ in terms], [it for it, _, _, _ in terms]
        j, it = min(js), min(its)
        if j >= 1 and ((j < d and (it == 0 or delta < d)) or (j == d >= 2 and it == 0)):
            for k, jk in enumerate(js):   # one term at most: (i~, j) tells i
                if jk == j and its[k] == it:
                    lead, close.lead = k, terms[k][1::2]
        if lead is None and not any(close.rate):
            return None, None
    return close, lead


class _RatioOrbit(_PulledSteps):
    """Weighted-ratio orbit steps (log|c_n|, eta_n), pulled from ratio_orbit.

    log|c_n| is -inf for an exact zero; eta_n is the step's neglected-term
    bound, 0 on exact steps.  _gza_from_ratio, and through it G_z^alpha,
    G_z^{alpha,+} and the composed G_z and G_f^alpha, reads the steps in
    order and stops at its exit.  The public fields compute the whole
    orbit first.  terms holds the recursion's terms (_ratio_terms).  The
    orbit ends 'closed' at the first step n that certifies its
    estimator's limit (_DiveClose); closed holds that n and limit the
    (value, residual) of the close, the fold aside.  fold bounds the value
    error of the steps k computed so far, sum 2 eta_k d^-k left to right.
    """

    __slots__ = ("_reason", "_closed", "_limit", "terms", "fold")

    def __init__(self, terms: list[tuple[int, int, complex, float]]):
        super().__init__()
        # complete, escaped, zero, range or closed
        self.terms, self._reason, self._closed, self._limit = terms, "complete", None, None
        self.fold = 0.0

    reason = _final("_reason")
    closed = _final("_closed")

    @property
    def log_mags(self) -> list[float]:
        return [lc for lc, _ in self._drain()]

    @property
    def etas(self) -> list[float]:
        return [eta for _, eta in self._drain()]


def ratio_orbit(f: SkewProduct, c: Classification, z: complex, w: complex, n_max: int,
                plus: bool = False, tol: float = DEFAULT_TOL) -> Optional[_RatioOrbit]:
    """Orbit of c_n = w_n / z_n^alpha for the integer alpha of c; None if unsupported.

    Tracks the complex log of z_n, so the recursion stays exact long
    after z_n itself leaves the double range.  Once a term or a factor of
    one leaves the double range (_terms_safe), either way, and a single
    monomial provably dominates, the magnitude continues by the exact
    dominant log recursion, re-validated at every step; the orbit ends as
    'range' where that fails.  It ends 'closed' at the first step that
    certifies the limit of G_z^alpha (G_z^{alpha,+} for plus) to tol
    (_DiveClose, with the fiber degree c.d).  Unsupported where the
    recursion does not serve the fiber z (_ratio_route).  The steps are
    computed as they are read (_RatioOrbit).
    """
    term_list = _ratio_route(f, c, z)
    if term_list is None:
        return None
    ro = _RatioOrbit(term_list)
    ro._source = _ratio_steps(ro, f, c, z, w, n_max, plus, tol)
    return ro


def _ratio_route(f: SkewProduct, c: Classification, z: complex) -> Optional[list]:
    """_ratio_terms where the ratio serves the fiber z (alpha defined, d >= 1, z != 0), or None."""
    return None if c.alpha is None or c.d < 1 or z == 0 else _ratio_terms(f, c.alpha)


def _ratio_steps(ro: _RatioOrbit, f: SkewProduct, c: Classification, z: complex, w: complex,
                 n_max: int, plus: bool, tol: float) -> Iterator[tuple[float, float]]:
    """ratio_orbit's steps one by one, each put on ro before it is yielded; the end goes on ro.

    Step n is offered to the trap or the dive, exact or extended, where
    log|c| fell into it (step 0 always), and there only where top <= C
    (plus) or the dive's lead is on top: such a close that holds at step n
    holds at step n + 1, into which log|c| falls, so this delays it by a
    step at most.  Else it is offered to the rate where a rate lead is on
    top (for plus where C > 0, as an escape needs).  ro.fold is kept at
    every step.  An exact step whose z-factor leaves the double range ends
    the orbit as 'range', as an extended step does.
    """
    append, al, d, term_list = ro._steps.append, int(c.alpha), c.d, ro.terms
    log_a, tail, delta = cmath.log(f.p.leading_at_zero()), _p_tail(f.p), f.delta
    lz = cmath.log(complex(z))
    cn = complex(w) * cmath.exp(-al * lz) if al else complex(w)
    lc = _lmag(cn)
    append(step := (lc, 0.0))
    yield step
    extended = False   # past the switch to the dominant monomial's log recursion
    js, its = [j for _, j, _, _ in term_list], [it for it, _, _, _ in term_list]
    exps = (js, its, j_top := max(js), it_top := max(its))
    # each term log is at most j_top |lc| + it_top |Re lz| + lb_top in size
    lb_top = max(abs(lb) for _, _, _, lb in term_list)
    (close, lead), fold = _ratio_close(c, term_list, plus, al, log_a.real, tail), 0.0
    rate = close.rate if close is not None and any(close.rate) else None
    isfinite, exp, zero = math.isfinite, math.exp, -math.inf
    prev = math.inf   # log|c| of the step before
    for n in range(n_max):   # step n is the last one yielded
        lzr = lz.real
        if lzr > ESCAPE_LOG:
            ro._reason = "escaped"
            return
        if lc == zero:
            ro._reason = "zero"
            return
        corr = _p_tail_log(tail, lz) if tail else 0j
        ac = al * corr.real
        if not extended:
            # _terms_safe holds without a look at the terms where these bounds do
            jc, iz = j_top * abs(lc), it_top * abs(lzr)
            safe = jc <= _SAFE and iz + abs(ac) <= _SAFE and jc + iz + lb_top <= _WINDOW
        # a close is offered where log|c| fell, or where a rate lead may be on top
        offer = close is not None and (lc < prev or (rate is not None and (not plus or lc > 0.0)))
        if extended or not safe or offer:
            tlogs = []
            for it, j, _, lb in term_list:
                t = (it * lzr if it else 0.0) + (j * lc if j else 0.0) + lb
                if not tlogs or t > top:   # top = max(tlogs) at its first index, as max() picks
                    top, top_idx = t, len(tlogs)
                tlogs.append(t)
            if offer:   # a rate lead on top; or the trap's top <= C (plus), or the lead on top
                dive = lc < prev and (top <= lc if plus else top_idx == lead)
                rated = not dive and rate is not None and rate[top_idx] and (not plus or lc > 0.0)
                offer = rated or dive
        if (logm := extended or not (safe or _terms_safe(tlogs, exps, lc, lzr, ac))) or offer:
            eta = 0.0  # summed left to right, as the lanes sum it
            if len(tlogs) > 1:   # a lone term has no other to sum
                for k, t in enumerate(tlogs):
                    if k != top_idx and t - top > -80.0:
                        eta += exp(t - top)
        if (offer and (eta < _SOFT_TAIL_TOL or (plus and not rated))
                and (u := close.z_part(lzr)) is not None
                and (not rated or close.may_close(js[top_idx], eta, fold, n, u, tol))):
            shut, value, res = close.closes(top, js[top_idx], term_list[top_idx][3], lc, lzr,
                                            eta, fold, n, u, tol, rated)
            if shut:
                ro._reason, ro._closed, ro._limit = "closed", n, (value, res)
                return
        prev = lc
        if logm:
            it, j, _, lb = term_list[top_idx]
            # the validated dominant monomial's recursion
            extended = eta < _SOFT_TAIL_TOL and top > zero
            if not (extended and isfinite(lc := lb + it * lzr + j * lc - ac)):
                # refused, or the recursion (or log z_n in it) left the double range
                ro._reason = "range"
                return
            step = (lc, eta)
            if eta:   # the step's share of the fold, in its order
                ro.fold = fold = fold + _over(2.0 * eta, d ** (n + 1))
        else:
            nxt = 0j
            acorr, nacorr = al * corr, -al * corr
            try:
                for it, j, coeff, _ in term_list:
                    zfac = cmath.exp(it * lz - acorr) if it else cmath.exp(nacorr)
                    nxt += coeff * (cn**j) * zfac
            except ValueError:   # a z-factor past the double range, and log z_n with it
                ro._reason = "range"
                return
            if not (isfinite(nxt.real) and isfinite(nxt.imag)):
                ro._reason = "escaped"
                return
            cn = nxt
            step = (lc := _lmag(cn), 0.0)
        lz = log_a + delta * lz + corr
        append(step)
        yield step


# ---------------------------------------------------------------------------
# limit settling
# ---------------------------------------------------------------------------

class _Settler:
    """Incremental limit settling over the partial estimates g_n.

    Converged: two consecutive increments below tol.  Divergent: five
    consecutive same-sign increments that do not decay.  Otherwise budget.
    Each partial comes with the step n it was read at, which an estimate
    reports as n_used; steps without a partial (a skipped transient zero)
    do not count as increments.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.floor = max(tol, 1e-14)   # increments above it can signal divergence
        self.g: Optional[float] = None
        self.n = 0
        self.inc: Optional[float] = None
        self.run = 0   # trailing same-sign increments above floor, none decaying

    def push(self, g: float, n: int) -> Optional[GreenEstimate]:
        """Partial g_n in; its final estimate out, if any."""
        return self.decision() if self.decides(g, n) else None

    def decides(self, g: float, n: int) -> bool:
        """Partial g_n in; whether the settler decides there (decision() builds the estimate)."""
        prev = self.inc
        if self.g is not None:
            self.inc = g - self.g
        self.g, self.n = g, n
        inc = self.inc
        if inc is None:
            return False
        if prev is not None and abs(inc) < self.tol and abs(prev) < self.tol:
            return True   # converged; the run is 0 here, as prev reset it
        if not abs(inc) > self.floor:   # nan included
            self.run = 0
        elif self.run and (inc > 0) == (prev > 0) and not abs(inc) < 0.9 * abs(prev):
            self.run += 1
        else:
            self.run = 1
        return self.run >= 5

    def decision(self) -> GreenEstimate:
        """The estimate of the partial that decided: converged, or divergent after a run."""
        inc = self.inc
        if self.run < 5:
            return GreenEstimate(self.g, self.n, TERM_CONVERGED, abs(inc))
        return GreenEstimate(math.copysign(math.inf, inc), self.n,
                             TERM_DIV_POS if inc > 0 else TERM_DIV_NEG, abs(inc))

    def finish(self) -> GreenEstimate:
        if self.g is None:
            return GreenEstimate(math.nan, 0, TERM_BUDGET, math.inf)
        residual = math.inf if self.inc is None else abs(self.inc)
        # a truncated orbit whose last visible increment already settled converged
        tag = TERM_CONVERGED if residual < self.tol else TERM_BUDGET
        return GreenEstimate(self.g, self.n, tag, residual)


def _fold_residual(est: GreenEstimate, fold: Callable[[GreenEstimate], float]) -> GreenEstimate:
    """est with fold(est) added to its residual."""
    if (extra := fold(est)) <= 0:
        return est
    return GreenEstimate(est.value, est.n_used, est.termination, est.residual + extra)


def _settle(pairs: Iterable[tuple[int, float | GreenEstimate]], base: int, tol: float,
            fold: Callable[[GreenEstimate], float], plus: bool = False, tail_m: float = 0.0,
            range_end: Optional[Callable[[], Optional[int]]] = None) -> GreenEstimate:
    """The limit of base^-n x_n (base^-n max(x_n, 0) for plus) from pairs (n, x_n), read in order.

    Every Green series of a point settles here.  It ends at an estimate
    given in place of x_n (the producer's own exit or close), an exact zero
    x_n = -inf or the settler's decision, which for plus counts only past
    the escape radius: below it the certified bound tail_m base^-n < tol
    decides, as increments can sit on the spurious log+ = 0 plateau.  Past
    the pairs come zero for plus where the series dove below the double
    range at step range_end() (if not None), then the settler's finish.
    fold(est), the orbit's own error up to est's step and any tail the
    producer adds, goes into every estimate the settle returns.
    """
    settler, k, bk = _Settler(tol), 0, 1   # bk is the running base**k
    decides, zero, given = settler.decides, -math.inf, GreenEstimate
    for n, x in pairs:
        if x.__class__ is given:
            return _fold_residual(x, fold)
        if x == zero:
            return _fold_residual(GreenEstimate(0.0 if plus else zero, n, TERM_HIT_ZERO, 0.0), fold)
        while k < n:   # a pair per step, but where the direct orbit skips a transient zero
            k, bk = k + 1, bk * base
        if plus and x < 0.0:   # max(x, 0.0), without the call
            x = 0.0
        g = x / float(bk) if bk < _FLOAT_TOP else _over_exact(x, bk)
        if decides(g, n) and (not plus or x > ESCAPE_LOG):
            return _fold_residual(settler.decision(), fold)
        if plus and not x > ESCAPE_LOG and base >= 2 and (bound := _over(tail_m, bk)) < tol:
            return _fold_residual(GreenEstimate(g, n, TERM_CONVERGED, bound), fold)
    if plus and base >= 2 and (end := range_end()) is not None:
        # the series dove below the double range: every later bounce is
        # bounded by shrinking z-powers, so the escape rate is zero; it is
        # converged only when the certified tail bound is below tol
        bound = _over(tail_m, base**end)
        est = GreenEstimate(0.0, end, TERM_CONVERGED if bound < tol else TERM_BUDGET, bound)
        return _fold_residual(est, fold)
    return _fold_residual(settler.finish(), fold)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def g_p(p: UniPoly, z: complex, n_max: int = DEFAULT_N_MAX,
        tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_p(z) = lim delta^-n log|p^n(z)|, delta the order of p at 0, closed where certified.

    Where (c) of _DiveClose holds at step k, G_p = delta^-k (L_k +
    log|a|/(delta-1)) within delta^-k U_k/(delta-1), the switch fold and
    rounding: _p_steps gives that in place of step k once it is below tol.
    """
    delta = p.order
    logs = _OrbitLogs(None)   # the switch and end of _p_steps
    est = _settle(_p_steps(logs, p, z, n_max, tol), delta, tol,
                  lambda est: _switch_fold(logs, delta, est.n_used))
    if est.termination == TERM_BUDGET and logs._reason == "escaped":
        est = GreenEstimate(est.value, est.n_used, TERM_ESCAPED, est.residual)
    return est


def _refusal(c: Classification, which: str) -> Optional[str]:
    """Why the estimator `which` (a key of ESTIMATORS) refuses the classification c, or None."""
    if which in ("Gza", "Gzap", "Gzi") and (d := c.d) < 1:   # c.d is read once
        return f"estimator requires fiber degree d >= 1, got d = {d}"
    if which == "Gzi" and c.delta != d:
        return f"G_z^infty requires delta == d, got {c.delta} != {d}"
    if which in ("Gza", "Gzap", "Gfa") and c.alpha is None:
        hint = "" if which == "Gfa" else ": use g_z_infty"
        return f"alpha undefined (gamma > 0, delta == d){hint}"
    return None


def _plus_tail_constant(d: int, coeff_sum: float, j_max: int = 0) -> float:
    """M with |G+ - d^-n log+|c_n|| <= M d^-n, from the one-step defect.

    Below the escape radius R, log+|c'| - d log+|c| is bounded above by
    log(sum of coefficient magnitudes) + (j_max - d)+ log R, j_max the
    highest power of c, and below by -d log R, so the geometric tail is
    controlled by M = max(...) * d/(d-1).
    """
    m1 = max(math.log(max(coeff_sum, 1.0)) + 1.0 + max(j_max - d, 0) * ESCAPE_LOG,
             d * ESCAPE_LOG)
    return m1 * d / (d - 1) if d >= 2 else m1


def _ratio_tail_m(d: int, terms: list[tuple[int, int, complex, float]]) -> float:
    """_plus_tail_constant of G_z^{alpha,+} on the weighted-ratio orbit of terms (_ratio_terms)."""
    return _plus_tail_constant(d, sum(abs(coeff) for _, _, coeff, _ in terms) + 1.0,
                               max(j for _, j, _, _ in terms))


def _gza_from_ratio(c: Classification, ro: _RatioOrbit, tol: float, plus: bool,
                    weightless: bool = False) -> GreenEstimate:
    """G_z^alpha, or G_z^{alpha,+} when plus, settled on the weighted-ratio orbit.

    weightless asks only whether the limit is finite, as G_z of a G_z^alpha
    of weight 0 does: with no term c^j, j > d, the c^d term leads past the
    escape radius, and the orbit stops there as 'escaped', its tail unknown.
    An orbit that ended 'closed' (ratio_orbit with the same plus and tol)
    closes the series at its limit as a producer exit past its last step:
    converged, with the close's residual and the fold.  ro is fresh, as
    every caller passes it, so ro.fold is the fold up to the settle's exit.
    """
    d, steps = c.d, ro._steps
    pairs = enumerate(map(itemgetter(0), ro))
    if weightless and all(j <= d for _, j, _, _ in ro.terms):
        pairs = ((n, GreenEstimate(_over(lc, d**n), n, TERM_ESCAPED, math.inf)
                  if lc > ESCAPE_LOG else lc) for n, lc in pairs)

    def close():   # read once the orbit has ended
        if ro._reason == "closed":
            yield ro._closed, GreenEstimate(ro._limit[0], ro._closed, TERM_CONVERGED, ro._limit[1])

    def fold(est: GreenEstimate) -> float:
        # past the escape radius the increments shrink at the rate 1/d, so the
        # tail past the last one, r, is about r/(d-1): an estimate read there
        # adds that, and r more is its margin
        past = d >= 2 and steps[est.n_used][0] > ESCAPE_LOG and est.finite
        return (est.residual / (d - 1) if past else 0.0) + ro.fold

    return _settle(chain(pairs, close()), d, tol, fold, plus,
                   _ratio_tail_m(d, ro.terms) if plus else 0.0,
                   lambda: (len(ro.log_mags) - 1   # a refusal below log|c| = 0 ends a dive
                            if ro.reason == "range" and ro.log_mags[-1] < 0 else None))


def _direct_tail_m(f: SkewProduct, c: Classification) -> float:
    """_plus_tail_constant of G_z^{alpha,+} on the direct orbit."""
    b, coeffs = f.q.terms[c.primary.vertex], f.q.terms.values()
    try:
        total = sum(abs(v) for v in coeffs) / abs(b)
    except OverflowError:   # a modulus past the double range
        total = sum(_abs_ratio(v, b) for v in coeffs)
    return _plus_tail_constant(c.d, total + 1, max(j for _, j in f.q.terms))


def _affine_parts(rate: int, x, forcing: list) -> list:
    """Parts (r, e, coeff) of x_m = sum coeff m^e r^m, x_{m+1} = rate x_m + sum c rho^m, x_0 = x.

    forcing holds (rho, c) with rho != 0; a rho equal to rate resonates (e = 1).
    """
    parts = [(rho, 0, c / (rho - rate)) if rho != rate else (rate, 1, c / rate)
             for rho, c in forcing]
    return parts + [(rate, 0, x - sum(c for _, e, c in parts if not e))]


def _direct_close(f: SkewProduct, c: Classification, which: str, vertex: tuple[int, int],
                  k: int, lz, lw):
    """(value, residual) of a direct limit from the state (L, W) = (lz, lw) at the switch step k.

    Past the switch the orbit is the affine map (L, W) -> (delta L + log|a|,
    g~ L + d~ W + log|b~|) of vertex = (g~, d~), so the series x_{k+m} of
    which is a sum of parts coeff m^e r^m (_affine_parts): the fastest
    nonzero part above base^m gives +-inf, those of rate base and e = 0 the
    limit base^-k coeff.  G_z^alpha reads u = W - alpha L by u' = d~ u +
    log|b~| - alpha log|a| (g~ = alpha (delta - d~)), G_z^inf with gamma > 0
    u = W - (gamma/d) n L by u' = d u + log|b| - (gamma/d)(n+1) log|a|; with
    gamma = 0 it is G_z, on either vertex, as base = lambda = d.  The residual
    is the rounding, 0 where the value is infinite.  For floats or lanes alike.
    """
    delta, la = f.delta, _lcoeff(f.p.leading_at_zero())
    (g, dv), lb = vertex, _lcoeff(f.q.terms[vertex])
    base = c.lam if which == "Gz" else c.d
    if which in ("Gza", "Gzap"):
        al = float(c.alpha)
        parts = _affine_parts(dv, lw - al * lz if al else lw, [(1, lb - al * la)])
    elif which == "Gzi" and c.gamma:   # delta = d, gamma > 0: one dominant vertex, the primary
        s = c.gamma / base
        parts = [(base, 0, lw - s * k * lz + lb / (base - 1)
                  - s * la * (k / (base - 1) + base / (base - 1) ** 2))]
    else:   # W by the affine map, driven by L = delta^m x + y
        y = -la / (delta - 1)
        parts = _affine_parts(dv, lw, [(delta, g * (lz - y)), (1, g * y + lb)])
    acc = {}
    for r, e, coeff in parts:
        acc[r, e] = acc.get((r, e), 0.0) + coeff
    value = _over(acc.get((base, 0), 0.0 * lw), base**k)
    size = abs(lz) + abs(lw) + sum(abs(coeff) for coeff in acc.values())
    for key in sorted(key for key in acc if key > (base, 0)):   # the fastest nonzero part decides
        value = _pick(acc[key] != 0.0, acc[key] * math.inf, value)
    residual = _pick(abs(value) == math.inf, 0.0, _ROUNDING * (1.0 + _over(size, base**k)))
    return (_pick(value < 0.0, 0.0, value) if which == "Gzap" else value), residual


def _pick(cond, a, b):
    """a where cond, else b: for a float or lanes."""
    return (a if cond else b) if cond.__class__ is bool else np.where(cond, a, b)


def _switch_close(f: SkewProduct, c: Classification, which: str, logs: _OrbitLogs, n: int,
                  lz: float, lw: float) -> GreenEstimate:
    """_direct_close at the switch step n of logs as an estimate: converged, or divergent."""
    value, residual = _direct_close(f, c, which, logs._dominant, n, lz, lw)
    tag = TERM_CONVERGED if math.isfinite(value) else TERM_DIV_POS if value > 0 else TERM_DIV_NEG
    return GreenEstimate(value, n, tag, residual)


def _gza_direct(f: SkewProduct, c: Classification, logs: _OrbitLogs, tol: float,
                plus: bool) -> GreenEstimate:
    """G_z^alpha, or G_z^{alpha,+} when plus, on the direct orbit logs, closed at its switch."""
    alpha, d, axis_inv = float(c.alpha), c.d, _w_axis_invariant(f)

    def ratio_logs():
        for n, lz, lw in logs:
            if n == logs._switch_step:   # the close; no step past it is read
                yield n, _switch_close(f, c, "Gzap" if plus else "Gza", logs, n, lz, lw)
                return
            if lw == -math.inf:
                if axis_inv:
                    yield n, -math.inf
                continue  # transient zero (j = 0 terms revive w); limit unaffected
            if lz == -math.inf and alpha != 0.0:
                # alpha > 0: the weighted ratio blows up along E_z; alpha < 0
                # (delta < d): the ratio |w z^|alpha|| tends to 0
                yield n, (GreenEstimate(math.inf, n, TERM_HIT_EZ, math.inf) if alpha > 0
                          else GreenEstimate(0.0 if plus else -math.inf, n,
                                             TERM_HIT_EZ, 0.0))
                return
            u = lw - (alpha * lz if alpha != 0.0 else 0.0)
            if u > ESCAPE_LOG:   # the orbit ends; its tail is below 1e-12 of the last term
                yield n, GreenEstimate(_over(u, d**n), n, TERM_ESCAPED, _over(3e-12, d**n))
                return
            yield n, u

    return _settle(ratio_logs(), d, tol, lambda est: _switch_fold(logs, d, est.n_used), plus,
                   _direct_tail_m(f, c) if plus else 0.0,
                   lambda: logs.steps[-1][0] if logs.reason == "range" else None)


def _gza(f: SkewProduct, c: Classification, z: complex, w: complex,
         n_max: int, tol: float, plus: bool) -> GreenEstimate:
    if (why := _refusal(c, "Gzap" if plus else "Gza")) is not None:
        raise ValueError(why)
    ro = ratio_orbit(f, c, z, w, n_max, plus, tol)
    if ro is not None:
        return _gza_from_ratio(c, ro, tol, plus)
    return _gza_direct(f, c, best_orbit_logs(f, c, z, w, n_max), tol, plus)


def g_z_alpha(f: SkewProduct, c: Classification, z: complex, w: complex,
              n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_z^alpha with the classification's (possibly redefined) alpha."""
    return _gza(f, c, z, w, n_max, tol, plus=False)


def g_z_alpha_plus(f: SkewProduct, c: Classification, z: complex, w: complex,
                   n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL
                   ) -> GreenEstimate:
    """G_z^{alpha,+} >= 0; zero when the weighted ratio never escapes."""
    return _gza(f, c, z, w, n_max, tol, plus=True)


def g_z_infty(f: SkewProduct, c: Classification, z: complex, w: complex,
              n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_z^infty for delta == d."""
    if (why := _refusal(c, "Gzi")) is not None:
        raise ValueError(why)
    return _gzi_direct(f, c, best_orbit_logs(f, c, z, w, n_max), tol)


def _gzi_direct(f: SkewProduct, c: Classification, logs: _OrbitLogs,
                tol: float) -> GreenEstimate:
    """G_z^infty settled on the direct orbit logs, closed at its switch (_direct_close)."""
    d, gamma = c.d, c.gamma
    axis_inv = _w_axis_invariant(f)

    def pairs():
        zero, slope = -math.inf, gamma / d
        for n, lz, lw in logs:
            if n == logs._switch_step:
                yield n, _switch_close(f, c, "Gzi", logs, n, lz, lw)
                return
            if lw == zero or lz == zero:
                if lw != zero:
                    yield n, GreenEstimate(math.inf, n, TERM_HIT_EZ, math.inf)
                elif lz == zero:
                    yield n, GreenEstimate(math.nan, n, TERM_HIT_ZERO, math.inf)
                elif axis_inv:
                    yield n, zero
                else:
                    continue  # transient zero, as in g_z
                return
            yield n, lw - slope * n * lz

    return _settle(pairs(), d, tol, lambda est: _switch_fold(logs, d, est.n_used))


def _w_axis_invariant(f: SkewProduct) -> bool:
    return all(j >= 1 for (_, j) in f.q.terms)


def g_z(f: SkewProduct, c: Classification, z: complex, w: complex,
        n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_z(w) = lim lambda^-n log|w_n|."""
    return _gz(f, c, z, w, n_max, tol, None)


def _gz(f: SkewProduct, c: Classification, z: complex, w: complex, n_max: int,
        tol: float, base: Optional[GreenEstimate]) -> GreenEstimate:
    """g_z, reusing base, the G_p estimate at z, where the caller already has it."""
    ro = ratio_orbit(f, c, z, w, n_max, False, tol)
    if ro is not None:
        est = _gz_composed(c, _gza_from_ratio(c, ro, tol, False, c.d < c.lam),
                           base if base is not None else g_p(f.p, z, n_max, tol))
        if est is not None:
            return est
    return _gz_direct(f, c, best_orbit_logs(f, c, z, w, n_max), tol)


def _gz_composed(c: Classification, part: GreenEstimate,
                 base: GreenEstimate) -> Optional[GreenEstimate]:
    """G_z = a G_z^alpha + b G_p, a = [d = lambda], b = [delta = lambda] alpha, or None.

    Both parts settle on their own, so their limits compose.  None where
    the direct orbit serves instead: a part that is not finite, such as a
    G_z^alpha whose escape a term c^j, j > d, comes to lead; or a
    G_z^alpha part of weight 0 that ended 'budget', since G_z needs its
    limit finite and an unsettled part cannot tell.  A part with weight
    0 (settled 'weightless', _gza_from_ratio) adds neither residual nor
    termination.
    """
    a = 1 if c.d == c.lam else 0
    if not (part.finite and base.finite) or (not a and part.termination == TERM_BUDGET):
        return None
    b = float(c.alpha) if c.delta == c.lam else 0.0
    term, residual = TERM_CONVERGED, 0.0
    for weight, est in ((a, part), (b, base)):
        if weight:
            if term == TERM_CONVERGED:
                term = est.termination
            residual += abs(weight) * est.residual
    return GreenEstimate(a * part.value + b * base.value, max(part.n_used, base.n_used),
                         term, residual)


def _gz_direct(f: SkewProduct, c: Classification, logs: _OrbitLogs,
               tol: float) -> GreenEstimate:
    """G_z on the direct orbit logs, closed at its switch, where the weighted ratio cannot serve.

    Where the w-axis is invariant a zero before the switch decides, so one is looked for first.
    """
    lam = c.lam
    if _w_axis_invariant(f):
        for n, _, lw in logs:
            if lw == -math.inf:
                return GreenEstimate(-math.inf, n, TERM_HIT_ZERO, 0.0)
            if n == logs._switch_step:
                break

    def pairs():
        for n, lz, lw in logs:
            if n == logs._switch_step:
                yield n, _switch_close(f, c, "Gz", logs, n, lz, lw)
                return
            if lw != -math.inf:   # a transient zero (j = 0 terms revive w) leaves the limit
                yield n, lw

    return _settle(pairs(), lam, tol, lambda est: _switch_fold(logs, lam, est.n_used))


def g_f(f: SkewProduct, c: Classification, z: complex, w: complex,
        n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_f = lim lambda^-n log max(|z_n|, |w_n|) (max norm)."""
    return _gf(f, c, "Gf", z, w, n_max, tol)


def g_f_alpha(f: SkewProduct, c: Classification, z: complex, w: complex,
              n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_f^alpha = lim lambda^-n log max(|z_n^alpha|, |w_n|), with z^0 = 1."""
    return _gf(f, c, "Gfa", z, w, n_max, tol)


def _gf(f: SkewProduct, c: Classification, which: str, z: complex, w: complex,
        n_max: int, tol: float) -> GreenEstimate:
    """G_f ('Gf') or G_f^alpha ('Gfa') = max(s Z, G_z), from one G_p."""
    zpart, base = _f_z_part(f, c, which, z, n_max, tol)
    if zpart.termination == TERM_HIT_EZ:
        return zpart
    return _max_of_parts(zpart, _gz(f, c, z, w, n_max, tol, base))


def _f_z_part(f: SkewProduct, c: Classification, which: str, z: complex, n_max: int,
              tol: float) -> tuple[GreenEstimate, Optional[GreenEstimate]]:
    """(s Z, the G_p estimate at z or None) for G_f (s = 1) or G_f^alpha (s = alpha).

    Z = lim lambda^-n log|z_n| = (delta/lambda)^n delta^-n log|z_n| is
    [delta = lambda] G_p: 0 where delta < lambda and G_p is finite, -inf
    where G_p is.  s = 0 gives the constant 0 (z^0 = 1) and needs no
    G_p; s < 0 on E_z, where G_p = -inf, gives +inf (hit_Ez).
    """
    if (why := _refusal(c, which)) is not None:
        raise ValueError(why)
    s = 1.0 if which == "Gf" else float(c.alpha)
    if not s:
        return GreenEstimate(0.0, 0, TERM_CONVERGED, 0.0), None
    base = g_p(f.p, z, n_max, tol)
    if base.value == -math.inf and s < 0:
        return GreenEstimate(math.inf, base.n_used, TERM_HIT_EZ, math.inf), base
    if base.finite and c.delta < c.lam:
        return GreenEstimate(0.0, base.n_used, base.termination, 0.0), base
    return GreenEstimate(s * base.value, base.n_used, base.termination,
                         abs(s) * base.residual), base


def _max_of_parts(a: GreenEstimate, b: GreenEstimate) -> GreenEstimate:
    """max(a, b) of two estimates, each of its own limit; n_used is the larger.

    Parts further apart than the sum of their residuals, neither of them
    'budget', order their limits as their values: the larger one keeps
    its value, tag and residual.  Otherwise the value is the max and the
    residual the larger one, since max is 1-Lipschitz in each argument;
    the tag is 'budget' if either part is (a budget residual bounds
    nothing), else the larger part's.
    """
    win = b if b.value > a.value else a
    n_used = max(a.n_used, b.n_used)
    budget = TERM_BUDGET in (a.termination, b.termination)
    if not budget and abs(a.value - b.value) > a.residual + b.residual:
        if win.n_used == n_used:
            return win
        return GreenEstimate(win.value, n_used, win.termination, win.residual)
    return GreenEstimate(win.value, n_used, TERM_BUDGET if budget else win.termination,
                         max(a.residual, b.residual))


# ---------------------------------------------------------------------------
# functional-equation residuals, sub-mean-value check, fiber preimages
# ---------------------------------------------------------------------------

def functional_residual(f: SkewProduct, c: Classification, kind: str,
                        z: complex, w: complex,
                        n_max: int = DEFAULT_N_MAX,
                        tol: float = DEFAULT_TOL) -> Optional[float]:
    """One-step functional-equation residual, or None on sentinel values.

    kind 'alpha':      |G_z^alpha(f(z,w)) - d G_z^alpha(z,w)|
    kind 'infty':      |G_z^inf(f(z,w)) - (d G_z^inf(z,w) + gamma G_p(z))|
    kind 'alpha_plus': |G_z^{alpha,+}(f(z,w)) - d G_z^{alpha,+}(z,w)|
    """
    z1, w1 = f(z, w)
    d = c.d
    if kind in ("alpha", "alpha_plus"):
        here = _gza(f, c, z, w, n_max, tol, plus=kind == "alpha_plus")
        there = _gza(f, c, z1, w1, n_max, tol, plus=kind == "alpha_plus")
        if not (here.finite and there.finite):
            return None
        return abs(there.value - d * here.value)
    if kind == "infty":
        here = g_z_infty(f, c, z, w, n_max, tol)
        there = g_z_infty(f, c, z1, w1, n_max, tol)
        base = g_p(f.p, z, n_max, tol)
        if not (here.finite and there.finite and base.finite):
            return None
        return abs(there.value - (d * here.value + c.gamma * base.value))
    raise ValueError(f"unknown functional-equation kind {kind!r}")


@dataclass(frozen=True)
class SubmeanResult:
    center_value: float
    circle_average: float
    deficit: float          # center - average; psh surrogate wants <= tol
    conclusive: bool


def submean_check(sampler: Callable[[list[complex]], Iterable[Optional[float]]],
                  center: complex, radius: float, m_points: int = 64) -> SubmeanResult:
    """Sub-mean-value spot check of a function on one complex circle.

    sampler maps the m_points + 1 points of the w-line, the center first,
    to the function's values there, in one call (for instance one
    fiber.fiber_sample); None or a non-finite value is a sentinel, and any
    sentinel makes the check inconclusive.  The values are read in order
    up to the first sentinel, so a lazy sampler such as map(fn, points)
    evaluates no point past it.
    """
    points = [center] + [center + radius * cmath.exp(2j * math.pi * k / m_points)
                         for k in range(m_points)]
    values = iter(sampler(points))
    cv = next(values)
    if cv is None or not math.isfinite(cv):
        return SubmeanResult(math.nan, math.nan, math.nan, False)
    total = 0.0
    for val in values:
        if val is None or not math.isfinite(val):
            return SubmeanResult(cv, math.nan, math.nan, False)
        total += val
    avg = total / m_points
    return SubmeanResult(cv, avg, cv - avg, True)


def fiber_zero_preimages(f: SkewProduct, z: complex, n: int,
                         residual_tol: float = 1e-8) -> list[complex]:
    """All roots of Q_z^n(w) = q_{z_{n-1}} o ... o q_z (w).

    Solved by composed companion-matrix root finding: roots of the last
    fiber map are pulled back one fiber at a time.  Verified against the
    forward composition; nearly coincident roots are merged.
    """
    if not 0 < n <= 6:
        raise ValueError("n must be between 1 and 6")
    zs = [complex(z)]
    for _ in range(n - 1):
        zs.append(f.p(zs[-1]))
    targets = [0j]
    for step in reversed(range(n)):
        fiber = f.q.fiber_poly(zs[step])
        degree = fiber.degree if fiber.terms else 0
        if degree < 1:
            raise ValueError(f"degenerate fiber at step {step} (z = {zs[step]})")
        coeffs = np.zeros(degree + 1, dtype=complex)
        for k, coeff in fiber.terms.items():
            coeffs[degree - k] = coeff
        new_targets: list[complex] = []
        for t in targets:
            shifted = coeffs.copy()
            shifted[-1] -= t
            new_targets.extend(complex(r) for r in np.roots(shifted))
        targets = new_targets
    verified = []
    for root in targets:
        wv = root
        for step in range(n):
            wv = f.q(zs[step], wv)
        if abs(wv) < residual_tol:
            verified.append(root)
    if len(verified) < len(targets):
        raise ValueError(
            f"{len(targets) - len(verified)} roots failed the residual check"
        )
    # merge multiplicity clusters
    merged: list[list[complex]] = []
    for root in sorted(verified, key=lambda r: (r.real, r.imag)):
        for cluster in merged:
            if abs(root - cluster[0]) < 1e-6:
                cluster.append(root)
                break
        else:
            merged.append([root])
    return [sum(cl) / len(cl) for cl in merged]


# ---------------------------------------------------------------------------
# per-lane arithmetic
# ---------------------------------------------------------------------------
#
# CPython's complex product, c**j, abs and math.log, replayed per lane
# (numpy's own differ in the last bit): the lane kernels of skewdyn.fiber
# and the lanes of regions and oracles use them.


def _cmul(ar, ai, br, bi):
    """(a * b) on split real and imaginary parts, as CPython multiplies."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cpow(squares: list, j: int):
    """c**j as CPython's c_powu forms it, but for its first product 1 * c; squares[k]: c^(2^k)."""
    r, k = None, 0
    while j >> k:
        if k == len(squares):
            squares.append(_cmul(*squares[-1], *squares[-1]))
        if (j >> k) & 1:
            r = squares[k] if r is None else _cmul(*r, *squares[k])
        k += 1
    return (1.0, 0.0) if r is None else r


def _log_abs(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """_lmag per lane: math.log of the modulus, -inf at exact zero."""
    mag = np.hypot(re, im)
    if (np.isinf(mag) & np.isfinite(re) & np.isfinite(im)).any():
        raise OverflowError("absolute value too large")  # as abs() of such a complex
    return _log_mag(mag)


def _log_mag(mag: np.ndarray) -> np.ndarray:
    """math.log per lane of the moduli mag, -inf at exact zero."""
    if (pos := mag > 0).all():
        return _math_map(math.log, mag)
    out = np.full(mag.shape, -math.inf)
    out[pos] = _math_map(math.log, mag[pos])
    return out


def _math_map(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn of the math module per lane, where numpy's own may differ in the last bit."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _gp_adapter(f: SkewProduct, c: Classification, z: complex, w: complex,
                n_max: int, tol: float) -> GreenEstimate:
    return g_p(f.p, z, n_max, tol)


ESTIMATORS: dict[str, Callable] = {
    "Gp": _gp_adapter,
    "Gza": g_z_alpha,
    "Gzi": g_z_infty,
    "Gzap": g_z_alpha_plus,
    "Gz": g_z,
    "Gf": g_f,
    "Gfa": g_f_alpha,
}
