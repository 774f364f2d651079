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
magnitudes by one driver, orbit_logs, over the components of the map: p
alone for G_p, p and q for the others.  Each component is a term table
with a dominant monomial.  The complex orbit is iterated exactly while
every non-negligible monomial stays inside the double-precision window;
past that the driver switches to the exact dominant-monomial recursion in
log space, but only after verifying that the dominant terms actually
dominate (the neglected level eta, folded as 4 eta / base^k for a switch
at step k, is added to the reported residual).  For integer weights alpha
the weighted ratio c_n = w_n / z_n^alpha satisfies its own polynomial
recursion with non-negative z-exponents, which reaches far deeper than
the raw orbit; G_z^alpha and G_z^alpha+ use it when it applies.  Its
driver, ratio_orbit, re-validates dominance at every step.  G_z^alpha and
G_z^alpha+ settle the ratio orbit and the direct orbit in one routine,
_settle_gza, each with its own error fold.  Since log|w_n| =
alpha log|z_n| + log|c_n| exactly, G_z there is composed from parts that
settle superexponentially, [d = lambda] G_z^alpha + [delta = lambda]
alpha G_p, as G_f^alpha at delta = d composes G_z^alpha+ with alpha G_p
(_composed); the direct orbit serves where a part is not finite and
where a G_z^alpha of weight 0, whose limit G_z needs finite, did not
settle.

Every estimator reads an orbit in two parts: an orbit producer and a
settle routine.  The per-point drivers (orbit_logs, best_orbit_logs,
ratio_orbit) are pulled: each returns an orbit whose steps are computed
only as the settle routine reads them, and cached.  A settle routine
that reads in order and stops at its exit computes no step past it:
g_p, _settle_gza (G_z^alpha, G_z^{alpha,+} and the composed G_z and
G_f^alpha), _gzi_direct and regions.classify_point.  _gz_direct and
_max_of_limits drain the orbit before they settle, because a zero
anywhere on it decides how they settle.
fiber_sample evaluates a whole fiber {z} x ws; its kernels replay the
scalar drivers bit for bit on all lanes at once, computing the z side
once per step: _fiber_ratio for the weighted ratio, and _fiber_logs for
the direct orbit.  The direct lanes come out finished as arrays, and
_fiber_direct settles them together, a column of steps at a time, as
the scalar settle routines settle one orbit.

Both direct drivers keep one rule for the alternate vertex of a
two-dominant-term map: only an orbit that ended 'range' at a refused
switch tries it, and it resumes from that orbit's last step, switching
at the very next step or not at all (_alternate_steps).  Past the switch
an orbit follows the exact log recursion alone (_extension_steps); the
lane kernel runs that recursion for every switched lane of a batch as
one column loop (_lanes_tail) and cuts each lane at its exit afterwards.
A step the recursion overflows ends the orbit as 'range' before it, so
-inf in an orbit always means an exact zero.

Infinite values are sentinels (math.inf) with a termination tag, never
silent NaNs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .algebra import SkewProduct, UniPoly
from .newton import Classification

DEFAULT_N_MAX = 64
DEFAULT_TOL = 1e-10
ESCAPE_LOG = math.log(1e12)

_WINDOW = 690.0          # |log| range where double products stay representable
_NEGLIGIBLE_GAP = 40.0   # terms this many e-folds below the max are droppable
_TAIL_TOL = 1e-9         # dominance level required to extend in log space

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


@dataclass(frozen=True)
class FiberFunctionSample:
    """Grid of estimates over one fiber {z} x rectangle, row-major order."""

    z: complex
    ws: tuple[complex, ...]
    estimates: tuple[GreenEstimate, ...]


def _lmag(x: complex) -> float:
    m = abs(x)
    return math.log(m) if m > 0 else -math.inf


# ---------------------------------------------------------------------------
# orbit drivers
# ---------------------------------------------------------------------------

class _PulledSteps:
    """Steps of a per-point orbit driver, computed only as consumers pull them.

    The driver is a generator (source) that yields one step at a time and
    keeps its running diagnostics on this object.  Every step it yields is
    cached before the source resumes, so several readers see the same
    orbit, none computes a step twice, and the source may read its own
    steps so far.  A source may hand the rest of the orbit to a successor
    source by setting _source to it before it returns.  A finished orbit
    (source None) iterates as its plain list.
    """

    __slots__ = ("_steps", "_source")

    def __init__(self, steps: list):
        self._steps = steps
        self._source: Optional[Iterator] = None

    def __iter__(self) -> Iterator:
        return iter(self._steps) if self._source is None else self._pull()

    def _pull(self) -> Iterator:
        steps, k = self._steps, 0
        while True:
            while k < len(steps):
                yield steps[k]
                k += 1
            source = self._source
            if source is None:
                return
            for step in source:
                steps.append(step)
                yield step
                k += 1
                if k < len(steps):   # another reader pulled further meanwhile
                    break
            else:
                if self._source is source:   # no successor
                    self._source = None

    def _drain(self) -> list:
        """Every step, the source (and its successors) run to its end first."""
        append = self._steps.append
        while (source := self._source) is not None:
            for step in source:
                append(step)
            if self._source is source:
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

    Lazy consumers iterate the orbit and stop at their exit, so no step
    past it is computed: g_p, _gza_direct, _gzi_direct and
    regions.classify_point.  While the orbit runs, _switch_step,
    _switch_eta and _dominant hold the values of the steps computed so
    far; the switch and the vertex that drives it are set before the
    switch step is yielded, so a consumer reads them at or after that
    step.  Draining consumers read the public fields, which compute the
    whole orbit first: _gz_direct and _max_of_limits scan the whole orbit
    for zeros before they settle.
    """

    __slots__ = ("_reason", "_switch_step", "_switch_eta", "_dominant")

    def __init__(self, steps: list, reason: str, switch_step: Optional[int],
                 switch_eta: float, dominant: Optional[tuple[int, int]]):
        super().__init__(steps)
        self._reason = reason              # 'complete' | 'escaped' | 'range'
        self._switch_step = switch_step
        self._switch_eta = switch_eta
        self._dominant = dominant          # q vertex driving the extension

    steps = _final("_steps")
    reason = _final("_reason")
    switch_step = _final("_switch_step")
    switch_eta = _final("_switch_eta")
    dominant = _final("_dominant")


def _terms_safe(term_logs: list[float]) -> bool:
    """True when a polynomial value computes faithfully in doubles.

    The result magnitude tracks the top term, so the top must sit inside
    the window, and every other term must be representable or negligible
    relative to the top.  -inf terms are exact zeros and never block.
    """
    top = max(term_logs)
    if top == -math.inf:
        return True
    if top > _WINDOW or top < -_WINDOW:
        return False
    return all(t >= -_WINDOW or t <= top - _NEGLIGIBLE_GAP for t in term_logs)


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
        top = abs(terms[dom])
        for (key, coeff), t in zip(terms.items(), tl):
            if key != dom:
                eta += abs(coeff) / top * math.exp(min(t - base, 700.0))
    return eta


def orbit_logs(f: SkewProduct | UniPoly, dominant: Optional[tuple[int, int]],
               z: complex, w: Optional[complex], n_max: int,
               alternates: Iterable[tuple[int, int]] = ()) -> _OrbitLogs:
    """Log-magnitude orbit with validated extension past the float window.

    The components are p alone (f a UniPoly; w is ignored and log_w stays
    0) or p and q (f a skew product).  Each is a term table with a
    dominant monomial, (delta, 0) for p and `dominant` for q, whose exact
    log recursion continues the orbit once it leaves the double range.
    Where `dominant` refuses the switch, the alternates of q are tried in
    order (_alternate_steps).  The steps are computed as they are read
    (_OrbitLogs).
    """
    logs = _OrbitLogs([], "complete", None, 0.0, dominant)
    logs._source = _log_steps(logs, f, dominant, z, w, n_max, alternates)
    return logs


def _log_steps(logs: _OrbitLogs, f: SkewProduct | UniPoly,
               dominant: Optional[tuple[int, int]], z: complex, w: Optional[complex],
               n_max: int, alternates: Iterable[tuple[int, int]]
               ) -> Iterator[tuple[int, float, float]]:
    """orbit_logs' exact steps one by one; the switch and the end go on logs.

    At the switch the log recursion takes over as the successor source.
    """
    p, q = (f, None) if isinstance(f, UniPoly) else (f.p, f.q)
    comps = _components(f, dominant)
    z, w = complex(z), (1 + 0j if q is None else complex(w))
    lz, lw = _lmag(z), _lmag(w)
    yield 0, lz, lw
    for n in range(1, n_max + 1):
        if lz > ESCAPE_LOG or lw > ESCAPE_LOG:
            logs._reason = "escaped"
            return
        if (eta := _extension_eta(comps, lz, lw)) is not None:
            if eta < _TAIL_TOL and lz > -math.inf and lw > -math.inf:
                logs._switch_step, logs._switch_eta = n, eta
                logs._source = _extension_steps(logs, f, dominant, n, lz, lw, n_max)
            else:
                logs._reason = "range"
                logs._source = _alternate_steps(logs, f, alternates, n, lz, lw, n_max)
            return
        try:
            z, w = p(z), (w if q is None else q(z, w))
        except OverflowError:
            logs._reason = "escaped"
            return
        if not (math.isfinite(abs(z)) and math.isfinite(abs(w))):
            logs._reason = "escaped"
            return
        lz, lw = _lmag(z), _lmag(w)
        yield n, lz, lw


def _components(f: SkewProduct | UniPoly, dominant: Optional[tuple[int, int]]) -> list:
    """The term tables of orbit_logs' components, each with its dominant monomial."""
    p, q = (f, None) if isinstance(f, UniPoly) else (f.p, f.q)
    comps = [({(k, 0): coeff for k, coeff in p.terms.items()}, (p.order, 0))]
    if q is not None:
        comps.append((q.terms, dominant))
    return comps


def _extension_steps(logs: _OrbitLogs, f: SkewProduct | UniPoly,
                     dominant: Optional[tuple[int, int]], n: int, lz: float, lw: float,
                     n_max: int) -> Iterator[tuple[int, float, float]]:
    """Steps n..n_max by the dominant-monomial log recursion from step n - 1's logs.

    A step past ESCAPE_LOG ends the orbit as 'escaped' after it, as in
    _log_steps; a non-finite step (the recursion overflowed the double
    range) ends it as 'range' before it, so -inf on an orbit is always an
    exact zero.
    """
    p, q = (f, None) if isinstance(f, UniPoly) else (f.p, f.q)
    delta, log_a = p.order, _lmag(p.leading_at_zero())
    if q is not None:
        (gamma, d), log_b = dominant, _lmag(q.terms[dominant])
    while True:
        lz, lw = log_a + delta * lz, (lw if q is None else log_b + gamma * lz + d * lw)
        if not (math.isfinite(lz) and math.isfinite(lw)):
            logs._reason = "range"
            return
        yield n, lz, lw
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


def _alternate_steps(logs: _OrbitLogs, f: SkewProduct, alternates: Iterable[tuple[int, int]],
                     n: int, lz: float, lw: float, n_max: int) -> Optional[Iterator]:
    """The steps from n on of the alternate that carries on past a refused switch, or None.

    The primary vertex refused to switch at step n, the first step that
    fails the dominance check, so its orbit ends as 'range' with step
    L = n - 1, whose logs are (lz, lw); up to step L every vertex computes
    the same exact steps.  An alternate carries further only by switching
    at that very step, so it resumes from step L: it switches where its
    eta there passes the test, and its log recursion continues the orbit
    from step n.  At most one vertex passes the test at a point (each
    bounds the others' terms against its own), so the first that passes
    is the one that carries furthest.
    """
    if lz == -math.inf or lw == -math.inf:
        return None   # an exact zero coordinate cannot switch
    for vertex in alternates:
        eta = _extension_eta(_components(f, vertex), lz, lw)
        if eta < _TAIL_TOL:
            logs._reason, logs._dominant = "complete", vertex
            logs._switch_step, logs._switch_eta = n, eta
            return _extension_steps(logs, f, vertex, n, lz, lw, n_max)
    return None


def _switch_fold(logs: _OrbitLogs, base: int, n_used: int) -> float:
    """Value error of the log-space extension in a partial read at step n_used.

    A switch at step k with neglected-term level eta moves base^-n log|.|
    by at most 4 eta base^-k.  Reads the running switch, so the orbit
    must have been read up to step n_used.
    """
    if logs._switch_step is None or logs._switch_step > n_used:
        return 0.0
    return 4 * logs._switch_eta / base**logs._switch_step


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
    if isinstance(x, np.ndarray):
        return np.array([_over_exact(v, den) for v in x.tolist()], float)
    return _over_exact(x, den)


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
    usable when alpha is an integer and every i~ is >= 0.
    """
    if alpha.denominator != 1:
        return None
    al = int(alpha)
    terms = [(i + al * (j - f.delta), j, b) for (i, j), b in f.q.terms.items()]
    if any(it < 0 for it, _, _ in terms):
        return None
    a_pow = f.p.leading_at_zero() ** al
    return [(it, j, b / a_pow, math.log(abs(b / a_pow))) for it, j, b in terms]


def _p_tail(f: SkewProduct) -> list[tuple[complex, int]]:
    """(coeff / a, k - delta) for each term of p past its leading a z^delta."""
    a = f.p.leading_at_zero()
    return [(coeff / a, k - f.delta) for k, coeff in f.p.terms.items() if k != f.delta]


def _p_tail_log(tail: list[tuple[complex, int]], lz: complex) -> complex:
    """p-tail correction log(p(z)/(a z^delta)) at log z; exact 0 once z underflows."""
    if not tail:
        return 0j   # cmath.log(1 + 0)
    zv = cmath.exp(lz) if lz.real > -700.0 else 0j
    return cmath.log(1 + sum(ca * zv ** e for ca, e in tail))


class _RatioOrbit(_PulledSteps):
    """Weighted-ratio orbit steps (log|c_n|, eta_n), pulled from ratio_orbit.

    log|c_n| is -inf for an exact zero; eta_n is the step's neglected-term
    bound, 0 on exact steps.  _gza_from_ratio, and through it G_z^alpha,
    G_z^{alpha,+} and the composed G_z and G_f^alpha, reads the steps in
    order and stops at its exit.  The public fields compute the whole
    orbit first.
    """

    __slots__ = ("_reason",)

    def __init__(self):
        super().__init__([])
        self._reason = "complete"   # 'complete' | 'escaped' | 'zero' | 'range'

    reason = _final("_reason")

    @property
    def log_mags(self) -> list[float]:
        return [lc for lc, _ in self._drain()]

    @property
    def etas(self) -> list[float]:
        return [eta for _, eta in self._drain()]

    def fold_bound(self, d: int, upto: int) -> float:
        """Bound on the accumulated value error: sum 2 eta_k d^-k, k <= upto.

        Reads the steps computed so far, which must reach step upto.
        """
        # a plain left-to-right sum, as the fiber kernel keeps it; sum() of
        # floats is compensated from Python 3.12 on
        total = 0.0
        for k, (_, e) in enumerate(self._steps[: upto + 1]):
            if e:
                total += _over(2.0 * e, d**k)
        return total


def ratio_orbit(f: SkewProduct, alpha: Fraction, z: complex, w: complex,
                n_max: int) -> Optional[_RatioOrbit]:
    """Orbit of c_n = w_n / z_n^alpha for integer alpha; None if unsupported.

    Tracks the complex log of z_n, so the recursion stays exact long
    after z_n itself leaves the double range.  Once the ratio dives
    toward zero and a single monomial of the recursion provably
    dominates, the magnitude continues by the exact dominant log
    recursion, re-validated at every step.  The steps are computed as
    they are read (_RatioOrbit).
    """
    term_list = _ratio_terms(f, alpha)
    if term_list is None or z == 0:
        return None
    ro = _RatioOrbit()
    ro._source = _ratio_steps(ro, f, int(alpha), term_list, z, w, n_max)
    return ro


def _ratio_steps(ro: _RatioOrbit, f: SkewProduct, al: int,
                 term_list: list[tuple[int, int, complex, float]], z: complex,
                 w: complex, n_max: int) -> Iterator[tuple[float, float]]:
    """ratio_orbit's steps one by one; the end goes on ro."""
    log_a = cmath.log(f.p.leading_at_zero())
    tail = _p_tail(f)
    delta = f.delta
    lz = cmath.log(complex(z))
    c = complex(w) * cmath.exp(-al * lz) if al else complex(w)
    lc = _lmag(c)
    yield lc, 0.0
    extended = False
    dom = None  # (it, j, log|coeff|) of the validated dominant monomial
    for _ in range(n_max):
        if lc > ESCAPE_LOG or lz.real > ESCAPE_LOG:
            ro._reason = "escaped"
            return
        if not extended and lc == -math.inf:
            ro._reason = "zero"
            return
        lzr = lz.real
        corr = _p_tail_log(tail, lz)
        tlogs = [
            (it * lzr if it else 0.0) + (j * lc if j else 0.0) + lb
            for it, j, _, lb in term_list
        ]
        if extended or not _terms_safe(tlogs):
            top_idx = max(range(len(tlogs)), key=tlogs.__getitem__)
            top = tlogs[top_idx]
            eta = 0.0  # summed left to right, as in fold_bound
            for k, t in enumerate(tlogs):
                if k != top_idx and t - top > -80.0:
                    eta += math.exp(t - top)
            if eta < _SOFT_TAIL_TOL and top > -math.inf:
                it, j, _, lb = term_list[top_idx]
                dom = (it, j, lb)
                extended = True
            else:
                ro._reason = "range"
                return
            lc = dom[2] + dom[0] * lzr + dom[1] * lc - al * corr.real
            lz = log_a + delta * lz + corr
            step_eta = eta
        else:
            step_eta = 0.0
            try:
                nxt = 0j
                for it, j, coeff, _ in term_list:
                    zfac = cmath.exp(it * lz - al * corr) if it else cmath.exp(-al * corr)
                    nxt += coeff * (c**j) * zfac
            except OverflowError:
                ro._reason = "escaped"
                return
            if not (math.isfinite(nxt.real) and math.isfinite(nxt.imag)):
                ro._reason = "escaped"
                return
            lz = log_a + delta * lz + corr
            c = nxt
            lc = _lmag(c)
        yield lc, step_eta
        if lc == -math.inf:
            ro._reason = "zero"
            return


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
        prev = self.inc
        if self.g is not None:
            self.inc = g - self.g
        self.g, self.n = g, n
        inc = self.inc
        if inc is None:
            return None
        if prev is not None and abs(inc) < self.tol and abs(prev) < self.tol:
            return GreenEstimate(g, n, TERM_CONVERGED, abs(inc))
        if not abs(inc) > self.floor:   # nan included
            self.run = 0
        elif self.run and (inc > 0) == (prev > 0) and not abs(inc) < 0.9 * abs(prev):
            self.run += 1
        else:
            self.run = 1
        if self.run >= 5:
            if inc > 0:
                return GreenEstimate(math.inf, n, TERM_DIV_POS, abs(inc))
            return GreenEstimate(-math.inf, n, TERM_DIV_NEG, abs(inc))
        return None

    def finish(self) -> GreenEstimate:
        if self.g is None:
            return GreenEstimate(math.nan, 0, TERM_BUDGET, math.inf)
        residual = math.inf if self.inc is None else abs(self.inc)
        # a truncated orbit whose last visible increment already settled converged
        tag = TERM_CONVERGED if residual < self.tol else TERM_BUDGET
        return GreenEstimate(self.g, self.n, tag, residual)


def _fold_residual(est: GreenEstimate, extra: float) -> GreenEstimate:
    if extra <= 0:
        return est
    return GreenEstimate(est.value, est.n_used, est.termination, est.residual + extra)


def _series_limit(partials: Iterable[tuple[int, float]], tol: float) -> GreenEstimate:
    """The settler's first final estimate over pairs (n, g_n), else its finish."""
    settler = _Settler(tol)
    for n, g in partials:
        est = settler.push(g, n)
        if est is not None:
            return est
    return settler.finish()


def _settle_gza(pairs: Iterable[tuple[int, float | GreenEstimate]], d: int, tol: float,
                plus: bool, tail_m: float, shift: float, fold: Callable[[int], float],
                range_end: Callable[[], Optional[int]]) -> GreenEstimate:
    """G_z^alpha, or G_z^{alpha,+} when plus, from pairs (n, log|c_n|).

    c_n is the weighted ratio w_n / z_n^alpha.  The pairs are read in
    order up to the first final estimate: a sentinel estimate in place of
    log|c_n| (the orbit hit E_z), an exact zero, an escape, the certified
    tail bound (plus) or the settler.  Past the last pair come zero for
    plus when the ratio dove below the double range at step range_end()
    (None otherwise; called only once the pairs have run out), then the
    settler's finish.  fold(n) bounds the error the orbit itself carries
    up to step n; it is added to every estimate but the sentinels.  shift
    is added to log|c_n| at the escape exit (_escape_shift).
    """
    settler = _Settler(tol)
    for n, lr in pairs:
        if isinstance(lr, GreenEstimate):
            return lr
        if lr == -math.inf:
            return GreenEstimate(0.0 if plus else -math.inf, n, TERM_HIT_ZERO, 0.0)
        if lr > ESCAPE_LOG:
            # tail past the escape radius is below 1e-12 of the last term
            est = GreenEstimate(_over(lr + shift, d**n), n, TERM_ESCAPED, _over(3e-12, d**n))
        elif plus:
            # converged only when the certified tail bound is below tol;
            # increments alone can sit on the spurious log+ = 0 plateau
            bound = _over(tail_m, d**n) if d >= 2 else math.inf
            if bound >= tol:
                settler.push(_over(max(lr, 0.0), d**n), n)
                continue
            est = GreenEstimate(_over(max(lr, 0.0), d**n), n, TERM_CONVERGED, bound)
        else:
            est = settler.push(_over(lr, d**n), n)
            if est is None:
                continue
        return _fold_residual(est, fold(est.n_used))
    if plus and d >= 2 and (end := range_end()) is not None:
        # the ratio dove below the double range: every later bounce is
        # bounded by shrinking z-powers, so the escape rate is zero; it is
        # converged only when the certified tail bound is below tol
        bound = _over(tail_m, d**end)
        est = GreenEstimate(0.0, end, TERM_CONVERGED if bound < tol else TERM_BUDGET, bound)
    else:
        est = settler.finish()
    return _fold_residual(est, fold(est.n_used))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def g_p(p: UniPoly, z: complex, n_max: int = DEFAULT_N_MAX,
        tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_p(z) = lim delta^-n log|p^n(z)| with delta the order of p at 0."""
    delta = p.order
    logs = orbit_logs(p, None, z, None, n_max)
    settler = _Settler(tol)
    for n, lz, _ in logs:
        if lz == -math.inf:
            # an exact zero z_n = 0 ends the sequence; it did not settle before
            est = GreenEstimate(-math.inf, n, TERM_HIT_ZERO, 0.0)
            break
        est = settler.push(lz / delta**n, n)
        if est is not None:
            break
    else:
        est = settler.finish()
        if est.termination == TERM_BUDGET and logs.reason == "escaped":
            est = GreenEstimate(est.value, est.n_used, TERM_ESCAPED, est.residual)
    return _fold_residual(est, _switch_fold(logs, delta, est.n_used))


def _require_d(c: Classification, minimum: int = 1) -> int:
    if c.d < minimum:
        raise ValueError(f"estimator requires fiber degree d >= {minimum}, got d = {c.d}")
    return c.d


def _plus_tail_constant(d: int, coeff_sum: float) -> float:
    """M with |G+ - d^-n log+|c_n|| <= M d^-n, from the one-step defect.

    log+|c'| - d log+|c| is bounded above by log(sum of coefficient
    magnitudes) and below by -d log(escape radius) until escape, so the
    geometric tail is controlled by M = max(...) * d/(d-1).
    """
    m1 = max(math.log(max(coeff_sum, 1.0)) + 1.0, d * ESCAPE_LOG)
    return m1 * d / (d - 1) if d >= 2 else m1


def _ratio_coeff_sum(f: SkewProduct, alpha: Fraction) -> float:
    return sum(abs(coeff) for _, _, coeff, _ in _ratio_terms(f, alpha)) + 1.0


def _escape_shift(terms: list[tuple[int, int, complex, float]], d: int) -> float:
    """log|b|/(d-1), b the (0, d) coefficient of the ratio recursion, when it leads at escape.

    Past the escape radius c' = b c^d (1 + o(1)) when no term has a higher
    j, so log|c_n| + log|b|/(d-1) grows like d^n exactly and its d^-n
    multiple is the escape rate; 0.0 where there is no such b or d < 2.
    """
    if d < 2 or any(j > d for _, j, _, _ in terms):
        return 0.0
    return next((lb / (d - 1) for it, j, _, lb in terms if it == 0 and j == d), 0.0)


def _gza_from_ratio(f: SkewProduct, c: Classification, ro: _RatioOrbit, tol: float,
                    plus: bool) -> GreenEstimate:
    tail_m = _plus_tail_constant(c.d, _ratio_coeff_sum(f, c.alpha)) if plus else 0.0
    shift = _escape_shift(_ratio_terms(f, c.alpha), c.d)
    return _settle_gza(enumerate(lc for lc, _ in ro), c.d, tol, plus, tail_m, shift,
                       lambda n: ro.fold_bound(c.d, n),
                       lambda: len(ro.log_mags) - 1 if ro.reason == "range" else None)


def _direct_tail_m(f: SkewProduct, c: Classification) -> float:
    """_plus_tail_constant of G_z^{alpha,+} on the direct orbit."""
    b = abs(f.q.terms[c.primary.vertex])
    return _plus_tail_constant(c.d, sum(abs(v) for v in f.q.terms.values()) / b + 1)


def _line_recursion(f: SkewProduct, c: Classification, dominant: tuple[int, int]
                    ) -> Optional[tuple[int, float]]:
    """(d~, log|b~| - alpha log|a|) when the extension vertex lies on the sweep line, else None.

    Past the switch, log|w_n| and alpha log|z_n| both grow like delta^n
    and their difference cancels catastrophically; when the extension
    vertex (g~, d~) sits on the sweep line (g~ = alpha (delta - d~), exact
    in rationals), the weighted ratio obeys its own exact recursion
    u' = d~ u + (log|b~| - alpha log|a|).
    """
    g_dom, d_dom = dominant
    if Fraction(g_dom) + c.alpha * (d_dom - f.delta) != 0:
        return None
    return d_dom, _lmag(f.q.terms[dominant]) - float(c.alpha) * _lmag(f.p.leading_at_zero())


def _gza_direct(f: SkewProduct, c: Classification, logs: _OrbitLogs, tol: float,
                plus: bool) -> GreenEstimate:
    """G_z^alpha, or G_z^{alpha,+} when plus, settled on the direct orbit logs."""
    alpha = float(c.alpha)
    d = c.d
    tail_m = _direct_tail_m(f, c)
    axis_inv = _w_axis_invariant(f)

    def ratio_logs():
        u = None
        switched, line = False, None   # _line_recursion(), read at the switch
        for n, lz, lw in logs:
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
            if not switched and logs._switch_step is not None and n >= logs._switch_step:
                switched, line = True, _line_recursion(f, c, logs._dominant)
            if line and u is not None:
                u = line[0] * u + line[1]
            else:
                u = lw - (alpha * lz if alpha != 0.0 else 0.0)
            yield n, u

    return _settle_gza(ratio_logs(), d, tol, plus, tail_m, 0.0,
                       lambda n: _switch_fold(logs, d, n),
                       lambda: logs.steps[-1][0] if logs.reason == "range" else None)


def _gza(f: SkewProduct, c: Classification, z: complex, w: complex,
         n_max: int, tol: float, plus: bool) -> GreenEstimate:
    _require_d(c)
    if c.alpha is None:
        raise ValueError("alpha undefined (gamma > 0, delta == d): use g_z_infty")
    ro = ratio_orbit(f, c.alpha, z, w, n_max)
    if ro is not None:
        return _gza_from_ratio(f, c, ro, tol, plus)
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
    d = _require_d(c)
    if c.delta != d:
        raise ValueError(f"G_z^infty requires delta == d, got {c.delta} != {d}")
    return _gzi_direct(f, c, best_orbit_logs(f, c, z, w, n_max), tol)


def _gzi_direct(f: SkewProduct, c: Classification, logs: _OrbitLogs,
                tol: float) -> GreenEstimate:
    """G_z^infty settled on the direct orbit logs."""
    d, gamma = c.d, c.gamma
    settler = _Settler(tol)
    # cancellation-free extension of u_n = log|w_n| - (gamma n / d) log|z_n|
    # past the switch, valid when the extension uses the primary vertex:
    # u' = d u + log|b| - (gamma/d)(n+1) log|a|
    log_a = _lmag(f.p.leading_at_zero())
    log_b = _lmag(f.q.terms[c.primary.vertex])
    axis_inv = _w_axis_invariant(f)
    u_prev: Optional[float] = None
    est = None
    for n, lz, lw in logs:
        if lw == -math.inf and lz == -math.inf:
            return GreenEstimate(math.nan, n, TERM_HIT_ZERO, math.inf)
        if lw == -math.inf:
            if not axis_inv:
                continue  # transient zero, as in g_z
            return GreenEstimate(-math.inf, n, TERM_HIT_ZERO, 0.0)
        if lz == -math.inf:
            return GreenEstimate(math.inf, n, TERM_HIT_EZ, math.inf)
        if (logs._switch_step is not None and n >= logs._switch_step and u_prev is not None
                and logs._dominant == c.primary.vertex and c.delta == d):
            u = d * u_prev + log_b - (gamma / d) * n * log_a
        else:
            u = lw - (gamma / d) * n * lz
        u_prev = u
        est = settler.push(u / d**n, n)
        if est is not None:
            break
    if est is None:
        est = settler.finish()
    return _fold_residual(est, _switch_fold(logs, d, est.n_used))


def _w_axis_invariant(f: SkewProduct) -> bool:
    return all(j >= 1 for (_, j) in f.q.terms)


def g_z(f: SkewProduct, c: Classification, z: complex, w: complex,
        n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_z(w) = lim lambda^-n log|w_n|."""
    ro = ratio_orbit(f, c.alpha, z, w, n_max) if c.alpha is not None and c.d >= 1 else None
    if ro is not None:
        refuse_escape = any(j > c.d for _, j, _, _ in _ratio_terms(f, c.alpha))
        est = _gz_composed(c, _gza_from_ratio(f, c, ro, tol, plus=False),
                           g_p(f.p, z, n_max, tol), refuse_escape)
        if est is not None:
            return est
    return _gz_direct(f, c, best_orbit_logs(f, c, z, w, n_max), tol)


def _gz_composed(c: Classification, part: GreenEstimate, base: GreenEstimate,
                 refuse_escape: bool) -> Optional[GreenEstimate]:
    """G_z = [d = lambda] G_z^alpha + [delta = lambda] alpha G_p, or None.

    None where the direct orbit serves instead: a part that is not finite;
    a G_z^alpha part of weight 0 that ended 'budget', since G_z needs its
    limit finite and an unsettled part cannot tell; or, with refuse_escape
    (the recursion has a term c^j, j > d), an escape of the ratio, where
    d^-n log|c_n| grows without bound once that term leads.
    """
    a = 1 if c.d == c.lam else 0
    if ((part.termination == TERM_ESCAPED and refuse_escape)
            or (not a and part.termination == TERM_BUDGET)):
        return None
    return _composed(part, base, a, float(c.alpha) if c.delta == c.lam else 0.0)


def _gz_direct(f: SkewProduct, c: Classification, logs: _OrbitLogs,
               tol: float) -> GreenEstimate:
    """G_z settled on the direct orbit logs, where the weighted ratio cannot serve."""
    lam = c.lam
    if _w_axis_invariant(f):
        n_zero = next((n for n, _, lw in logs.steps if lw == -math.inf), None)
        if n_zero is not None:
            return GreenEstimate(-math.inf, n_zero, TERM_HIT_ZERO, 0.0)
    # a transient zero (j = 0 terms revive w) leaves the limit unaffected
    est = _series_limit(((n, lw / lam**n) for n, _, lw in logs.steps if lw != -math.inf), tol)
    return _fold_residual(est, _switch_fold(logs, lam, est.n_used))


def _max_of_limits(f: SkewProduct, c: Classification, logs: _OrbitLogs, tol: float,
                   z_scale: float) -> GreenEstimate:
    """lim lambda^-n max(z_scale log|z_n|, log|w_n|) settled on the direct orbit logs.

    The raw max sequence can sit on a transient plateau before the two
    branches cross, so each branch is settled on its own and the limits
    are combined (valid whenever both limits exist in [-inf, inf)).
    """
    lam = c.lam
    steps = logs.steps
    n_zero = next((n for n, lz, lw in steps if lz == -math.inf and lw == -math.inf), None)
    if n_zero is not None:
        return GreenEstimate(-math.inf, n_zero, TERM_HIT_ZERO, 0.0)
    z_zero = any(lz == -math.inf for _, lz, _ in steps)  # z stays on the invariant fiber z = 0
    w_zero = _w_axis_invariant(f) and any(lw == -math.inf for _, _, lw in steps)
    z_vals = ((n, lz / lam**n) for n, lz, _ in steps if lz != -math.inf)
    w_vals = ((n, lw / lam**n) for n, _, lw in steps if lw != -math.inf)

    if z_zero and z_scale < 0:
        return GreenEstimate(math.inf, len(steps) - 1, TERM_HIT_EZ, math.inf)
    parts: list[tuple[float, GreenEstimate | None]] = []
    if z_scale == 0.0:
        parts.append((0.0, None))
    elif z_zero:
        parts.append((-math.inf, None))
    else:
        ez = _series_limit(z_vals, tol)
        val = z_scale * ez.value
        if ez.termination in (TERM_DIV_NEG, TERM_DIV_POS):
            val = -math.inf if (ez.value < 0) == (z_scale > 0) else math.inf
        parts.append((val, ez))
    if w_zero:
        parts.append((-math.inf, None))
    else:
        ew = _series_limit(w_vals, tol)
        val = ew.value if ew.termination != TERM_DIV_NEG else -math.inf
        parts.append((val, ew))

    value = max(p[0] for p in parts)
    ests = [p[1] for p in parts if p[1] is not None]
    n_used = max((e.n_used for e in ests), default=len(steps) - 1)
    residual = sum((e.residual for e in ests), 0.0)   # inf where a part did not settle
    termination = TERM_CONVERGED
    for e in ests:
        if e.termination == TERM_BUDGET:
            termination = TERM_BUDGET
    if value == math.inf:
        termination = TERM_DIV_POS
    elif value == -math.inf:
        termination = TERM_HIT_ZERO
    return _fold_residual(GreenEstimate(value, n_used, termination, residual),
                          _switch_fold(logs, lam, n_used))


def g_f(f: SkewProduct, c: Classification, z: complex, w: complex,
        n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_f = lim lambda^-n log max(|z_n|, |w_n|) (max norm)."""
    return _max_of_limits(f, c, best_orbit_logs(f, c, z, w, n_max), tol, z_scale=1.0)


def g_f_alpha(f: SkewProduct, c: Classification, z: complex, w: complex,
              n_max: int = DEFAULT_N_MAX, tol: float = DEFAULT_TOL) -> GreenEstimate:
    """G_f^alpha = lim lambda^-n log max(|z_n^alpha|, |w_n|), with z^0 = 1."""
    if c.alpha is None:
        raise ValueError("alpha undefined (gamma > 0, delta == d)")
    if c.delta == c.d and z != 0:
        ro = ratio_orbit(f, c.alpha, z, w, n_max)
        if ro is not None:
            est = _composed(_gza_from_ratio(f, c, ro, tol, plus=True),
                            g_p(f.p, z, n_max, tol), 1, float(c.alpha))
            if est is not None:
                return est
    return _max_of_limits(f, c, best_orbit_logs(f, c, z, w, n_max), tol,
                          z_scale=float(c.alpha))


def _composed(part: GreenEstimate, base: GreenEstimate, a: float, b: float
              ) -> Optional[GreenEstimate]:
    """a part + b base, from a G_z^alpha or G_z^{alpha,+} part and a G_p base, or None.

    None unless both parts are finite.  Both settle on their own, so their
    limits compose: G_z as _gz_composed weighs them, and at lambda = d,
    max(alpha L_z, L_w) = alpha L_z + log+ of the weighted ratio, so
    G_f^alpha = G_z^{alpha,+} + alpha G_p.  A part with weight 0 has only
    to be finite here: it adds neither residual nor termination
    (_gz_composed refuses a weight-0 G_z^alpha that did not settle).
    """
    if not (part.finite and base.finite):
        return None
    term, residual = TERM_CONVERGED, 0.0
    for weight, est in ((a, part), (b, base)):
        if weight:
            if term == TERM_CONVERGED:
                term = est.termination
            residual += abs(weight) * est.residual
    return GreenEstimate(a * part.value + b * base.value, max(part.n_used, base.n_used),
                         term, residual)


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
    fiber_sample); None or a non-finite value is a sentinel, and any
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


def fiber_sample(f: SkewProduct, c: Classification, which: str, z: complex,
                 ws: list[complex], n_max: int = DEFAULT_N_MAX,
                 tol: float = DEFAULT_TOL) -> FiberFunctionSample:
    """Evaluate one estimator across a fiber {z} x ws, in input order.

    G_p depends on z alone and is estimated once.  G_z^alpha and
    G_z^{alpha,+} with an integer weighted-ratio recursion run all lanes
    at once (_fiber_ratio).  G_z with d >= 1 and G_f^alpha at delta = d
    compose those lanes with the fiber's one G_p, as g_z and g_f_alpha
    compose one point; a lane whose composition is refused takes the
    direct orbit.  Where an estimator reads the direct orbit alone
    (_direct_only), the orbits of all lanes run at once (_fiber_logs) and
    are settled as arrays (_fiber_direct).  Every other case calls the
    scalar estimator per point.  All give identical results.
    """
    fn = ESTIMATORS[which]
    ws = tuple(ws)
    # w**j and c**j with j > 100 are CPython's polar power, which the kernels do not replay
    batch = bool(ws) and all(j <= 100 for _, j in f.q.terms)
    ratio = (batch and which in ("Gza", "Gzap", "Gz", "Gfa") and z != 0
             and c.alpha is not None and _ratio_terms(f, c.alpha) is not None)
    if which == "Gp":
        ests = [g_p(f.p, z, n_max, tol)] * len(ws) if ws else []
    elif ratio and which in ("Gza", "Gzap"):
        _require_d(c)
        ests = _fiber_ratio(f, c, which == "Gzap", complex(z), ws, n_max, tol)
    elif ratio and ((which == "Gz" and c.d >= 1) or (which == "Gfa" and c.delta == c.d)):
        base = g_p(f.p, z, n_max, tol)
        parts = _fiber_ratio(f, c, which == "Gfa", complex(z), ws, n_max, tol)
        if which == "Gz":
            refuse_escape = any(j > c.d for _, j, _, _ in _ratio_terms(f, c.alpha))
            ests = [_gz_composed(c, est, base, refuse_escape) for est in parts]
        else:
            ests = [_composed(est, base, 1, float(c.alpha)) for est in parts]
        rest = [k for k, est in enumerate(ests) if est is None]
        for k, est in zip(rest, _fiber_direct(f, c, which, complex(z),
                                              [ws[k] for k in rest], n_max, tol)):
            ests[k] = est
    elif batch and _direct_only(f, c, which, z):
        ests = _fiber_direct(f, c, which, complex(z), ws, n_max, tol)
    else:
        ests = [fn(f, c, z, w, n_max, tol) for w in ws]
    return FiberFunctionSample(z=z, ws=ws, estimates=tuple(ests))


def _direct_only(f: SkewProduct, c: Classification, which: str, z: complex) -> bool:
    """True where estimator `which` goes straight to best_orbit_logs on the fiber z.

    False also where the per-point estimator refuses the map; the
    conditions mirror its branches.
    """
    no_ratio = z == 0 or c.alpha is None or _ratio_terms(f, c.alpha) is None
    if which in ("Gza", "Gzap"):
        return c.d >= 1 and c.alpha is not None and no_ratio
    if which == "Gzi":
        return c.d >= 1 and c.delta == c.d
    if which == "Gz":
        return no_ratio or c.d < 1
    if which == "Gfa":
        return c.alpha is not None and (no_ratio or c.delta != c.d)
    return which == "Gf"


# ---------------------------------------------------------------------------
# fiber-batched kernels
# ---------------------------------------------------------------------------
#
# Every lane replays the arithmetic of its scalar driver (ratio_orbit or
# orbit_logs) bit for bit.  numpy's complex multiply, abs, log and exp
# differ from CPython's in the last bit, so complex products run on split
# real parts in CPython's operation order, magnitudes use np.hypot, and
# logs and exps go through math per lane.


def _cmul(ar, ai, br, bi):
    """(a * b) on split real and imaginary parts, as CPython multiplies."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cpow(squares: list, j: int):
    """c**j as CPython's c_powu forms it; squares[k] holds c^(2^k)."""
    rr, ri = 1.0, 0.0
    k = 0
    while j >> k:
        if k == len(squares):
            squares.append(_cmul(*squares[-1], *squares[-1]))
        if (j >> k) & 1:
            rr, ri = _cmul(rr, ri, *squares[k])
        k += 1
    return rr, ri


def _log_abs(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """_lmag per lane: math.log of the modulus, -inf at exact zero."""
    mag = np.hypot(re, im)
    if (np.isinf(mag) & np.isfinite(re) & np.isfinite(im)).any():
        raise OverflowError("absolute value too large")  # as abs() of such a complex
    out = np.full(mag.shape, -math.inf)
    pos = mag > 0
    out[pos] = _math_map(math.log, mag[pos])
    return out


def _math_map(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn of the math module per lane, where numpy's own may differ in the last bit."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


# -- weighted-ratio kernel

_TAGS = (TERM_CONVERGED, TERM_ESCAPED, TERM_BUDGET, TERM_HIT_ZERO,
         TERM_DIV_NEG, TERM_DIV_POS, TERM_HIT_EZ)
_CONV, _ESC, _BUDGET, _ZERO, _DIV_NEG, _DIV_POS, _EZ = range(len(_TAGS))


def _exact_step(cr: np.ndarray, ci: np.ndarray, terms: list, zfacs: list):
    """sum coeff c^j zfac over the recursion's terms, as ratio_orbit adds them."""
    squares = [(cr, ci)]
    nr, ni = np.zeros(cr.size), np.zeros(cr.size)
    for (_, j, coeff, _), zf in zip(terms, zfacs):
        tr, ti = _cmul(coeff.real, coeff.imag, *_cpow(squares, j))
        tr, ti = _cmul(tr, ti, zf.real, zf.imag)
        nr += tr
        ni += ti
    return nr, ni


class _LaneSettler:
    """_Settler over lanes that receive their partials in lockstep."""

    def __init__(self, lanes: int, tol: float):
        self.tol = tol
        self.g = np.zeros(lanes)            # last partial
        self.incs = np.zeros((5, lanes))    # increment k sits in row k % 5

    def keep(self, mask: np.ndarray) -> None:
        self.g = self.g[mask]
        self.incs = self.incs[:, mask]

    def last_inc(self, n: int) -> np.ndarray:
        return self.incs[n % 5]

    def push(self, g: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(converged, divergent) lane masks after partial g_n."""
        if n >= 1:
            self.incs[n % 5] = g - self.g
        self.g = g
        conv = div = np.zeros(g.shape, bool)
        if n >= 2:
            conv = (np.abs(self.incs[[(n - 1) % 5, n % 5]]) < self.tol).all(axis=0)
        if n >= 5:
            window = self.incs[[(n - k) % 5 for k in range(4, -1, -1)]]
            mag = np.abs(window)
            div = ((mag > max(self.tol, 1e-14)).all(axis=0)
                   & ((window > 0).all(axis=0) | (window < 0).all(axis=0))
                   & ~(mag[1:] < 0.9 * mag[:-1]).any(axis=0) & ~conv)
        return conv, div

    def finish(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(value, residual, converged) of _Settler.finish after partial g_n."""
        if n == 0:
            return self.g, np.full(self.g.shape, math.inf), np.zeros(self.g.shape, bool)
        residual = np.abs(self.last_inc(n))
        return self.g, residual, residual < self.tol


def _fold(residual, extra: np.ndarray) -> np.ndarray:
    """_fold_residual per lane."""
    return np.where(extra > 0, residual + extra, residual)


def _fiber_ratio(f: SkewProduct, c: Classification, plus: bool, z: complex,
                 ws: tuple, n_max: int, tol: float) -> list[GreenEstimate]:
    """G_z^alpha, or G_z^{alpha,+} when plus, over a fiber from all weighted-ratio lanes at once.

    The z side (log z_n, the p-tail correction, the z-factors of the
    recursion) is computed once per step for the whole fiber.  Lanes are
    settled online as _settle_gza settles the scalar orbit and retire
    once their estimate is final.
    """
    d, al = c.d, int(c.alpha)
    tail_m = _plus_tail_constant(d, _ratio_coeff_sum(f, c.alpha)) if plus else 0.0
    terms = _ratio_terms(f, c.alpha)
    shift = _escape_shift(terms, d)
    t_it = np.array([float(it) for it, _, _, _ in terms])
    t_j = np.array([float(j) for _, j, _, _ in terms])
    t_lb = np.array([lb for _, _, _, lb in terms])
    log_a = cmath.log(f.p.leading_at_zero())
    tail = _p_tail(f)
    lz = cmath.log(z)

    lanes = len(ws)
    wv = np.array(ws, dtype=complex)
    cr, ci = wv.real.copy(), wv.imag.copy()
    if al:
        e = cmath.exp(-al * lz)
        cr, ci = _cmul(cr, ci, e.real, e.imag)
    lc = _log_abs(cr, ci)
    live = np.arange(lanes)           # input index of each running lane
    ext = np.zeros(lanes, bool)       # past the switch to the log recursion
    fold = np.zeros(lanes)            # running fold_bound(d, n)
    settler = _LaneSettler(lanes, tol)
    # results by input index, and which lanes hold their final estimate
    val, res, used = np.zeros(lanes), np.zeros(lanes), np.zeros(lanes, int)
    tag, final = np.zeros(lanes, np.int8), np.zeros(lanes, bool)

    def put(mask, t, v, r):
        if not mask.any():
            return
        sel = live[mask]
        for arr, x in ((tag, t), (val, v), (res, r)):
            arr[sel] = x[mask] if isinstance(x, np.ndarray) else x
        used[sel] = n
        final[sel] = True

    def end(mask, dove=False):
        """The orbits of the masked lanes end after element n; dove: below the double range."""
        if not mask.any():
            return
        if plus and dove and d >= 2:
            bound = _over(tail_m, dn)
            put(mask, _CONV if bound < tol else _BUDGET, 0.0, bound + fold)
        else:
            g, r, conv = settler.finish(n)
            put(mask, np.where(conv, _CONV, _BUDGET), g, _fold(r, fold))

    n = 0
    with np.errstate(all="ignore"):
        while True:
            # -- settle element n of every running lane
            dn = d**n
            zero = lc == -math.inf
            put(zero, _ZERO, 0.0 if plus else -math.inf, 0.0)
            esc = lc > ESCAPE_LOG
            put(esc, _ESC, _over(lc + shift, dn), _over(3e-12, dn) + fold)
            rest = ~zero & ~esc
            if plus:
                g = _over(np.where(0.0 > lc, 0.0, lc), dn)
                bound = _over(tail_m, dn) if d >= 2 else math.inf
                if bound < tol:
                    put(rest, _CONV, g, bound + fold)
                else:
                    settler.push(g, n)
            else:
                g = _over(lc, dn)
                conv, div = settler.push(g, n)
                inc = settler.last_inc(n)
                r = _fold(np.abs(inc), fold)
                put(rest & conv, _CONV, g, r)
                up = inc > 0
                put(rest & div, np.where(up, _DIV_POS, _DIV_NEG),
                    np.where(up, math.inf, -math.inf), r)
            done = final[live]

            # -- the orbits end at the budget, or before step n + 1 where z escapes
            if n == n_max or lz.real > ESCAPE_LOG:
                end(~done)
                break
            if done.any():
                keep = ~done
                live, cr, ci, lc, ext, fold = (x[keep] for x in (live, cr, ci, lc, ext, fold))
                settler.keep(keep)
            if not live.size:
                break

            # -- step n -> n + 1
            lzr = lz.real
            corr = _p_tail_log(tail, lz)
            tl = np.empty((len(terms), live.size))
            for k, (it, j, _, lb) in enumerate(terms):
                tl[k] = (it * lzr if it else 0.0) + (j * lc if j else 0.0) + lb
            top = tl.max(axis=0)
            safe = (top == -math.inf) | (
                (top <= _WINDOW) & (top >= -_WINDOW)
                & ((tl >= -_WINDOW) | (tl <= top - _NEGLIGIBLE_GAP)).all(axis=0))
            logm = ext | ~safe
            new_lc = np.empty(live.size)
            eta = np.zeros(live.size)
            failed = np.zeros(live.size, bool)
            if logm.any():
                sub, sub_top = tl[:, logm], top[logm]
                dom = sub.argmax(axis=0)
                sub_eta = np.zeros(dom.size)
                for k in range(len(terms)):
                    gap = sub[k] - sub_top
                    near = (dom != k) & (gap > -80.0)
                    if near.any():
                        term = np.zeros(dom.size)
                        term[near] = _math_map(math.exp, gap[near])
                        sub_eta += term
                eta[logm] = sub_eta
                failed[logm] = ~((sub_eta < _SOFT_TAIL_TOL) & (sub_top > -math.inf))
                new_lc[logm] = (t_lb[dom] + t_it[dom] * lzr + t_j[dom] * lc[logm]
                                - al * corr.real)
            exact = ~logm
            if exact.any():
                try:
                    zfacs = [cmath.exp(it * lz - al * corr) if it else cmath.exp(-al * corr)
                             for it, _, _, _ in terms]
                except OverflowError:  # a shared z-factor overflows: every exact lane escapes
                    failed[exact] = True
                else:
                    nr, ni = _exact_step(cr[exact], ci[exact], terms, zfacs)
                    failed[exact] = ~(np.isfinite(nr) & np.isfinite(ni))
                    cr[exact], ci[exact] = nr, ni
                    new_lc[exact] = _log_abs(nr, ni)
            # a refused extension ends as 'range', a non-finite exact step as 'escaped'
            end(failed & logm, dove=True)
            end(failed & exact)
            keep = ~failed
            ext = ext | logm
            lc = new_lc
            if not keep.all():
                live, cr, ci, lc, ext, fold, eta = (
                    x[keep] for x in (live, cr, ci, lc, ext, fold, eta))
                settler.keep(keep)
            lz = log_a + f.delta * lz + corr
            n += 1
            fold = fold + _over(2.0 * eta, d**n)
            if not live.size:
                break

    return _estimates(val, used, tag, res)


def _estimates(val: np.ndarray, used: np.ndarray, tag: np.ndarray, res: np.ndarray
               ) -> list[GreenEstimate]:
    """One GreenEstimate per lane from its columns; tag indexes _TAGS."""
    return [GreenEstimate(v, k, _TAGS[t], r)
            for v, k, t, r in zip(val.tolist(), used.tolist(), tag.tolist(), res.tolist())]


# -- direct log-orbit kernel

_CHUNK = 1024   # lanes per batch: their step history is ~1 MB at n_max 64
_COMPLETE, _ESCAPED, _RANGE = range(3)   # how an orbit ends, as _OrbitLogs.reason


@dataclass
class _LaneLogs:
    """orbit_logs of a batch of lanes; row k holds lane k's steps 0..length[k]-1, then NaN."""

    log_z: np.ndarray          # (lanes, n_max + 1)
    log_w: np.ndarray
    length: np.ndarray         # steps per lane
    reason: np.ndarray         # _COMPLETE, _ESCAPED or _RANGE
    switch_step: np.ndarray    # -1 where the lane never switched
    switch_eta: np.ndarray
    vertex: np.ndarray         # 0 for the primary vertex, k for the k-th alternate


def _lane_term_logs(keys: list[tuple[int, int]], lz, lw: np.ndarray) -> np.ndarray:
    """The term logs of _extension_eta per lane at (lz, lw), one row per term key (i, j)."""
    tl = np.empty((len(keys), lw.size))
    for t, (i, j) in enumerate(keys):
        tl[t] = (0.0 if i == 0 else i * lz) + (0.0 if j == 0 else j * lw)
    return tl


def _lane_eta(f: SkewProduct, vertex: tuple[int, int], lz, lw: np.ndarray,
              tl: np.ndarray) -> np.ndarray:
    """_extension_eta per lane at (lz, lw) with q's dominant monomial at vertex.

    tl holds q's term logs there (_lane_term_logs).  The terms add up in
    _extension_eta's order, p's first.
    """
    p_terms, q_terms = f.p.terms, f.q.terms
    delta, (gamma, d) = f.delta, vertex
    eta = np.zeros(lw.size)
    base, top = delta * lz + 0 * lw, abs(p_terms[delta])
    for k, coeff in p_terms.items():
        if k != delta:
            eta += abs(coeff) / top * _math_map(math.exp, np.minimum(k * lz + 0.0 - base, 700.0))
    base, top = gamma * lz + d * lw, abs(q_terms[vertex])
    for (key, coeff), t in zip(q_terms.items(), tl):
        if key != vertex:
            eta += abs(coeff) / top * _math_map(math.exp, np.minimum(t - base, 700.0))
    return eta


def _lanes_exact(f: SkewProduct, dominant: tuple[int, int], z: complex, ws: np.ndarray,
                 n_max: int) -> _LaneLogs:
    """orbit_logs(f, dominant, z, w, n_max) for every lane w of ws, up to each lane's switch.

    The exact z_n, its log and the p part of the dominance test are shared
    by every lane and computed once per step; lanes end as the scalar
    driver ends them.  A lane that passes the dominance test at step n
    leaves the exact orbit there, with its switch_step n: _lanes_tail
    computes its steps from n on.
    """
    p_terms, q_terms = f.p.terms, f.q.terms
    q_keys = list(q_terms)
    lanes = ws.size
    zc = complex(z)
    lzc = _lmag(zc)
    wr, wi = ws.real.copy(), ws.imag.copy()
    lw = _log_abs(wr, wi)
    shape = (lanes, n_max + 1)
    out = _LaneLogs(np.full(shape, math.nan), np.full(shape, math.nan),
                    np.ones(lanes, int), np.zeros(lanes, np.int8), np.full(lanes, -1),
                    np.zeros(lanes), np.zeros(lanes, int))
    out.log_z[:, 0], out.log_w[:, 0] = lzc, lw
    live = np.arange(lanes)          # row of each lane still on the exact orbit

    with np.errstate(all="ignore"):
        for n in range(1, n_max + 1):
            stop = (lw > ESCAPE_LOG) | (lzc > ESCAPE_LOG)
            out.reason[live[stop]] = _ESCAPED
            # _extension_eta's safety test; p's terms sit at (k, 0) with k >= 2,
            # so their logs are k lz + 0.0
            tl = _lane_term_logs(q_keys, lzc, lw)
            top = tl.max(axis=0)
            unsafe = ~((top == -math.inf) | (
                (top <= _WINDOW) & (top >= -_WINDOW)
                & ((tl >= -_WINDOW) | (tl <= top - _NEGLIGIBLE_GAP)).all(axis=0)))
            if not _terms_safe([k * lzc + 0.0 for k in p_terms]):
                unsafe[:] = True
            unsafe &= ~stop
            if unsafe.any():
                # an unsafe lane with a zero coordinate cannot switch
                cand = unsafe & (lw > -math.inf) & (lzc > -math.inf)
                eta = np.full(lw.size, math.inf)
                if cand.any():
                    eta[cand] = _lane_eta(f, dominant, lzc, lw[cand], tl[:, cand])
                switch = eta < _TAIL_TOL
                out.reason[live[unsafe & ~switch]] = _RANGE
                out.switch_step[live[switch]], out.switch_eta[live[switch]] = n, eta[switch]
                stop |= unsafe
            if stop.any():
                keep = ~stop
                live, wr, wi, lw = (x[keep] for x in (live, wr, wi, lw))
            if not live.size:
                break

            failed = np.zeros(live.size, bool)
            try:
                zn = f.p(zc)
                czs = [coeff * zc**i for (i, _), coeff in q_terms.items()]
            except OverflowError:
                failed[:] = True
            else:
                # q(z, w) adds (coeff z^i) w^j in term order; w**j raises
                # OverflowError, which ends the lane, where a part of it is infinite
                squares = [(wr, wi)]
                nr, ni = np.zeros(live.size), np.zeros(live.size)
                for (_, j), cz in zip(q_keys, czs):
                    pr, pi = _cpow(squares, j)
                    failed |= np.isinf(pr) | np.isinf(pi)
                    tr, ti = _cmul(cz.real, cz.imag, pr, pi)
                    nr += tr
                    ni += ti
                if not failed.all():
                    az = abs(zn)
                    if not math.isfinite(az):
                        failed[:] = True
                    else:
                        ok = ~failed
                        new_lw = _log_abs(nr[ok], ni[ok])
                        failed[ok] = ~(np.isfinite(nr[ok]) & np.isfinite(ni[ok]))
                        zc, lzc = zn, (math.log(az) if az > 0 else -math.inf)
                        wr, wi = nr, ni
                        lw[ok] = new_lw
            if failed.any():
                out.reason[live[failed]] = _ESCAPED
                keep = ~failed
                live, wr, wi, lw = (x[keep] for x in (live, wr, wi, lw))
            out.log_z[live, n], out.log_w[live, n] = lzc, lw
            out.length[live] = n + 1
            if not live.size:
                break
    return out


def _lanes_tail(f: SkewProduct, vertices: list[tuple[int, int]], out: _LaneLogs,
                n_max: int) -> None:
    """The steps of every switched lane from its switch on, written into out in place.

    A lane that switched at step s continues from its step s - 1 by the
    log recursion of its vertex, vertices[vertex]:
    log|z'| = log|a| + delta log|z|, log|w'| = log|b| + gamma log|z| + d log|w|.
    The lanes run as one column loop, each lane's j-th step landing in its
    column s + j, with the arithmetic of _extension_steps.  Each lane is
    then cut at its first exit, as _extension_steps ends an orbit: a
    non-finite step ends it as 'range' before that step, a step past
    ESCAPE_LOG before n_max as 'escaped' after it.
    """
    rows = np.flatnonzero(out.switch_step >= 0)
    if not rows.size:
        return
    width = n_max + 1
    start = out.switch_step[rows]
    lz, lw = out.log_z[rows, start - 1], out.log_w[rows, start - 1]
    log_a, delta = _lmag(f.p.leading_at_zero()), f.delta
    v = out.vertex[rows]
    gamma = np.array([g for g, _ in vertices])[v]
    d = np.array([dd for _, dd in vertices])[v]
    log_b = np.array([_lmag(f.q.terms[vx]) for vx in vertices])[v]
    order = np.argsort(start, kind="stable")   # the lanes with the most steps first
    rows, start, lz, lw, gamma, d, log_b = (
        x[order] for x in (rows, start, lz, lw, gamma, d, log_b))
    flat = rows * width + start                # flat index of each lane's first step
    zf, wf = out.log_z.reshape(-1), out.log_w.reshape(-1)
    count = np.searchsorted(start, n_max - np.arange(width - start[0]), side="right")
    with np.errstate(all="ignore"):   # an overflow to +-inf is cut below
        for j, k in enumerate(count.tolist()):
            if k < lz.size:
                lz, lw, gamma, d, log_b = lz[:k], lw[:k], gamma[:k], d[:k], log_b[:k]
            lz, lw = log_a + delta * lz, log_b + gamma * lz + d * lw
            at = flat[:k] + j
            zf[at], wf[at] = lz, lw

    # cut each lane at its first exit
    first = start[0]
    tz, tw = out.log_z[:, first:], out.log_w[:, first:]
    bad = ~(np.isfinite(tz) & np.isfinite(tw))
    exits = bad.copy()
    exits[:, :-1] |= (tz[:, :-1] > ESCAPE_LOG) | (tw[:, :-1] > ESCAPE_LOG)
    exits = exits[rows] & (np.arange(first, width) >= start[:, None])
    hit = exits.any(axis=1)
    out.length[rows] = width
    if hit.any():
        rows, col = rows[hit], exits[hit].argmax(axis=1)
        ranged = bad[rows, col]
        ends = first + col + ~ranged
        out.reason[rows] = np.where(ranged, _RANGE, _ESCAPED)
        out.length[rows] = ends
        for row, end in zip(rows.tolist(), ends.tolist()):
            out.log_z[row, end:] = out.log_w[row, end:] = math.nan


def _lanes_orbit_logs(f: SkewProduct, dominant: tuple[int, int], z: complex,
                      ws: np.ndarray, n_max: int,
                      alternates: Sequence[tuple[int, int]] = ()) -> _LaneLogs:
    """orbit_logs(f, dominant, z, w, n_max, alternates) for every lane w of ws at once.

    _lanes_exact runs the exact orbits.  A lane that refused to switch (a
    'range' end at step L + 1, L its last step) resumes from step L by the
    rule of _alternate_steps: the first alternate whose eta there passes
    the test takes the lane from step L + 1, and its vertex, numbered as
    [dominant, *alternates].  Then _lanes_tail runs the log recursion of
    every switched lane, primary and alternate, as one column loop.
    """
    vertices = [dominant, *alternates]
    out = _lanes_exact(f, dominant, z, ws, n_max)
    # before the tail runs, every 'range' end is a refused switch
    retry = np.flatnonzero(out.reason == _RANGE)
    if retry.size and alternates:
        last = out.length[retry] - 1
        lz, lw = out.log_z[retry, last], out.log_w[retry, last]
        cand = (lz > -math.inf) & (lw > -math.inf)   # a zero coordinate cannot switch
        retry, last, lz, lw = (x[cand] for x in (retry, last, lz, lw))
        tl = _lane_term_logs(list(f.q.terms), lz, lw)
        for t in range(1, len(vertices)):
            eta = _lane_eta(f, vertices[t], lz, lw, tl)
            win = eta < _TAIL_TOL
            rows = retry[win]
            out.reason[rows], out.vertex[rows] = _COMPLETE, t
            out.switch_step[rows], out.switch_eta[rows] = last[win] + 1, eta[win]
            # at most one vertex passes the test at a point
            retry, last, lz, lw, tl = (retry[~win], last[~win], lz[~win], lw[~win],
                                       tl[:, ~win])
    _lanes_tail(f, vertices, out, n_max)
    return out


def _fiber_logs(f: SkewProduct, c: Classification, z: complex, ws: Iterable[complex],
                n_max: int) -> Iterator[_LaneLogs]:
    """best_orbit_logs(f, c, z, w, n_max) for the lanes w of ws, in order.

    The orbits run in batches of _CHUNK lanes, one _LaneLogs each, by
    _lanes_orbit_logs with the classification's alternate vertices: no
    alternate runs from step 0, a lane resumes one at the step where its
    primary orbit ended 'range', and every switched lane of the batch
    runs its log recursion in one column loop.
    """
    ws = list(ws)
    alternates = [term.vertex for term in c.terms[1:]]
    for begin in range(0, len(ws), _CHUNK):
        lanes = np.array(ws[begin:begin + _CHUNK], dtype=complex)
        yield _lanes_orbit_logs(f, c.primary.vertex, z, lanes, n_max, alternates)


# -- direct settles: the scalar settle routines of the direct orbit, per lane
#
# A settle reads each lane's steps in order, except the ones it skips (a
# transient zero w_n = 0 has no partial).  _read compacts the steps it
# reads to the left of each row, so that column i is the lane's i-th read
# and step[k, i] the step index an estimate reports as n_used.  A lane's
# first exit (an exact zero, E_z, an escape, a certified bound) is found
# by a scan over its columns; the settler runs in lockstep over the
# columns before it (_lane_limits).

def _fiber_direct(f: SkewProduct, c: Classification, which: str, z: complex,
                  ws: list[complex], n_max: int, tol: float) -> list[GreenEstimate]:
    """Estimator `which` from best_orbit_logs of every lane w of ws, in order.

    Gza/Gzap, Gzi, Gz, Gf and Gfa settle the batched orbits of _fiber_logs
    as arrays, as _gza_direct, _gzi_direct, _gz_direct and _max_of_limits
    settle one orbit.
    """
    ests: list[GreenEstimate] = []
    with np.errstate(all="ignore"):
        for logs in _fiber_logs(f, c, z, ws, n_max):
            if which in ("Gza", "Gzap"):
                cols = _lanes_gza(f, c, logs, tol, which == "Gzap")
            elif which == "Gzi":
                cols = _lanes_gzi(f, c, logs, tol)
            elif which == "Gz":
                cols = _lanes_gz(f, c, logs, tol)
            else:
                cols = _lanes_max(f, c, logs, tol, 1.0 if which == "Gf" else float(c.alpha))
            ests += _estimates(*cols)
    return ests


def _powers(base: int, count: int) -> np.ndarray:
    """float(base**k) for k < count, as a float divided by base**k reads it; inf past range."""
    out = np.full(count, math.inf)
    for k in range(count):
        try:
            out[k] = float(base**k)
        except OverflowError:
            break
    return out


def _read(logs: _LaneLogs, skip: np.ndarray, *arrays: np.ndarray) -> tuple:
    """(step, m, *arrays) with the steps skip marks left out of each row.

    The kept steps of lane k are compacted to its columns 0..m[k]-1, and
    step[k, i] is the step index of column i; where no step is skipped,
    step is the one row of column indices, which broadcasts over the
    lanes.  skip must be False past each lane's end.
    """
    if not skip.any():
        return (np.arange(logs.log_z.shape[1])[None], logs.length, *arrays)
    keep = (np.arange(logs.log_z.shape[1]) < logs.length[:, None]) & ~skip
    step = np.argsort(~keep, axis=1, kind="stable")
    return (step, keep.sum(axis=1), *(np.take_along_axis(a, step, 1) for a in arrays))


def _lane_limits(g: np.ndarray, step: np.ndarray, m: np.ndarray, tol: float,
                 finals: bool = True) -> tuple:
    """_series_limit per lane over the partials g[k, :m[k]] read at step[k].

    Returns (value, n_used, tag, residual, final); final marks the lanes
    whose settler gave a final estimate, the others carry its finish.
    The lanes push their partials in lockstep, a column at a time.
    Without finals no push is read, as _settle_gza's plus settler does.
    """
    rows = np.arange(g.shape[0])
    last = np.maximum(m - 1, 0)
    val = g[rows, last]
    res = np.where(m >= 2, np.abs(val - g[rows, np.maximum(m - 2, 0)]), math.inf)
    tag = np.where(res < tol, _CONV, _BUDGET).astype(np.int8)
    val = np.where(m > 0, val, math.nan)
    col = last
    final = np.zeros(rows.size, bool)
    live = np.flatnonzero(m > 2) if finals else rows[:0]   # a final needs two increments
    settler = _LaneSettler(live.size, tol)
    k = 0
    while live.size:
        conv, div = settler.push(g[live, k], k)
        stop = conv | div
        if stop.any():
            sel, conv = live[stop], conv[stop]
            inc = settler.last_inc(k)[stop]
            val[sel] = np.where(conv, g[sel, k], np.where(inc > 0, math.inf, -math.inf))
            res[sel] = np.abs(inc)
            tag[sel] = np.where(conv, _CONV, np.where(inc > 0, _DIV_POS, _DIV_NEG))
            col[sel] = k
            final[sel] = True
        k += 1
        keep = ~stop & (m[live] > k)
        if not keep.all():
            live = live[keep]
            settler.keep(keep)
    return val, np.where(m > 0, np.broadcast_to(step, g.shape)[rows, col], 0), tag, res, final


def _lane_switch_fold(logs: _LaneLogs, powers: np.ndarray, n_used: np.ndarray) -> np.ndarray:
    """_switch_fold per lane, read at step n_used; powers from _powers(base, ...)."""
    ss = logs.switch_step
    return np.where((ss >= 0) & (ss <= n_used),
                    4 * logs.switch_eta / powers[np.maximum(ss, 0)], 0.0)


def _first_exit(exits: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per lane, the first of its m columns that exits, else m."""
    exits &= np.arange(exits.shape[1]) < m[:, None]
    return np.where(exits.any(axis=1), exits.argmax(axis=1), m)


def _lanes_gz(f: SkewProduct, c: Classification, logs: _LaneLogs, tol: float) -> tuple:
    """_gz_direct per lane: (value, n_used, tag, residual)."""
    powers = _powers(c.lam, logs.log_w.shape[1])
    zero = logs.log_w == -math.inf   # the NaN past each lane's end compares False
    step, m, lw = _read(logs, zero, logs.log_w)
    val, used, tag, res, _ = _lane_limits(lw / powers[step], step, m, tol)
    res = _fold(res, _lane_switch_fold(logs, powers, used))
    if _w_axis_invariant(f):
        hit = zero.any(axis=1)
        val[hit], used[hit], tag[hit], res[hit] = -math.inf, zero.argmax(axis=1)[hit], _ZERO, 0.0
    return val, used, tag, res


def _lanes_max(f: SkewProduct, c: Classification, logs: _LaneLogs, tol: float,
               z_scale: float) -> tuple:
    """_max_of_limits per lane: (value, n_used, tag, residual)."""
    lanes, width = logs.log_z.shape
    powers = _powers(c.lam, width)
    z_zeros, w_zeros = logs.log_z == -math.inf, logs.log_w == -math.inf
    z_zero = z_zeros.any(axis=1)
    w_zero = w_zeros.any(axis=1) & _w_axis_invariant(f)
    has_z = ~z_zero & (z_scale != 0.0)
    z_val = np.full(lanes, 0.0 if z_scale == 0.0 else -math.inf)   # where no z series runs
    zn = zt = zr = 0
    if has_z.any():
        zv, zn, zt, zr, _ = _lane_limits(logs.log_z / powers, np.arange(width)[None],
                                         logs.length, tol)
        div = (zt == _DIV_NEG) | (zt == _DIV_POS)
        z_val = np.where(has_z, np.where(div, np.where((zv < 0) == (z_scale > 0), -math.inf,
                                                       math.inf), z_scale * zv), z_val)
    step, m, lw = _read(logs, w_zeros, logs.log_w)
    wv, wn, wt, wr, _ = _lane_limits(lw / powers[step], step, m, tol)
    has_w = ~w_zero
    w_val = np.where(w_zero | (wt == _DIV_NEG), -math.inf, wv)
    val = np.where(w_val > z_val, w_val, z_val)   # max(z part, w part), as Python's max
    used = np.where(has_z & has_w, np.maximum(zn, wn),
                    np.where(has_z, zn, np.where(has_w, wn, logs.length - 1)))
    res = np.where(has_z, zr, 0.0) + np.where(has_w, wr, 0.0)
    tag = np.where((has_z & (zt == _BUDGET)) | (has_w & (wt == _BUDGET)), _BUDGET, _CONV)
    tag = np.where(val == math.inf, _DIV_POS, np.where(val == -math.inf, _ZERO, tag))
    res = _fold(res, _lane_switch_fold(logs, powers, used))
    if z_scale < 0:
        ez = z_zero
        val[ez], used[ez], tag[ez], res[ez] = math.inf, logs.length[ez] - 1, _EZ, math.inf
    both = z_zeros & w_zeros
    hit = both.any(axis=1)
    val[hit], used[hit], tag[hit], res[hit] = -math.inf, both.argmax(axis=1)[hit], _ZERO, 0.0
    return val, used, tag, res


def _lanes_gza(f: SkewProduct, c: Classification, logs: _LaneLogs, tol: float,
               plus: bool) -> tuple:
    """_gza_direct per lane: (value, n_used, tag, residual)."""
    alpha, d = float(c.alpha), c.d
    powers = _powers(d, logs.log_w.shape[1])
    bounds = _direct_tail_m(f, c) / powers if d >= 2 else np.full(powers.size, math.inf)
    # a transient zero (j = 0 terms revive w) has no pair; an invariant axis keeps w = 0
    skip = (logs.log_w == -math.inf) & (not _w_axis_invariant(f))
    step, m, lz, lw = _read(logs, skip, logs.log_z, logs.log_w)
    u = lw - (alpha * lz if alpha != 0.0 else 0.0)
    lines = [_line_recursion(f, c, term.vertex) for term in c.terms]
    on_line = np.array([line is not None for line in lines])[logs.vertex]
    use = on_line[:, None] & (logs.switch_step[:, None] >= 0) & (step >= logs.switch_step[:, None])
    use[:, 0] = False   # the first pair is read directly
    if use.any():
        mult = np.array([float(line[0]) if line else 0.0 for line in lines])[logs.vertex]
        const = np.array([line[1] if line else 0.0 for line in lines])[logs.vertex]
        for k in np.flatnonzero(use.any(axis=0)).tolist():
            u[:, k] = np.where(use[:, k], mult * u[:, k - 1] + const, u[:, k])
    w_zero = lw == -math.inf
    ez = (lz == -math.inf) & (alpha != 0.0) & ~w_zero
    zero = w_zero | (~ez & (u == -math.inf))
    esc = ~zero & ~ez & (u > ESCAPE_LOG)
    certified = plus & ~zero & ~ez & ~esc & (bounds[step] < tol)
    e = _first_exit(zero | ez | esc | certified, m)
    g = u   # the partials, in place: max(u, 0.0) for plus, over d^n
    if plus:
        g[0.0 > g] = 0.0
    g /= powers[step]
    val, used, tag, res, final = _lane_limits(g, step, np.minimum(m, e), tol, finals=not plus)
    rows = np.flatnonzero(~final & (e < m))
    if rows.size:
        k = e[rows]
        n = np.broadcast_to(step, u.shape)[rows, k]
        kz, ke, kx = zero[rows, k], ez[rows, k], esc[rows, k]
        low = 0.0 if plus else -math.inf
        val[rows] = np.where(kz, low, np.where(ke, math.inf if alpha > 0 else low, g[rows, k]))
        used[rows] = n
        tag[rows] = np.where(kz, _ZERO, np.where(ke, _EZ, np.where(kx, _ESC, _CONV)))
        res[rows] = np.where(kz, 0.0, np.where(ke, math.inf if alpha > 0 else 0.0,
                                               np.where(kx, 3e-12 / powers[n], bounds[n])))
    if plus and d >= 2:
        # the ratio dove below the double range at the orbit's last step
        end = logs.length - 1
        dove = (e >= m) & (logs.reason == _RANGE)
        val[dove], used[dove], res[dove] = 0.0, end[dove], bounds[end[dove]]
        tag[dove] = np.where(bounds[end[dove]] < tol, _CONV, _BUDGET)
    folded = ~((tag == _ZERO) | (tag == _EZ))
    res = np.where(folded, _fold(res, _lane_switch_fold(logs, powers, used)), res)
    return val, used, tag, res


def _lanes_gzi(f: SkewProduct, c: Classification, logs: _LaneLogs, tol: float) -> tuple:
    """_gzi_direct per lane: (value, n_used, tag, residual)."""
    d, slope = c.d, c.gamma / c.d
    powers = _powers(d, logs.log_w.shape[1])
    log_a = _lmag(f.p.leading_at_zero())
    log_b = _lmag(f.q.terms[c.primary.vertex])
    w_zeros = logs.log_w == -math.inf
    skip = w_zeros & (logs.log_z != -math.inf) & (not _w_axis_invariant(f))
    step, m, lz, lw = _read(logs, skip, logs.log_z, logs.log_w)
    u = lw - slope * step * lz
    # the cancellation-free extension, where the primary vertex drives it
    use = ((logs.vertex == 0) & (logs.switch_step >= 0) & (c.delta == d))[:, None] \
        & (step >= logs.switch_step[:, None])
    use[:, 0] = False
    for k in np.flatnonzero(use.any(axis=0)).tolist():
        u[:, k] = np.where(use[:, k], d * u[:, k - 1] + log_b - slope * step[:, k] * log_a,
                           u[:, k])
    w_zero, z_zero = lw == -math.inf, lz == -math.inf
    e = _first_exit(w_zero | z_zero, m)
    u /= powers[step]
    val, used, tag, res, final = _lane_limits(u, step, np.minimum(m, e), tol)
    res = _fold(res, _lane_switch_fold(logs, powers, used))
    rows = np.flatnonzero(~final & (e < m))
    if rows.size:
        k = e[rows]
        kw, kz = w_zero[rows, k], z_zero[rows, k]
        val[rows] = np.where(kw & kz, math.nan, np.where(kw, -math.inf, math.inf))
        used[rows] = np.broadcast_to(step, u.shape)[rows, k]
        tag[rows] = np.where(kw, _ZERO, _EZ)
        res[rows] = np.where(kw & ~kz, 0.0, math.inf)
    return val, used, tag, res


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
