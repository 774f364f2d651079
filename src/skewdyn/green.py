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
the raw orbit; G_z^alpha, G_z^alpha+ and G_z use it when it applies.  Its
driver, ratio_orbit, re-validates dominance at every step.  G_z^alpha and
G_z^alpha+ settle the ratio orbit and the direct orbit in one routine,
_settle_gza, each with its own error fold.

Every estimator reads an orbit in two parts: an orbit producer and a
settle routine.  The per-point drivers (orbit_logs, best_orbit_logs,
ratio_orbit) are pulled: each returns an orbit whose steps are computed
only as the settle routine reads them, and cached.  A settle routine
that reads in order and stops at its exit computes no step past it:
g_p, _settle_gza (G_z^alpha, G_z^{alpha,+} and the composed G_f^alpha),
_gzi_direct and regions.classify_point.  g_z's ratio branch, _gz_direct
and _max_of_limits drain the orbit before they settle, because how the
orbit ends, or a zero anywhere on it, decides how they settle.
fiber_sample evaluates a whole fiber {z} x ws; its kernels replay the
scalar drivers bit for bit on all lanes at once, computing the z side
once per step: _fiber_ratio for the weighted ratio, and _fiber_logs for
the direct orbit, whose lanes come out finished and go one by one
through the same settle routines.

Infinite values are sentinels (math.inf) with a termination tag, never
silent NaNs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

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
    steps so far.  A finished orbit (source None) iterates as its plain
    list.
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
                self._source = None
                return

    def _drain(self) -> list:
        """Every step, the source run to its end first."""
        if self._source is not None:
            append = self._steps.append
            for step in self._source:
                append(step)
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
               z: complex, w: Optional[complex], n_max: int) -> _OrbitLogs:
    """Log-magnitude orbit with validated extension past the float window.

    The components are p alone (f a UniPoly; w is ignored and log_w stays
    0) or p and q (f a skew product).  Each is a term table with a
    dominant monomial, (delta, 0) for p and `dominant` for q, whose exact
    log recursion continues the orbit once it leaves the double range.
    The steps are computed as they are read (_OrbitLogs).
    """
    logs = _OrbitLogs([], "complete", None, 0.0, dominant)
    logs._source = _log_steps(logs, f, dominant, z, w, n_max)
    return logs


def _log_steps(logs: _OrbitLogs, f: SkewProduct | UniPoly,
               dominant: Optional[tuple[int, int]], z: complex, w: Optional[complex],
               n_max: int) -> Iterator[tuple[int, float, float]]:
    """orbit_logs' steps one by one; the switch and the end go on logs."""
    p, q = (f, None) if isinstance(f, UniPoly) else (f.p, f.q)
    delta = p.order
    comps = [({(k, 0): coeff for k, coeff in p.terms.items()}, (delta, 0))]
    if q is not None:
        comps.append((q.terms, dominant))
        gamma, d = dominant
        log_b = _lmag(q.terms[dominant])
    log_a = _lmag(p.leading_at_zero())
    z, w = complex(z), (1 + 0j if q is None else complex(w))
    lz, lw = _lmag(z), _lmag(w)
    yield 0, lz, lw
    extended = False
    for n in range(1, n_max + 1):
        if lz > ESCAPE_LOG or lw > ESCAPE_LOG:
            logs._reason = "escaped"
            return
        if not extended and (eta := _extension_eta(comps, lz, lw)) is not None:
            if eta < _TAIL_TOL and lz > -math.inf and lw > -math.inf:
                extended = True
                logs._switch_step, logs._switch_eta = n, eta
            else:
                logs._reason = "range"
                return
        if extended:
            lz, lw = log_a + delta * lz, (lw if q is None else log_b + gamma * lz + d * lw)
        else:
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


def best_orbit_logs(f: SkewProduct, c: Classification, z: complex, w: complex,
                    n_max: int) -> _OrbitLogs:
    """Orbit logs extended with whichever dominant term carries furthest.

    A two-dominant-term map has one dominant vertex per wedge; when the
    primary term fails the dominance check, the alternate may still
    extend the orbit past the float window.
    """
    logs = orbit_logs(f, c.primary.vertex, z, w, n_max)
    if len(c.terms) > 1:
        logs._source = _alternate_steps(logs, logs._source, f, c, z, w, n_max)
    return logs


def _alternate_steps(logs: _OrbitLogs, primary: Optional[Iterator], f: SkewProduct,
                     c: Classification, z: complex, w: complex, n_max: int
                     ) -> Iterator[tuple[int, float, float]]:
    """The primary orbit's steps, then the rest of the alternate that carries furthest.

    primary is the primary orbit's source, None if it is already complete.
    The alternates are tried only once the primary has ended as 'range'.
    That end comes at the first step that fails the dominance check, which
    precedes any switch, and up to it every vertex computes the same exact
    steps.  An alternate carries further only by switching at that very
    step, so its steps from its switch on continue the primary's.
    """
    if primary is not None:
        yield from primary
    if logs._reason != "range":
        return
    best, length = None, len(logs._steps)
    for term in c.terms[1:]:
        other = orbit_logs(f, term.vertex, z, w, n_max)
        if len(other.steps) > length:
            best, length = other, len(other.steps)
    if best is not None:
        logs._reason, logs._dominant = best._reason, best._dominant
        logs._switch_step, logs._switch_eta = best._switch_step, best._switch_eta
        yield from best._steps[best._switch_step:]


def _switch_fold(logs: _OrbitLogs, base: int, n_used: int) -> float:
    """Value error of the log-space extension in a partial read at step n_used.

    A switch at step k with neglected-term level eta moves base^-n log|.|
    by at most 4 eta base^-k.  Reads the running switch, so the orbit
    must have been read up to step n_used.
    """
    if logs._switch_step is None or logs._switch_step > n_used:
        return 0.0
    return 4 * logs._switch_eta / base**logs._switch_step


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
    """Weighted-ratio orbit steps (log|c_n|, log|z_n|, eta_n), pulled from ratio_orbit.

    log|c_n| is -inf for an exact zero; eta_n is the step's neglected-term
    bound, 0 on exact steps.  _gza_from_ratio, and through it G_z^alpha,
    G_z^{alpha,+} and the G_z^{alpha,+} part of G_f^alpha, reads the steps
    in order and stops at its exit.  g_z drains the orbit: how the orbit
    ends decides between its ratio and its direct branch.  The public
    fields compute the whole orbit first.
    """

    __slots__ = ("_reason",)

    def __init__(self):
        super().__init__([])
        self._reason = "complete"   # 'complete' | 'escaped' | 'zero' | 'range'

    reason = _final("_reason")

    @property
    def log_mags(self) -> list[float]:
        return [lc for lc, _, _ in self._drain()]

    @property
    def log_z(self) -> list[float]:
        return [lz for _, lz, _ in self._drain()]

    @property
    def etas(self) -> list[float]:
        return [eta for _, _, eta in self._drain()]

    def fold_bound(self, d: int, upto: int) -> float:
        """Bound on the accumulated value error: sum 2 eta_k d^-k, k <= upto.

        Reads the steps computed so far, which must reach step upto.
        """
        # a plain left-to-right sum, as the fiber kernel keeps it; sum() of
        # floats is compensated from Python 3.12 on
        total = 0.0
        for k, (_, _, e) in enumerate(self._steps[: upto + 1]):
            if e:
                total += 2.0 * e / d**k
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
                 w: complex, n_max: int) -> Iterator[tuple[float, float, float]]:
    """ratio_orbit's steps one by one; the end goes on ro."""
    log_a = cmath.log(f.p.leading_at_zero())
    tail = _p_tail(f)
    delta = f.delta
    lz = cmath.log(complex(z))
    c = complex(w) * cmath.exp(-al * lz) if al else complex(w)
    lc = _lmag(c)
    yield lc, lz.real, 0.0
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
        yield lc, lz.real, step_eta
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
                plus: bool, tail_m: float, fold: Callable[[int], float],
                range_end: Callable[[], Optional[int]]) -> GreenEstimate:
    """G_z^alpha, or G_z^{alpha,+} when plus, from pairs (n, log|c_n|).

    c_n is the weighted ratio w_n / z_n^alpha.  The pairs are read in
    order up to the first final estimate: a sentinel estimate in place of
    log|c_n| (the orbit hit E_z), an exact zero, an escape, the certified
    tail bound (plus) or the settler.  Past the last pair come zero for
    plus when the ratio dove below the double range at step range_end()
    (None otherwise; called only once the pairs have run out), then the
    settler's finish.  fold(n) bounds the error the orbit itself carries
    up to step n; it is added to every estimate but the sentinels.
    """
    settler = _Settler(tol)
    for n, lr in pairs:
        if isinstance(lr, GreenEstimate):
            return lr
        if lr == -math.inf:
            return GreenEstimate(0.0 if plus else -math.inf, n, TERM_HIT_ZERO, 0.0)
        if lr > ESCAPE_LOG:
            # tail past the escape radius is below 1e-12 of the last term
            est = GreenEstimate(lr / d**n, n, TERM_ESCAPED, 3e-12 / d**n)
        elif plus:
            # converged only when the certified tail bound is below tol;
            # increments alone can sit on the spurious log+ = 0 plateau
            bound = tail_m / d**n if d >= 2 else math.inf
            if bound >= tol:
                settler.push(max(lr, 0.0) / d**n, n)
                continue
            est = GreenEstimate(max(lr, 0.0) / d**n, n, TERM_CONVERGED, bound)
        else:
            est = settler.push(lr / d**n, n)
            if est is None:
                continue
        return _fold_residual(est, fold(est.n_used))
    if plus and d >= 2 and (end := range_end()) is not None:
        # the ratio dove below the double range: every later bounce is
        # bounded by shrinking z-powers, so the escape rate is zero; it is
        # converged only when the certified tail bound is below tol
        bound = tail_m / d**end
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


def _gza_from_ratio(f: SkewProduct, c: Classification, ro: _RatioOrbit, tol: float,
                    plus: bool) -> GreenEstimate:
    tail_m = _plus_tail_constant(c.d, _ratio_coeff_sum(f, c.alpha)) if plus else 0.0
    return _settle_gza(enumerate(lc for lc, _, _ in ro), c.d, tol, plus, tail_m,
                       lambda n: ro.fold_bound(c.d, n),
                       lambda: len(ro.log_mags) - 1 if ro.reason == "range" else None)


def _gza_direct(f: SkewProduct, c: Classification, logs: _OrbitLogs, tol: float,
                plus: bool) -> GreenEstimate:
    """G_z^alpha, or G_z^{alpha,+} when plus, settled on the direct orbit logs."""
    alpha = float(c.alpha)
    d = c.d
    b = abs(f.q.terms[c.primary.vertex])
    tail_m = _plus_tail_constant(d, sum(abs(v) for v in f.q.terms.values()) / b + 1)
    axis_inv = _w_axis_invariant(f)

    def line_recursion() -> Optional[tuple[int, float]]:
        # Past the switch, log|w_n| and alpha log|z_n| both grow like
        # delta^n and their difference cancels catastrophically; when the
        # extension vertex (g~, d~) sits on the sweep line (g~ = alpha
        # (delta - d~), exact in rationals), the weighted ratio obeys its
        # own exact recursion u' = d~ u + (log|b~| - alpha log|a|).
        g_dom, d_dom = logs._dominant
        if Fraction(g_dom) + c.alpha * (d_dom - f.delta) != 0:
            return None
        return d_dom, _lmag(f.q.terms[logs._dominant]) - alpha * _lmag(f.p.leading_at_zero())

    def ratio_logs():
        u = None
        switched, line = False, None   # line_recursion(), read at the switch
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
                switched, line = True, line_recursion()
            if line and u is not None:
                u = line[0] * u + line[1]
            else:
                u = lw - (alpha * lz if alpha != 0.0 else 0.0)
            yield n, u

    return _settle_gza(ratio_logs(), d, tol, plus, tail_m,
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
    lam = c.lam
    axis_inv = _w_axis_invariant(f)
    if c.alpha is not None and z != 0:
        # log|w_n| = alpha log|z_n| + log|c_n| exactly; the weighted-ratio
        # orbit reaches far deeper than the raw one while the ratio stays
        # representable (on ratio escape w itself may still decay, so that
        # case falls back to the direct orbit below)
        ro = ratio_orbit(f, c.alpha, z, w, n_max)
        if ro is not None and ro.reason in ("complete", "zero"):
            alpha = float(c.alpha)
            vals = []
            for n, (lcn, lzn, _) in enumerate(ro):
                if lcn == -math.inf:
                    if axis_inv:
                        return GreenEstimate(-math.inf, n, TERM_HIT_ZERO, 0.0)
                    break
                lw = alpha * lzn + lcn
                if lw > ESCAPE_LOG:
                    return GreenEstimate(lw / lam**n, n, TERM_ESCAPED,
                                         3e-12 / lam**n + ro.fold_bound(lam, n))
                vals.append((n, lw / lam**n))
            else:
                est = _series_limit(vals, tol)
                return _fold_residual(est, ro.fold_bound(lam, est.n_used))
    return _gz_direct(f, c, best_orbit_logs(f, c, z, w, n_max), tol)


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
    residual = sum(e.residual for e in ests if math.isfinite(e.residual))
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
            est = _gfa_composed(c, _gza_from_ratio(f, c, ro, tol, plus=True),
                                g_p(f.p, z, n_max, tol))
            if est is not None:
                return est
    return _max_of_limits(f, c, best_orbit_logs(f, c, z, w, n_max), tol,
                          z_scale=float(c.alpha))


def _gfa_composed(c: Classification, plus: GreenEstimate, base: GreenEstimate
                  ) -> Optional[GreenEstimate]:
    """G_f^alpha = alpha G_p + G_z^{alpha,+} at lambda = d, or None if a part is infinite.

    At lambda = d, max(a L_z, L_w) = a L_z + log+ of the weighted ratio,
    so the two separately convergent parts compose.
    """
    if not (plus.finite and base.finite):
        return None
    alpha = float(c.alpha)
    term = plus.termination
    if term == TERM_CONVERGED:
        term = base.termination
    return GreenEstimate(alpha * base.value + plus.value, max(plus.n_used, base.n_used),
                         term, plus.residual + abs(alpha) * base.residual)


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


def submean_check(sampler: Callable[[complex], Optional[float]], center: complex,
                  radius: float, m_points: int = 64) -> SubmeanResult:
    """Sub-mean-value spot check of a function on one complex circle.

    sampler returns the function value at a point of the w-line, or
    None/non-finite for a sentinel; any sentinel makes the check
    inconclusive.
    """
    cv = sampler(center)
    if cv is None or not math.isfinite(cv):
        return SubmeanResult(math.nan, math.nan, math.nan, False)
    total = 0.0
    for k in range(m_points):
        wk = center + radius * cmath.exp(2j * math.pi * k / m_points)
        val = sampler(wk)
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

    G_p depends on z alone and is estimated once.  G_z^alpha, G_z^{alpha,+}
    and G_z with an integer weighted-ratio recursion run all lanes at once
    (_fiber_ratio); so does G_f^alpha at delta = d, which composes that
    G_z^{alpha,+} with the fiber's one G_p (_gfa_composed).  Where an
    estimator reads the direct orbit alone (_direct_settle), the orbits of
    all lanes run at once (_fiber_logs) and each lane is settled as the
    estimator settles it.  Every other case calls the scalar estimator per
    point.  All give identical results.
    """
    fn = ESTIMATORS[which]
    ws = tuple(ws)
    # w**j and c**j with j > 100 are CPython's polar power, which the kernels do not replay
    batch = bool(ws) and all(j <= 100 for _, j in f.q.terms)
    ratio = (batch and which in ("Gza", "Gzap", "Gz", "Gfa") and z != 0
             and c.alpha is not None and _ratio_terms(f, c.alpha) is not None)
    if which == "Gp":
        ests = [g_p(f.p, z, n_max, tol)] * len(ws) if ws else []
    elif ratio and which in ("Gza", "Gzap", "Gz"):
        if which != "Gz":
            _require_d(c)
        ests = _fiber_ratio(f, c, which, complex(z), ws, n_max, tol)
    elif ratio and which == "Gfa" and c.delta == c.d:
        # g_f_alpha's composed path; lanes it refuses take the direct orbit
        base = g_p(f.p, z, n_max, tol)
        plus = _fiber_ratio(f, c, "Gzap", complex(z), ws, n_max, tol)
        ests = [_gfa_composed(c, est, base) for est in plus]
        rest = [k for k, est in enumerate(ests) if est is None]
        for k, logs in zip(rest, _fiber_logs(f, c, complex(z), [ws[k] for k in rest], n_max)):
            ests[k] = _max_of_limits(f, c, logs, tol, float(c.alpha))
    elif batch and (settle := _direct_settle(f, c, which, z, tol)) is not None:
        ests = [settle(logs) for logs in _fiber_logs(f, c, complex(z), ws, n_max)]
    else:
        ests = [fn(f, c, z, w, n_max, tol) for w in ws]
    return FiberFunctionSample(z=z, ws=ws, estimates=tuple(ests))


def _direct_settle(f: SkewProduct, c: Classification, which: str, z: complex,
                   tol: float) -> Optional[Callable[[_OrbitLogs], GreenEstimate]]:
    """How estimator `which` settles best_orbit_logs on the fiber z, or None.

    None unless the per-point estimator goes straight to the direct orbit
    there without refusing the map; the conditions mirror its branches.
    """
    no_ratio = z == 0 or c.alpha is None or _ratio_terms(f, c.alpha) is None
    if which in ("Gza", "Gzap") and c.d >= 1 and c.alpha is not None and no_ratio:
        return lambda logs: _gza_direct(f, c, logs, tol, which == "Gzap")
    if which == "Gzi" and c.d >= 1 and c.delta == c.d:
        return lambda logs: _gzi_direct(f, c, logs, tol)
    if which == "Gz" and no_ratio:
        return lambda logs: _gz_direct(f, c, logs, tol)
    if which == "Gf":
        return lambda logs: _max_of_limits(f, c, logs, tol, 1.0)
    if which == "Gfa" and c.alpha is not None and (no_ratio or c.delta != c.d):
        return lambda logs: _max_of_limits(f, c, logs, tol, float(c.alpha))
    return None


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
         TERM_DIV_NEG, TERM_DIV_POS)
_CONV, _ESC, _BUDGET, _ZERO, _DIV_NEG, _DIV_POS = range(len(_TAGS))
_DIRECT = len(_TAGS)   # G_z lane settled on the direct orbit instead


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


def _fiber_ratio(f: SkewProduct, c: Classification, which: str, z: complex,
                 ws: tuple, n_max: int, tol: float) -> list[GreenEstimate]:
    """Gza, Gzap or Gz over a fiber from all weighted-ratio lanes at once.

    The z side (log z_n, the p-tail correction, the z-factors of the
    recursion) is computed once per step for the whole fiber.  Lanes are
    settled online as _settle_gza and g_z settle the scalar orbit and
    retire once their estimate is final; a G_z lane runs until its orbit
    ends, because the orbit's end decides between the ratio and the
    direct branch.
    """
    plus, gz = which == "Gzap", which == "Gz"
    base = c.lam if gz else c.d
    alpha, al = float(c.alpha), int(c.alpha)
    axis_inv = _w_axis_invariant(f)
    tail_m = _plus_tail_constant(base, _ratio_coeff_sum(f, c.alpha)) if plus else 0.0
    terms = _ratio_terms(f, c.alpha)
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
    fold = np.zeros(lanes)            # running fold_bound(base, n)
    settler = _LaneSettler(lanes, tol)
    # results by input index; rank 2 is final, rank 1 a G_z series limit
    # that a later escape or zero of the same orbit still overrides
    val, res, used = np.zeros(lanes), np.zeros(lanes), np.zeros(lanes, int)
    tag, rank = np.zeros(lanes, np.int8), np.zeros(lanes, np.int8)

    def put(mask, t, v, r, rk=2):
        if not mask.any():
            return
        sel = live[mask]
        for arr, x in ((tag, t), (val, v), (res, r)):
            arr[sel] = x[mask] if isinstance(x, np.ndarray) else x
        used[sel] = n
        rank[sel] = rk

    def put_settled(mask, conv, div, g, rk):
        inc = settler.last_inc(n)
        r = _fold(np.abs(inc), fold)
        put(mask & conv, _CONV, g, r, rk)
        up = inc > 0
        put(mask & div, np.where(up, _DIV_POS, _DIV_NEG),
            np.where(up, math.inf, -math.inf), r, rk)

    def end(mask, reason):
        """The orbits of the masked lanes end after element n."""
        if not mask.any():
            return
        if gz:
            if reason == "ok":
                finish(mask & (rank[live] == 0))
            else:
                put(mask, _DIRECT, 0.0, 0.0)
        elif plus and reason == "range" and base >= 2:
            put(mask, _CONV if tail_m / dn < tol else _BUDGET, 0.0, tail_m / dn + fold)
        else:
            finish(mask)

    def finish(mask):
        g, r, conv = settler.finish(n)
        put(mask, np.where(conv, _CONV, _BUDGET), g, _fold(r, fold))

    n = 0
    with np.errstate(all="ignore"):
        while True:
            # -- settle element n of every running lane
            dn = float(base**n)
            zero = lc == -math.inf
            if gz:
                lw = alpha * lz.real + lc
                open_ = rank[live] < 2
                put(zero & open_, _ZERO if axis_inv else _DIRECT, -math.inf, 0.0)
                esc = (lw > ESCAPE_LOG) & open_ & ~zero
                put(esc, _ESC, lw / dn, 3e-12 / dn + fold)
                g = lw / dn
                conv, div = settler.push(g, n)
                put_settled(rank[live] == 0, conv, div, g, 1)
                done = np.zeros(live.size, bool)
            else:
                put(zero, _ZERO, 0.0 if plus else -math.inf, 0.0)
                esc = lc > ESCAPE_LOG
                put(esc, _ESC, lc / dn, 3e-12 / dn + fold)
                rest = ~zero & ~esc
                if plus:
                    g = np.where(0.0 > lc, 0.0, lc) / dn
                    bound = tail_m / dn if base >= 2 else math.inf
                    if bound < tol:
                        put(rest, _CONV, g, bound + fold)
                    else:
                        settler.push(g, n)
                else:
                    g = lc / dn
                    conv, div = settler.push(g, n)
                    put_settled(rest, conv, div, g, 2)
                done = rank[live] == 2

            # -- orbits that end before step n + 1
            if n == n_max:
                end(~done, "ok")
                break
            ended = ~done & zero
            end(ended, "ok")
            escaping = ~done & ~zero & ((lc > ESCAPE_LOG) | (lz.real > ESCAPE_LOG))
            end(escaping, "escaped")
            keep = ~(done | ended | escaping)
            if not keep.all():
                live, cr, ci, lc, ext, fold = (
                    x[keep] for x in (live, cr, ci, lc, ext, fold))
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
            end(failed & logm, "range")
            end(failed & exact, "escaped")
            keep = ~failed
            ext = ext | logm
            lc = new_lc
            if not keep.all():
                live, cr, ci, lc, ext, fold, eta = (
                    x[keep] for x in (live, cr, ci, lc, ext, fold, eta))
                settler.keep(keep)
            lz = log_a + f.delta * lz + corr
            n += 1
            fold = fold + 2.0 * eta / float(base**n)
            if not live.size:
                break

    tags = tag.tolist()
    direct = (_gz_direct(f, c, logs, tol) for logs in
              _fiber_logs(f, c, z, [w for w, t in zip(ws, tags) if t == _DIRECT], n_max))
    return [next(direct) if t == _DIRECT else GreenEstimate(v, k, _TAGS[t], r)
            for v, k, t, r in zip(val.tolist(), used.tolist(), tags, res.tolist())]


# -- direct log-orbit kernel

_CHUNK = 1024   # lanes per batch: their step history is ~1 MB at n_max 64
_COMPLETE, _ESCAPED, _RANGE = range(3)
_REASONS = ("complete", "escaped", "range")


@dataclass
class _LaneLogs:
    """orbit_logs of a batch of lanes; row k holds lane k's steps 0..length[k]-1."""

    log_z: np.ndarray          # (lanes, n_max + 1)
    log_w: np.ndarray
    length: np.ndarray         # steps per lane
    reason: np.ndarray         # index into _REASONS
    switch_step: np.ndarray    # -1 where the lane never switched
    switch_eta: np.ndarray
    dominant: tuple[int, int]

    def lane(self, k: int) -> _OrbitLogs:
        m = int(self.length[k])
        steps = list(zip(range(m), self.log_z[k, :m].tolist(), self.log_w[k, :m].tolist()))
        step = int(self.switch_step[k])
        return _OrbitLogs(steps, _REASONS[self.reason[k]], None if step < 0 else step,
                          float(self.switch_eta[k]), self.dominant)


def _lanes_orbit_logs(f: SkewProduct, dominant: tuple[int, int], z: complex,
                      ws: np.ndarray, n_max: int) -> _LaneLogs:
    """orbit_logs(f, dominant, z, w, n_max) for every lane w of ws at once.

    The exact z_n, its log and the p part of the dominance test are shared
    by every lane still on the exact orbit and computed once per step.  A
    lane that passes the test continues on its own log recursion; lanes
    end as the scalar driver ends them.
    """
    p_terms, q_terms = f.p.terms, f.q.terms
    delta = f.delta
    gamma, d = dominant
    log_a = _lmag(f.p.leading_at_zero())
    log_b = _lmag(q_terms[dominant])
    q_keys = list(q_terms)
    # neglected terms with their weight |coeff / dominant coeff| in eta
    p_rest = [(k, abs(coeff) / abs(p_terms[delta])) for k, coeff in p_terms.items()
              if k != delta]
    q_rest = [(t, abs(coeff) / abs(q_terms[dominant]))
              for t, (key, coeff) in enumerate(q_terms.items()) if key != dominant]

    lanes = ws.size
    zc = complex(z)
    lzc = _lmag(zc)
    wr, wi = ws.real.copy(), ws.imag.copy()
    lw = _log_abs(wr, wi)
    lz = np.full(lanes, lzc)
    out = _LaneLogs(np.empty((lanes, n_max + 1)), np.empty((lanes, n_max + 1)),
                    np.ones(lanes, int), np.zeros(lanes, np.int8), np.full(lanes, -1),
                    np.zeros(lanes), dominant)
    out.log_z[:, 0], out.log_w[:, 0] = lz, lw
    live = np.arange(lanes)          # row of each running lane
    ext = np.zeros(lanes, bool)      # past the switch to the log recursion

    with np.errstate(all="ignore"):
        for n in range(1, n_max + 1):
            stop = (lz > ESCAPE_LOG) | (lw > ESCAPE_LOG)
            out.reason[live[stop]] = _ESCAPED
            test = ~ext & ~stop
            if test.any():
                # _extension_eta on the exact lanes, whose log|z_n| is lzc
                lwt = lw[test]
                tl = np.empty((len(q_keys), lwt.size))
                for t, (i, j) in enumerate(q_keys):
                    tl[t] = (0.0 if i == 0 else i * lzc) + (0.0 if j == 0 else j * lwt)
                top = tl.max(axis=0)
                q_safe = (top == -math.inf) | (
                    (top <= _WINDOW) & (top >= -_WINDOW)
                    & ((tl >= -_WINDOW) | (tl <= top - _NEGLIGIBLE_GAP)).all(axis=0))
                # p's terms sit at (k, 0) with k >= 2: their logs are k lz + 0.0
                p_safe = _terms_safe([k * lzc + 0.0 for k in p_terms])
                unsafe = ~q_safe if p_safe else np.ones(lwt.size, bool)
                # an unsafe lane with a zero coordinate cannot switch
                cand = unsafe & (lwt > -math.inf) & (lzc > -math.inf)
                eta = np.zeros(lwt.size)
                if cand.any():
                    lwc, tlc = lwt[cand], tl[:, cand]
                    sub = np.zeros(lwc.size)
                    base = delta * lzc + 0 * lwc
                    for k, weight in p_rest:
                        sub += weight * _math_map(math.exp,
                                                  np.minimum(k * lzc + 0.0 - base, 700.0))
                    base = gamma * lzc + d * lwc
                    for t, weight in q_rest:
                        sub += weight * _math_map(math.exp, np.minimum(tlc[t] - base, 700.0))
                    eta[cand] = sub
                switch = cand & (eta < _TAIL_TOL)
                refused = unsafe & ~switch
                rows = np.flatnonzero(test)
                out.reason[live[rows[refused]]] = _RANGE
                stop[rows[refused]] = True
                ext[rows[switch]] = True
                out.switch_step[live[rows[switch]]] = n
                out.switch_eta[live[rows[switch]]] = eta[switch]
            if stop.any():
                keep = ~stop
                live, wr, wi, lz, lw, ext = (x[keep] for x in (live, wr, wi, lz, lw, ext))
            if not live.size:
                break

            if ext.any():
                lz_e = lz[ext]
                lz[ext], lw[ext] = log_a + delta * lz_e, log_b + gamma * lz_e + d * lw[ext]
            exact = ~ext
            if exact.any():
                failed = np.zeros(int(exact.sum()), bool)
                try:
                    zn = f.p(zc)
                    czs = [coeff * zc**i for (i, _), coeff in q_terms.items()]
                except OverflowError:
                    failed[:] = True
                else:
                    # q(z, w) adds (coeff z^i) w^j in term order; w**j raises
                    # OverflowError, which ends the lane, where a part of it is infinite
                    squares = [(wr[exact], wi[exact])]
                    nr, ni = np.zeros(failed.size), np.zeros(failed.size)
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
                            rows = np.flatnonzero(exact)
                            wr[rows], wi[rows] = nr, ni
                            lz[rows] = lzc
                            lw[rows[ok]] = new_lw
                if failed.any():
                    gone = np.flatnonzero(exact)[failed]
                    out.reason[live[gone]] = _ESCAPED
                    keep = np.ones(live.size, bool)
                    keep[gone] = False
                    live, wr, wi, lz, lw, ext = (x[keep] for x in (live, wr, wi, lz, lw, ext))
            out.log_z[live, n], out.log_w[live, n] = lz, lw
            out.length[live] = n + 1
            if not live.size:
                break
    return out


def _fiber_logs(f: SkewProduct, c: Classification, z: complex, ws: Iterable[complex],
                n_max: int) -> Iterator[_OrbitLogs]:
    """best_orbit_logs(f, c, z, w, n_max) for each lane w of ws, in order.

    The orbits run in batches of _CHUNK lanes; lanes whose primary orbit
    ends as 'range' retry every alternate vertex together, and each lane
    becomes an _OrbitLogs only when it is consumed.
    """
    ws = list(ws)
    for start in range(0, len(ws), _CHUNK):
        lanes = np.array(ws[start:start + _CHUNK], dtype=complex)
        best = _lanes_orbit_logs(f, c.primary.vertex, z, lanes, n_max)
        pick = [(best, k) for k in range(lanes.size)]
        retry = np.flatnonzero(best.reason == _RANGE)
        if retry.size:
            for term in c.terms[1:]:
                other = _lanes_orbit_logs(f, term.vertex, z, lanes[retry], n_max)
                for r, k in enumerate(retry.tolist()):
                    res, row = pick[k]
                    if other.length[r] > res.length[row]:
                        pick[k] = (other, r)
        for res, row in pick:
            yield res.lane(row)


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
