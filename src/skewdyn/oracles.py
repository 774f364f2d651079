"""Closed-form and one-dimensional reference dynamics.

Two independent sources of ground truth back the estimators:

* Monomial models f0(z, w) = (z^delta, z^gamma w^d), whose Green-type
  functions have closed forms (log|z|, log|z^-alpha w|, alpha log|z|, ...)
  split by the sign of gamma and the order of delta versus d.

* Skew products semiconjugate to a product (z^delta, h(w)) through
  pi(z, w) = (z, z^alpha w) for a monic one-variable polynomial
  h(w) = w^d + ... + b_m w^m.  Everything about such maps transports from
  the one-dimensional escape rates G_h^inf, G_h^0 and the Julia set of h.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from ._lazy import np
from .algebra import BiPoly, SkewProduct, UniPoly
from .green import (
    DEFAULT_N_MAX,
    DEFAULT_TOL,
    ESCAPE_LOG,
    _WINDOW,
    _cmul,
    _cpow,
    _math_map,
    _plus_tail_constant,
)


# ---------------------------------------------------------------------------
# monomial closed forms
# ---------------------------------------------------------------------------

def monomial_reference(delta: int, gamma: int, d: int, point: tuple[complex, complex],
                       which: str) -> float:
    """Closed-form table value of a Green function for the monomial model.

    which is one of 'Gp', 'Gza', 'Gzi', 'Gz', 'Gf'.  Raises when the
    requested function has no table entry in the given regime or the point
    is outside the stated domain.
    """
    z, w = complex(point[0]), complex(point[1])
    az, aw = abs(z), abs(w)
    lz = math.log(az) if az > 0 else -math.inf
    lw = math.log(aw) if aw > 0 else -math.inf
    if which == "Gp":
        return lz
    alpha = gamma / (delta - d) if delta != d else None
    if gamma > 0:
        if which in ("Gza", "Gzi"):
            if delta < d:
                return lw - alpha * lz if az > 0 else -math.inf
            if delta > d:
                if az == 0:
                    raise ValueError("G_z^alpha undefined on z = 0 when delta > d")
                return lw - alpha * lz
            if which != "Gzi":
                raise ValueError("delta == d needs G_z^infty")
            if az == 0:
                raise ValueError("G_z^infty undefined on z = 0")
            return lw
        if which == "Gz":
            if delta < d:
                return lw - alpha * lz if az > 0 else -math.inf
            if delta > d:
                return alpha * lz if aw > 0 else -math.inf
            if az >= 1:
                raise ValueError("G_z table entry only on {|z| < 1} when delta == d")
            return -math.inf
        if which == "Gf":
            if delta < d:
                # G_f = 0 on A_0 - E_z
                if az == 0:
                    return -math.inf
                if az >= 1 or aw * az ** (-alpha) >= 1:
                    raise ValueError("point outside A_0")
                return 0.0
            if delta == d:
                if az >= 1:
                    raise ValueError("point outside A_0")
                return lz
            raise ValueError("no G_f table entry for delta > d")
        raise ValueError(f"unknown function {which!r}")
    # gamma == 0: f0 is a product
    if which in ("Gza", "Gzi"):
        return lw
    if which == "Gz":
        if delta > d:
            return 0.0 if aw > 0 else -math.inf
        return lw
    if which == "Gf":
        if delta < d:
            if az == 0:
                return -math.inf
            if az >= 1 or aw >= 1:
                raise ValueError("point outside A_0")
            return 0.0
        raise ValueError("no G_f table entry for gamma = 0 unless delta < d")
    raise ValueError(f"unknown function {which!r}")


# ---------------------------------------------------------------------------
# one-dimensional polynomials h and their escape rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneDimPoly:
    """Monic h(w) = w^d + b_{d-1} w^{d-1} + ... + b_m w^m with b_m != 0."""

    coeffs: tuple[complex, ...]  # (b_m, ..., b_{d-1}, 1), low degree first
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("lowest degree m must be >= 1")
        if self.coeffs[-1] != 1:
            raise ValueError("h must be monic")
        if self.coeffs[0] == 0:
            raise ValueError("b_m must be nonzero")
        if self.degree < 2:
            raise ValueError("h must have degree >= 2")

    @property
    def degree(self) -> int:
        return self.m + len(self.coeffs) - 1

    def __call__(self, w: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return acc * w**self.m

    @classmethod
    def from_terms(cls, terms: dict[int, complex]) -> "OneDimPoly":
        m = min(terms)
        d = max(terms)
        return cls(tuple(terms.get(k, 0j) for k in range(m, d + 1)), m)

    def terms(self) -> dict[int, complex]:
        return {self.m + k: c for k, c in enumerate(self.coeffs) if c != 0}


def _log_abs(w: complex) -> float:
    """log|w| for w != 0, also where |w| is past the double range though its parts are not."""
    try:
        return math.log(abs(w))
    except OverflowError:
        return math.log(abs(w * 0.5)) + math.log(2.0)


def _h_orbit(h: OneDimPoly, w: complex, n_max: int) -> tuple[list[complex], str]:
    orbit = [complex(w)]
    for _ in range(n_max):
        cur = orbit[-1]
        if cur != 0 and _log_abs(cur) > ESCAPE_LOG:
            return orbit, "escaped"
        try:
            nxt = h(cur)
        except OverflowError:
            return orbit, "escaped"
        if not (math.isfinite(nxt.real) and math.isfinite(nxt.imag)):
            return orbit, "escaped"
        orbit.append(nxt)
        if nxt == 0:
            return orbit, "zero"
    return orbit, "complete"


def _h_tail_m(h: OneDimPoly, base: int) -> float:
    return _plus_tail_constant(base, sum(abs(c) for c in h.coeffs) + 1.0)


def _h_rate(h: OneDimPoly, w: complex, n_max: int, tol: float,
            base: int, plus: bool) -> float:
    orbit, _ = _h_orbit(h, w, n_max)
    tail_m = _h_tail_m(h, base) if plus else None
    gs: list[float] = []
    n = 0
    for n, wn in enumerate(orbit):
        if wn == 0:
            return 0.0 if plus else -math.inf
        lr = _log_abs(wn)
        if lr > ESCAPE_LOG:
            return lr / base**n
        gs.append((max(lr, 0.0) if plus else lr) / base**n)
        if plus:
            # certified stop: |G+ - g_n| <= M base^-n (plateaus at log+ = 0
            # do not prove convergence by themselves)
            if base >= 2 and tail_m / base**n < tol:
                return gs[-1]
        elif (len(gs) >= 3 and abs(gs[-1] - gs[-2]) < tol
                and abs(gs[-2] - gs[-3]) < tol):
            return gs[-1]
    return gs[-1]


def g_h_infty(h: OneDimPoly, w: complex, n_max: int = DEFAULT_N_MAX,
              tol: float = DEFAULT_TOL) -> float:
    """G_h^inf(w) = lim d^-n log|h^n(w)| (rate toward infinity)."""
    return _h_rate(h, w, n_max, tol, h.degree, plus=False)


def g_h_infty_plus(h: OneDimPoly, w: complex, n_max: int = DEFAULT_N_MAX,
                   tol: float = DEFAULT_TOL) -> float:
    """G_h^{inf,+}(w) = lim d^-n log+|h^n(w)| (0 on the filled Julia set)."""
    return _h_rate(h, w, n_max, tol, h.degree, plus=True)


def g_h_zero(h: OneDimPoly, w: complex, n_max: int = DEFAULT_N_MAX,
             tol: float = DEFAULT_TOL) -> float:
    """G_h^0(w) = lim m^-n log|h^n(w)| (rate toward the superattracting 0)."""
    return _h_rate(h, w, n_max, tol, h.m, plus=False)


def _trap_radius(h: OneDimPoly) -> Optional[float]:
    """A radius rho with h(D(0,rho)) inside D(0,rho) strictly, if any."""
    if h.m < 2 and abs(h.coeffs[0]) >= 1:
        return None
    rho = 0.5
    for _ in range(40):
        bound = sum(abs(c) * rho ** (h.m + k - 1) for k, c in enumerate(h.coeffs))
        if bound < 1:
            return rho
        rho /= 2
    return None


def julia_membership(h: OneDimPoly, w: complex, budget: int = 200) -> str:
    """'inside_filled' | 'escaping' | 'boundary_band' by a bounded-orbit test.

    Only the basin of infinity and the superattracting basin of 0 are
    detected; orbits deciding neither within the budget land in the band.
    """
    trap = _trap_radius(h)
    cur = complex(w)
    for _ in range(budget):
        try:
            a = abs(cur)
        except OverflowError:   # finite parts, modulus past the double range
            return "escaping"
        if a > 1e12:
            return "escaping"
        if trap is not None and a < trap:
            return "inside_filled"
        try:
            cur = h(cur)
        except OverflowError:
            return "escaping"
        if not (math.isfinite(cur.real) and math.isfinite(cur.imag)):
            return "escaping"
    return "boundary_band"


# -- lane versions: one orbit of h per array element, all in lockstep
#
# These repeat julia_membership and _h_rate bit for bit on every lane, as
# green's lane kernels repeat its scalar drivers: h runs in __call__'s
# Horner order on split real and imaginary parts, moduli use np.hypot and
# logs math.log per lane.  A lane whose modulus or image is not finite is
# re-run with the scalar function, which reads an overflow of h or of the
# modulus as escape; so is every lane when h.m > 100, where CPython forms
# w**m in polar form.  A grid is cheaper this way; a single point is not,
# so point queries keep the scalar functions.

def _step_lanes(h: OneDimPoly, live: np.ndarray, wr: np.ndarray, wi: np.ndarray,
                redo: np.ndarray, *carried: np.ndarray) -> tuple[np.ndarray, ...]:
    """The lanes live moved to their images h(w), as OneDimPoly.__call__ computes them.

    A lane whose image is not finite leaves, marked in redo.
    """
    accr, acci = np.zeros(wr.size), np.zeros(wr.size)
    for c in reversed(h.coeffs):
        c = complex(c)
        accr, acci = _cmul(accr, acci, wr, wi)
        accr, acci = accr + c.real, acci + c.imag
    nr, ni = _cmul(accr, acci, *_cpow([(wr, wi)], h.m))
    fin = np.isfinite(nr) & np.isfinite(ni)
    redo[live[~fin]] = True
    return (live[fin], nr[fin], ni[fin], *(x[fin] for x in carried))


def _stays_finite(h: OneDimPoly) -> bool:
    """Whether h keeps every point short of the escape test inside the double range.

    Then an orbit can end only by its zero, escape or budget exit, so a
    lane may stop at a convergence exit without iterating on to see
    whether the scalar orbit would meet an overflow later.
    """
    coeff_sum = sum(abs(c) for c in h.coeffs)
    return math.log(coeff_sum) + h.degree * math.log(4 * math.exp(ESCAPE_LOG)) < _WINDOW


def julia_membership_lanes(h: OneDimPoly, ws: Iterable[complex],
                           budget: int = 200) -> list[str]:
    """julia_membership(h, w, budget) for every w of ws."""
    ws = np.asarray(list(ws), complex)
    if h.m > 100:
        return [julia_membership(h, w, budget) for w in ws.tolist()]
    trap = _trap_radius(h)
    side = np.full(ws.size, "boundary_band", object)
    redo = np.zeros(ws.size, bool)
    live = np.arange(ws.size)
    wr, wi = ws.real.copy(), ws.imag.copy()
    with np.errstate(all="ignore"):
        for _ in range(budget):
            a = np.hypot(wr, wi)
            redo[live[~np.isfinite(a)]] = True
            esc = a > 1e12
            inside = ~esc & (a < trap) if trap is not None else np.zeros(a.size, bool)
            side[live[esc]] = "escaping"
            side[live[inside]] = "inside_filled"
            go = np.isfinite(a) & ~esc & ~inside
            live, wr, wi = _step_lanes(h, live[go], wr[go], wi[go], redo)
            if not live.size:
                break
    out = side.tolist()
    for i in np.flatnonzero(redo).tolist():
        out[i] = julia_membership(h, ws[i].item(), budget)
    return out


def _h_rate_lanes(h: OneDimPoly, ws: Iterable[complex], n_max: int, tol: float,
                  base: int, plus: bool) -> list[float]:
    """_h_rate(h, w, n_max, tol, base, plus) for every w of ws.

    Step n of the loop meets orbit point w_n of every live lane with
    _h_rate's exits in its order: zero, escape, then the stop on g_n (the
    certified stop when plus, else two small increments) and the budget.
    """
    ws = np.asarray(list(ws), complex)
    if h.m > 100:
        return [_h_rate(h, w, n_max, tol, base, plus) for w in ws.tolist()]
    tail_m = _h_tail_m(h, base) if plus else None
    # _h_rate runs the whole orbit before it reads g_n, so where h could
    # still overflow further on, a lane that stops on g_n is re-run
    stop_redo = not _stays_finite(h)
    out = np.empty(ws.size)
    redo = np.zeros(ws.size, bool)
    live = np.arange(ws.size)
    wr, wi = ws.real.copy(), ws.imag.copy()
    g1 = g2 = np.full(ws.size, math.nan)   # g_{n-1} and g_{n-2} per lane
    with np.errstate(all="ignore"):
        for n in range(n_max + 1):
            mag = np.hypot(wr, wi)
            zero = (wr == 0) & (wi == 0)
            out[live[zero]] = 0.0 if plus else -math.inf
            redo[live[~np.isfinite(mag)]] = True
            ok = np.isfinite(mag) & ~zero
            live, wr, wi, mag, g1, g2 = (x[ok] for x in (live, wr, wi, mag, g1, g2))
            if not live.size:
                break
            lr = np.zeros(mag.size)
            logged = mag > 1 if plus else slice(None)   # log+ is 0 where |w_n| <= 1
            lr[logged] = _math_map(math.log, mag[logged])
            bn = float(base**n)
            esc = lr > ESCAPE_LOG
            out[live[esc]] = lr[esc] / bn
            g = (np.maximum(lr, 0.0) if plus else lr) / bn
            if n == n_max:
                out[live[~esc]] = g[~esc]
                break
            if plus:
                stop = np.full(g.size, base >= 2 and tail_m / base**n < tol)
            elif n >= 2:
                stop = (np.abs(g - g1) < tol) & (np.abs(g1 - g2) < tol)
            else:
                stop = np.zeros(g.size, bool)
            stop &= ~esc
            out[live[stop]] = g[stop]
            if stop_redo:
                redo[live[stop]] = True
            go = ~(esc | stop)
            live, wr, wi, g2, g1 = _step_lanes(h, live[go], wr[go], wi[go], redo,
                                               g1[go], g[go])
    vals = out.tolist()
    for i in np.flatnonzero(redo).tolist():
        vals[i] = _h_rate(h, ws[i].item(), n_max, tol, base, plus)
    return vals


def g_h_infty_plus_lanes(h: OneDimPoly, ws: Iterable[complex], n_max: int = DEFAULT_N_MAX,
                         tol: float = DEFAULT_TOL) -> list[float]:
    """g_h_infty_plus(h, w, n_max, tol) for every w of ws."""
    return _h_rate_lanes(h, ws, n_max, tol, h.degree, plus=True)


# ---------------------------------------------------------------------------
# semiconjugate constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemiconjugateSpec:
    """f = (z^delta, z^(alpha delta) h(w / z^alpha)), semiconjugate to
    (z^delta, h(w)) by pi(z, w) = (z, z^alpha w).

    kind 'degenerate' needs delta > deg h; 'nondegenerate' forces
    delta = deg h.  alpha must be a non-negative integer.
    """

    h: OneDimPoly
    alpha: int
    delta: int
    kind: str

    def __post_init__(self):
        if self.kind not in ("degenerate", "nondegenerate"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.alpha < 0 or self.alpha != int(self.alpha):
            raise ValueError("alpha must be a non-negative integer")
        if self.kind == "degenerate" and self.delta <= self.h.degree:
            raise ValueError("degenerate type requires delta > deg h")
        if self.kind == "nondegenerate" and self.delta != self.h.degree:
            raise ValueError("nondegenerate type requires delta == deg h")


def build_semiconjugate(spec: SemiconjugateSpec, check_points: int = 100,
                        check_tol: float = 1e-10) -> SkewProduct:
    """Expand q(z, w) = z^(alpha delta) h(w / z^alpha) and verify f o pi = pi o g."""
    delta, alpha, h = spec.delta, spec.alpha, spec.h
    q_terms: dict[tuple[int, int], complex] = {}
    for k, coeff in h.terms().items():
        q_terms[(alpha * (delta - k), k)] = coeff
    f = SkewProduct(UniPoly({delta: 1.0}), BiPoly(q_terms))
    # numerical semiconjugacy check f(pi(z, w)) == pi(g(z, w))
    rng = random.Random(20240811)
    for _ in range(check_points):
        z = cmath.rect(rng.uniform(0.2, 0.9), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(rng.uniform(0.2, 1.5), rng.uniform(0, 2 * math.pi))
        pz, pw = z, z**alpha * w
        f1, f2 = f(pz, pw)
        g1, g2 = z**delta, h(w)
        lhs = (f1, f2)
        rhs = (g1, g1**alpha * g2)
        scale = max(abs(rhs[0]), abs(rhs[1]), 1.0)
        err = max(abs(lhs[0] - rhs[0]), abs(lhs[1] - rhs[1])) / scale
        if err > check_tol:
            raise AssertionError(f"semiconjugacy check failed: error {err:.3g}")
    return f


def example_cubic_h() -> OneDimPoly:
    """h(w) = w^3 + w^2, the worked degenerate/nondegenerate example family."""
    return OneDimPoly((1.0 + 0j, 1.0 + 0j), 2)


def example_degenerate(alpha: int = 1, delta: int = 4) -> SkewProduct:
    """f = (z^4, z w^3 + z^2 w^2): two vertices (1,3), (2,2), delta = T_1."""
    return build_semiconjugate(
        SemiconjugateSpec(example_cubic_h(), alpha, delta, "degenerate")
    )


def example_nondegenerate(alpha: int = 1) -> SkewProduct:
    """f = (z^3, w^3 + z w^2): vertices (0,3), (alpha(d-m), m)."""
    h = example_cubic_h()
    return build_semiconjugate(
        SemiconjugateSpec(h, alpha, h.degree, "nondegenerate")
    )
