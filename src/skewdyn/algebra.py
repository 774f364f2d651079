"""Sparse polynomials and orbit iteration for polynomial skew products.

A skew product is a map f(z, w) = (p(z), q(z, w)) of C^2 with

    p(z) = a z^delta + O(z^(delta+1)),   a != 0, delta >= 2,
    q(z, w) = sum b_ij z^i w^j,

where the origin is a fixed point with nilpotent derivative, so every
exponent pair (i, j) in the support of q satisfies i + j >= 2 or
(i, j) == (1, 0).

Exact rationals (``fractions.Fraction``) carry all polygon geometry and
weights; 64-bit complex floats carry all analytic computation.  Sparse
polynomials are dicts keyed by exponents, iterated in ascending exponent
order so that every report is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

# Exact rational scalar used for weights, slopes and intercepts.
Rational = Fraction

DEFAULT_ESCAPE_RADIUS = 1e12


def _exponent(e) -> int:
    """e as an int; an exponent that is not a whole number is a ValueError."""
    n = int(e)
    if n != e:
        raise ValueError(f"non-integer exponent {e!r}")
    return n


def _clean_terms(terms: Mapping, arity: int) -> dict:
    out = {}
    for key, coeff in terms.items():
        if arity == 1:
            if type(key) is not int:
                key = _exponent(key)
            if key < 0:
                raise ValueError(f"negative exponent {key}")
        else:
            i, j = key
            if type(i) is not int or type(j) is not int:
                i, j = _exponent(i), _exponent(j)
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair {(i, j)}")
            key = (i, j)
        c = complex(coeff)
        if c != 0:
            out[key] = c
    return dict(sorted(out.items()))


class UniPoly:
    """Sparse univariate polynomial with complex coefficients.

    Zero coefficients are never stored; terms are kept sorted by degree.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, complex]):
        object.__setattr__(self, "terms", _clean_terms(terms, 1))

    def __setattr__(self, *_):
        raise AttributeError("UniPoly is immutable")

    @property
    def order(self) -> int:
        """Degree of the lowest-order term (order of vanishing at 0)."""
        if not self.terms:
            raise ValueError("zero polynomial has no order")
        return next(iter(self.terms))

    @property
    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return next(reversed(self.terms))

    def leading_at_zero(self) -> complex:
        """Coefficient of the lowest-order term."""
        return self.terms[self.order]

    def __call__(self, z: complex) -> complex:
        # Horner over the sparse support, highest degree first.
        acc = 0j
        prev_deg = None
        for deg in reversed(self.terms):
            if prev_deg is None:
                acc = self.terms[deg]
            else:
                acc = acc * z ** (prev_deg - deg) + self.terms[deg]
            prev_deg = deg
        if prev_deg is None:
            return 0j
        return acc * z**prev_deg

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(self.terms.items()))

    def __repr__(self) -> str:
        body = " + ".join(f"({c})z^{d}" for d, c in self.terms.items())
        return f"UniPoly({body or '0'})"


class BiPoly:
    """Sparse bivariate polynomial sum b_ij z^i w^j, keyed by (i, j)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], complex]):
        object.__setattr__(self, "terms", _clean_terms(terms, 2))

    def __setattr__(self, *_):
        raise AttributeError("BiPoly is immutable")

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(self.terms)

    def __call__(self, z: complex, w: complex) -> complex:
        acc = 0j
        for (i, j), c in self.terms.items():
            acc += c * z**i * w**j
        return acc

    def fiber_coefficient(self, j: int, z: complex) -> complex:
        """Evaluate c_j(z) = sum_i b_ij z^i for one w-degree j."""
        acc = 0j
        for (i, jj), c in self.terms.items():
            if jj == j:
                acc += c * z**i
        return acc

    def w_degrees(self) -> tuple[int, ...]:
        return tuple(sorted({j for (_, j) in self.terms}))

    def fiber_poly(self, z: complex) -> UniPoly:
        """The one-variable fiber polynomial w -> q(z, w)."""
        coeffs: dict[int, complex] = {}
        for (i, j), c in self.terms.items():
            coeffs[j] = coeffs.get(j, 0j) + c * z**i
        return UniPoly(coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(self.terms.items()))

    def __repr__(self) -> str:
        body = " + ".join(f"({c})z^{i}w^{j}" for (i, j), c in self.terms.items())
        return f"BiPoly({body or '0'})"


@dataclass(frozen=True)
class SkewProduct:
    """f(z, w) = (p(z), q(z, w)) with a superattracting (nilpotent) origin."""

    p: UniPoly
    q: BiPoly
    delta: int = field(init=False)

    def __post_init__(self):
        if not self.p.terms:
            raise ValueError("p must be nonzero")
        delta = self.p.order
        if delta < 2:
            raise ValueError(f"p must vanish to order >= 2 at 0, got {delta}")
        if not self.q.terms:
            raise ValueError("q must have nonempty support")
        for (i, j) in self.q.terms:
            if i + j >= 2 or (i, j) == (1, 0):
                continue
            raise ValueError(
                f"support pair {(i, j)} violates the nilpotent-origin constraint"
            )
        object.__setattr__(self, "delta", delta)

    def __call__(self, z: complex, w: complex) -> tuple[complex, complex]:
        return eval_skew(self, z, w)


@dataclass(frozen=True)
class OrbitPoint:
    """One step (z_n, w_n) = f^n(z, w) of an orbit."""

    z: complex
    w: complex
    n: int
    escaped: bool = False
    log_guard: float = -math.inf  # largest log-magnitude seen so far


def eval_skew(f: SkewProduct, z: complex, w: complex) -> tuple[complex, complex]:
    """Evaluate (p(z), q(z, w)) over the sparse support.

    Overflow produces non-finite components; the caller decides whether
    that counts as escape.
    """
    try:
        pz = f.p(z)
    except OverflowError:
        pz = complex(math.inf, 0.0)
    try:
        qzw = f.q(z, w)
    except OverflowError:
        qzw = complex(math.inf, 0.0)
    return pz, qzw


def _finite(x: complex) -> bool:
    return math.isfinite(x.real) and math.isfinite(x.imag)


def iterate(
    f: SkewProduct,
    z0: complex,
    w0: complex,
    n_max: int,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
) -> list[OrbitPoint]:
    """Orbit [ (z_0,w_0), ..., (z_n,w_n) ], truncated at the first breach.

    The breach step itself is recorded (with ``escaped=True``); no further
    steps are taken after a radius breach or a non-finite value.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if escape_radius <= 0:
        raise ValueError("escape_radius must be positive")
    z, w = complex(z0), complex(w0)
    guard = max(abs(z), abs(w))
    log_guard = math.log(guard) if guard > 0 else -math.inf
    pt = OrbitPoint(z, w, 0, escaped=not _finite(z) or not _finite(w) or guard > escape_radius,
                    log_guard=log_guard)
    orbit = [pt]
    for n in range(1, n_max + 1):
        if orbit[-1].escaped:
            break
        z, w = eval_skew(f, z, w)
        bad = not _finite(z) or not _finite(w)
        mag = math.inf if bad else max(abs(z), abs(w))
        if mag > 0:
            log_guard = max(log_guard, math.log(mag) if math.isfinite(mag) else math.inf)
        orbit.append(OrbitPoint(z, w, n, escaped=bad or mag > escape_radius,
                                log_guard=log_guard))
    return orbit


def monomial_skew(delta: int, gamma: int, d: int,
                  a: complex = 1.0, b: complex = 1.0) -> SkewProduct:
    """The monomial model f0(z, w) = (a z^delta, b z^gamma w^d)."""
    return SkewProduct(UniPoly({delta: a}), BiPoly({(gamma, d): b}))


def monomial_orbit_closed_form(delta: int, gamma: int, d: int,
                               z: complex, w: complex, n: int,
                               a: complex = 1.0, b: complex = 1.0
                               ) -> tuple[complex, complex]:
    """Closed form f0^n for the monomial model (oracle for iterate).

    z_n = a^((delta^n-1)/(delta-1)) z^(delta^n) and, for a = b = 1,
    w_n = z^(gamma_n) w^(d^n) with gamma_n = alpha (delta^n - d^n) when
    delta != d and gamma_n = n gamma d^(n-1) when delta = d.
    """
    e_n = (delta**n - 1) // (delta - 1)
    zn = a**e_n * z ** (delta**n)
    if delta != d:
        # alpha (delta^n - d^n) is an integer: gamma (delta^n - d^n)/(delta - d).
        gamma_n = gamma * (delta**n - d**n) // (delta - d)
    else:
        gamma_n = n * gamma * d ** (n - 1) if n > 0 else 0
    if d == 1:
        s_n = n
    else:
        s_n = (d**n - 1) // (d - 1)
    # Coefficient a enters w_n through gamma * sum_k e_k d^(n-1-k).
    t_n = sum(((delta**k - 1) // (delta - 1)) * d ** (n - 1 - k) for k in range(n)) * gamma
    wn = b**s_n * a**t_n * z**gamma_n * w ** (d**n)
    return zn, wn
