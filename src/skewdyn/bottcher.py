"""Böttcher coordinate phi = lim f0^-n o f^n on an invariant wedge.

f0(z, w) = (a z^delta, b z^gamma w^d) is the dominant monomial model.  The
inverse branch is fixed by f0^-n o f0^n = id and realized by continuity
tracking: peeling f0^-1 off an orbit point, every delta-th or d-th root is
chosen closest to the known forward orbit point at that depth, so the
whole computation telescopes through ratios near 1 and no global argument
unwinding is needed.  When f = f0 the round trip is exact and phi = id.

The conjugacy defect phi o f - f0 o phi and the identity defect phi - id
are measured per point; convergence theorems cover d >= 2, or d = 1 with
delta != T_k, and the estimator flags the regimes without one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

from .algebra import SkewProduct, eval_skew
from .newton import Classification
from .regions import WedgeSpec, contains

DEFAULT_TOL = 1e-12


@dataclass(frozen=True)
class BottcherEstimate:
    phi1: complex
    phi2: complex
    n_used: int
    conj_residual: float
    id_deviation: float
    no_theorem_warning: bool = False


def _nearest_root(value: complex, k: int, reference: complex) -> complex:
    """The k-th root of value closest in argument to reference."""
    if k == 1:
        return value
    if value == 0:
        return 0j
    root = value ** (1.0 / k)
    if reference == 0:
        return root
    turns = round(k * (cmath.phase(reference) - cmath.phase(root)) / (2 * math.pi))
    return root * cmath.exp(2j * math.pi * turns / k)


def monomial_inverse(delta: int, gamma: int, d: int, a: complex, b: complex,
                     n: int, Z: complex, W: complex,
                     branch_refs: list[tuple[complex, complex]]) -> tuple[complex, complex]:
    """f0^-n(Z, W) with roots tracked along the reference orbit.

    branch_refs[k] is the forward point guiding the root choice at depth
    k; for the Böttcher limit these are the f-orbit points, which realize
    the branch with f0^-n o f0^n = id.
    """
    if Z == 0 or (W == 0 and d >= 1):
        raise ValueError("monomial inverse undefined at zero coordinates")
    zc, wc = Z, W
    for k in range(n - 1, -1, -1):
        ref_z, ref_w = branch_refs[k]
        zc = _nearest_root(zc / a, delta, ref_z)
        if d >= 1:
            wc = _nearest_root(wc / (b * zc**gamma), d, ref_w)
        else:
            raise ValueError("monomial inverse needs fiber degree d >= 1")
    return zc, wc


def bottcher(f: SkewProduct, c: Classification, z: complex, w: complex,
             n_max: int = 24, tol: float = DEFAULT_TOL,
             wedge: Optional[WedgeSpec] = None) -> BottcherEstimate:
    """phi(z, w) = lim f0^-n(f^n(z, w)) with branch continuity tracking.

    The orbit must stay inside the wedge (when one is supplied) for every
    computed step; exiting raises with the exit step named.
    """
    gamma, d = c.primary.vertex
    if d < 1:
        raise ValueError("no Böttcher coordinate for fiber degree d = 0")
    warn = not (d >= 2 or not c.flags["two_dominant_terms"])
    delta = c.delta
    a = f.p.leading_at_zero()
    b = f.q.terms[(gamma, d)]
    if wedge is not None and not contains(wedge, z, w):
        raise ValueError("point outside the supplied wedge")
    orbit = [(complex(z), complex(w))]
    phi_prev: Optional[tuple[complex, complex]] = None
    result: Optional[tuple[complex, complex]] = None
    n_used = 0
    n = 0
    try:   # a root, a power or a quotient past the double range
        for n in range(1, n_max + 1):
            zn, wn = eval_skew(f, *orbit[-1])
            try:
                finite = math.isfinite(abs(zn)) and math.isfinite(abs(wn))
            except OverflowError:   # a modulus past the double range, of finite parts
                finite = False
            if not finite:
                raise ValueError(f"orbit left the float range at step {n}")
            if wedge is not None and not contains(wedge, zn, wn):
                raise ValueError(f"orbit exits the wedge at step {n}")
            if zn == 0 or wn == 0:
                raise ValueError(f"orbit hit a coordinate axis at step {n}")
            orbit.append((zn, wn))
            phi_n = monomial_inverse(delta, gamma, d, a, b, n, zn, wn, orbit)
            if phi_prev is not None:
                delta_step = max(abs(phi_n[0] - phi_prev[0]), abs(phi_n[1] - phi_prev[1]))
                if delta_step < tol:
                    result = phi_n
                    n_used = n
                    break
            phi_prev = phi_n
        if result is None:
            result = phi_prev if phi_prev is not None else orbit[0]
            n_used = len(orbit) - 1
        phi1, phi2 = result

        # conjugacy residual: phi(f(z,w)) vs f0(phi(z,w)), same branch state
        fz, fw = eval_skew(f, z, w)
        shifted = orbit[1:]
        m = len(shifted) - 1
        if m >= 1:
            img = monomial_inverse(delta, gamma, d, a, b, m,
                                   shifted[-1][0], shifted[-1][1], shifted)
        else:
            img = (fz, fw)
        f0_phi = (a * phi1**delta, b * phi1**gamma * phi2**d)
        conj = max(abs(img[0] - f0_phi[0]), abs(img[1] - f0_phi[1]))
        scale = max(abs(z), abs(w))
        dev = max(abs(phi1 - z), abs(phi2 - w)) / scale if scale > 0 else 0.0
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"orbit left the float range at step {n}") from None
    return BottcherEstimate(phi1=phi1, phi2=phi2, n_used=n_used,
                            conj_residual=conj, id_deviation=dev,
                            no_theorem_warning=warn)
