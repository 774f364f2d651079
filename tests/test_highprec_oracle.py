"""Estimator partials against a 60-digit orbit oracle.

Independent of every double-precision code path: orbits are iterated in
mpmath and the partial estimates compared at a fixed depth.  The
assertion is the honesty contract: the error of a full-depth estimate
never exceeds its reported residual.
"""

import cmath
import math
import random

import mpmath as mp

from skewdyn import BiPoly, SkewProduct, UniPoly, classify, g_z, g_z_alpha
from skewdyn.green import _ratio_terms, ratio_orbit

mp.mp.dps = 60


def _mp_orbit(f, z, w, n):
    """[(z_k, w_k)] for k = 0..n."""
    orbit = [(mp.mpc(z), mp.mpc(w))]
    for _ in range(n):
        zc, wc = orbit[-1]
        orbit.append((sum(mp.mpc(c) * zc**k for k, c in f.p.terms.items()),
                      sum(mp.mpc(c) * zc**i * wc**j for (i, j), c in f.q.terms.items())))
    return orbit


def _gz_partial(f, c, orbit):
    """The depth-n partial of g_z: of G_z or of its composition from the parts.

    Where the integer-alpha ratio recursion c' = q(z, z^alpha c)/p(z)^alpha
    serves, G_z = [d = lambda] G_z^alpha + [delta = lambda] alpha G_p.  At
    tol = 0 no part settles, so the composition needs a G_z^alpha that
    counts (d = lambda); a part of weight 0 cannot show that its limit is
    finite.  Elsewhere the estimate is the w-partial lambda^-n log|w_n|.
    """
    n = len(orbit) - 1
    zn, wn = orbit[-1]
    if c.d == c.lam and c.alpha is not None and _ratio_terms(f, c.alpha) is not None:
        al = int(c.alpha)
        lz = mp.log(abs(zn))
        ref = (mp.log(abs(wn)) - al * lz) / mp.mpf(c.d) ** n
        if c.delta == c.lam:
            ref += al * lz / mp.mpf(c.delta) ** n
        return float(ref)
    return float(mp.log(abs(wn)) / mp.mpf(c.lam) ** n)


def _reads_the_partial(f, c, z, w, n, est):
    """Whether est, at tol 0, is the depth-n partial: it ran to step n and no close took part.

    A close (the only way to converge at tol 0) gives the limit, not the
    partial, and so does a G_z composed from a ratio part that closed; the
    deep-limit tests check those.
    """
    ro = ratio_orbit(f, c, z, w, n, False, 0.0)
    return (est.finite and est.n_used == n and est.termination != "converged"
            and (ro is None or ro.reason != "closed"))


def test_estimates_within_reported_residuals():
    rng = random.Random(2025)
    grid = [(i, j) for i in range(7) for j in range(7)
            if i + j >= 2 or (i, j) == (1, 0)]
    n_ref = 9
    compared = 0
    tries = 0
    while compared < 60 and tries < 800:
        tries += 1
        support = rng.sample(grid, rng.randint(1, 5))
        delta = rng.randint(2, 4)
        p_terms = {delta: 1.0}
        if rng.random() < 0.5:
            p_terms[delta + rng.randint(1, 2)] = complex(
                rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        try:
            f = SkewProduct(UniPoly(p_terms),
                            BiPoly({pt: complex(rng.uniform(-2, 2),
                                                rng.uniform(-2, 2))
                                    for pt in support}))
        except ValueError:
            continue
        c = classify(f)
        z = cmath.rect(rng.uniform(0.05, 0.45), rng.uniform(0, 2 * math.pi))
        w = cmath.rect(10 ** rng.uniform(-40, -0.5), rng.uniform(0, 2 * math.pi))
        orbit = _mp_orbit(f, z, w, n_ref)
        zN, wN = orbit[-1]
        if abs(wN) == 0 or abs(zN) == 0 or abs(wN) > 1e12 or abs(zN) > 1e12:
            continue
        est = g_z(f, c, z, w, n_ref, 0.0)
        ref = _gz_partial(f, c, orbit)
        if _reads_the_partial(f, c, z, w, n_ref, est):
            assert abs(est.value - ref) <= est.residual + 1e-12
            compared += 1
        if c.alpha is not None and c.d >= 1:
            al = float(c.alpha)
            ref = float((mp.log(abs(wN)) - mp.mpf(al) * mp.log(abs(zN)))
                        / mp.mpf(c.d) ** n_ref)
            est = g_z_alpha(f, c, z, w, n_ref, 0.0)
            if _reads_the_partial(f, c, z, w, n_ref, est):
                assert abs(est.value - ref) <= max(est.residual, 1e-12)
                compared += 1
    assert compared >= 60
