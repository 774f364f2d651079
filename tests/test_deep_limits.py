"""G_z, G_f and G_f^alpha against deep high-precision limits, not partials at a fixed depth.

The reference iterates (p, q) itself in mpmath, 60 digits and DEPTH
steps deep, and takes lambda^-DEPTH log|w_DEPTH|, or for G_f and
G_f^alpha lambda^-DEPTH log max(|z_DEPTH|^s, |w_DEPTH|) with s = 1 and
s = alpha, |z|^s formed as exp(s log|z|).  On these maps its partials
approach the limit by a factor of at most 3/4 a step (min(delta, d) /
lambda where delta != d, 1/d or faster where delta = d), so at that depth
they are far closer to it than the 1e-15 the check allows.  An estimate
that says it converged or escaped must lie within its residual of the
limit.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from skewdyn import BiPoly, SkewProduct, UniPoly, classify, g_f, g_f_alpha, g_z
from skewdyn.green import _ratio_terms, fiber_sample
from skewdyn.oracles import example_degenerate
from test_green import ESCAPE_MAP
from test_pinned_estimates import MAPS, POINTS

DEPTH = 150
SETTLED = ("converged", "escaped_with_tail")


def _deep_partial(f, lam, z, w, s=None):
    """lambda^-DEPTH log|w_DEPTH| on the 60-digit orbit of (z, w).

    Given s, the log is of max(|z_DEPTH|^s, |w_DEPTH|), with z^0 = 1.
    """
    with mp.workdps(60):
        zn, wn = mp.mpc(z), mp.mpc(w)
        for _ in range(DEPTH):
            zn, wn = (sum(mp.mpc(a) * zn**k for k, a in f.p.terms.items()),
                      sum(mp.mpc(b) * zn**i * wn**j for (i, j), b in f.q.terms.items()))
        top = mp.log(abs(wn))
        if s is not None:
            s = Fraction(s)
            top = max(top, mp.mpf(s.numerator) / s.denominator * mp.log(abs(zn)) if s else 0)
        return float(top / mp.mpf(lam) ** DEPTH)


def _seeded_points(seed, count):
    """(map, z, w) on maps with an integer-alpha ratio recursion and d >= 1."""
    rng = random.Random(seed)
    grid = [(i, j) for i in range(5) for j in range(5) if i + j >= 2]
    out = []
    while len(out) < count:
        delta = rng.randint(2, 4)
        p_terms = {delta: cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))}
        if rng.random() < 0.5:
            p_terms[delta + 1] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        try:
            f = SkewProduct(UniPoly(p_terms),
                            BiPoly({pt: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                                    for pt in rng.sample(grid, rng.randint(2, 4))}))
        except ValueError:
            continue
        c = classify(f)
        if c.alpha is None or c.d < 1 or _ratio_terms(f, c.alpha) is None:
            continue
        z = cmath.rect(rng.uniform(0.1, 0.5), rng.uniform(0, 2 * math.pi))
        ratio = cmath.rect(rng.uniform(0.05, 1.0), rng.uniform(0, 2 * math.pi))
        out.append((f, z, ratio * z ** int(c.alpha)))
    return out


SEEDED = _seeded_points(11, 12)
# the two pinned points whose partials grow without bound (1.2e18 and 5.9e31)
UNBOUNDED = [(MAPS["case2"], *POINTS["case2"][1]), (MAPS["case4"], *POINTS["case4"][1])]
CASES = {
    "pinned_and_seeded": [(MAPS[name], z, w) for name in ("case1", "case2", "case3", "case4")
                          for z, w in POINTS[name]]
    + [(example_degenerate(1, 4), 0.5, 0.1 + 0.1j), (ESCAPE_MAP, 0.134 - 0.221j, 0.165 + 0.395j)]
    + [(f, z, w) for f, z, w in SEEDED if classify(f).d >= 2],
    # d = 1: G_z^alpha = lim log|c_n| diverges where |b| != 1, so G_z takes
    # the direct orbit, whose residual is the last increment of a geometric tail
    "seeded_d1": [(f, z, w) for f, z, w in SEEDED if classify(f).d == 1],
}


# d = 1 on every seeded_d1 map; ROADMAP item 2 names the mend
D1_XFAIL = pytest.mark.xfail(
    reason="direct-orbit G_z residuals miss the geometric tail; ROADMAP item 2")


def _assert_within_residual(group, estimate, scale):
    settled = 0
    for f, z, w in CASES[group]:
        c = classify(f)
        est = estimate(f, c, z, w)
        limit = _deep_partial(f, c.lam, z, w, scale(c))
        if (f, z, w) in UNBOUNDED:
            assert limit > 1e15
        if limit > 1e12:   # +inf: no finite estimate may say it settled
            assert not (est.finite and est.termination in SETTLED), (f.q.terms, z, w, est)
        elif est.termination in SETTLED:
            assert abs(est.value - limit) <= est.residual + 1e-15 * max(1.0, abs(limit)), (
                f.q.terms, z, w, est, limit)
            settled += 1
    assert settled >= 4


@pytest.mark.parametrize("group", [
    "pinned_and_seeded",
    pytest.param("seeded_d1", marks=D1_XFAIL),
])
def test_gz_within_its_residual_of_the_deep_limit(group):
    _assert_within_residual(group, g_z, lambda c: None)


@pytest.mark.parametrize("group", [
    "pinned_and_seeded",
    pytest.param("seeded_d1", marks=D1_XFAIL),
])
@pytest.mark.parametrize("key", ["Gf", "Gfa"])
def test_gf_within_its_residual_of_the_deep_limit(key, group):
    # G_f = max(Z, G_z) and G_f^alpha = max(alpha Z, G_z) inherit the G_z
    # part, so the d = 1 maps fail with it
    if key == "Gf":
        _assert_within_residual(group, g_f, lambda c: 1)
    else:
        _assert_within_residual(group, g_f_alpha, lambda c: c.alpha)


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_unbounded_points_do_not_settle_before_the_ratio_escapes(n_max):
    # c_n escapes at step 4 on both points; before that G_z^alpha, of
    # weight 0 here (d < lambda), has not settled, so nothing yet shows
    # that its d^-n log|c_n| stays finite, which G_z = alpha G_p needs
    for f, z, w in UNBOUNDED:
        c = classify(f)
        for est in (g_z(f, c, z, w, n_max),
                    fiber_sample(f, c, "Gz", z, [w], n_max).estimates[0]):
            assert not (est.finite and est.termination in SETTLED), (n_max, est)
