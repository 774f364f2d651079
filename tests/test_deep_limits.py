"""The Green-type estimators against deep high-precision limits, not partials at a fixed depth.

The reference iterates z and the weighted ratio c_n = w_n / z_n^alpha in
mpmath, 80 digits and DEPTH steps deep, c by its own recursion
c' = q(z, z^alpha c) / p(z)^alpha.  G_z^alpha and G_z^{alpha,+} take
d^-DEPTH log|c_DEPTH| and its log+, not log|w_N| - alpha log|z_N|, which
cancels about N log10(delta/d) digits; a bounded chaotic ratio
multiplies rounding error by up to d a step, and d^-N divides it out
again.  G_z, G_f and G_f^alpha take lambda^-DEPTH log|w_DEPTH|, or
lambda^-DEPTH log max(|z_DEPTH|^s, |w_DEPTH|) with s = 1 and s = alpha,
from log|w_N| = alpha log|z_N| + log|c_N| and |z|^s = exp(s log|z|).
On these maps the partials approach the limit by a factor of at most
3/4 a step: 1/d past an escape and on a bounded ratio, j/d or
delta/d < 1 on a dive toward zero, min(delta, d) / lambda where
delta != d.  So at that depth they are far closer to it than the 1e-15
the check allows.

A reference above 1e12 in size is an unbounded limit (a term c^j,
j > d, that leads an escape grows log|c_n| like j^n), where no estimate
may settle finite.  An estimate that says it converged or escaped must
lie within its residual of the limit.
"""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from skewdyn import (BiPoly, SkewProduct, UniPoly, classify, g_f, g_f_alpha, g_z, g_z_alpha,
                     g_z_alpha_plus)
from skewdyn.green import ESCAPE_LOG, _ratio_terms, best_orbit_logs, fiber_sample, ratio_orbit
from skewdyn.oracles import example_degenerate
from test_green import ESCAPE_MAP
from test_pinned_estimates import MAPS, POINTS

DEPTH = 150
SETTLED = ("converged", "escaped_with_tail")
UNBOUNDED_SIZE = 1e12
_ORBITS: dict = {}   # deep orbits by case, shared by the tests of every estimator


def _deep_orbit(f, c, z, w):
    """(log|z_N|, log|c_N|) at N = DEPTH on the 80-digit orbit of z and of the weighted ratio.

    c_n = w_n / z_n^alpha follows its own recursion c' = q(z, z^alpha c) / p(z)^alpha.
    """
    key = (id(f), z, w)
    if key not in _ORBITS:
        al = int(c.alpha)
        with mp.workdps(80):
            p = [(k, mp.mpc(a)) for k, a in f.p.terms.items()]
            q = [(i, j, mp.mpc(b)) for (i, j), b in f.q.terms.items()]
            top_z = max(max(k for k, _ in p), max(i for i, _, _ in q), abs(al))
            top_w = max(j for _, j, _ in q)
            zn = mp.mpc(z)
            cn = mp.mpc(w) / zn**al
            for _ in range(DEPTH):
                zs = _powers(zn, top_z)
                ws = _powers((zs[al] if al >= 0 else 1 / zs[-al]) * cn, top_w)
                pz = mp.fsum(a * zs[k] for k, a in p)
                cn = mp.fsum(b * zs[i] * ws[j] for i, j, b in q) / pz**al
                zn = pz
            _ORBITS[key] = (mp.log(abs(zn)), mp.log(abs(cn)))
    return _ORBITS[key]


def _powers(x, top):
    """[x^0, x^1, ..., x^top]."""
    out = [mp.mpc(1), x]
    while len(out) <= top:
        out.append(out[-1] * x)
    return out


def _deep_partial(f, c, z, w, s=None):
    """lambda^-N log|w_N|, or given s, of max(|z_N|^s, |w_N|), z^0 = 1, at N = DEPTH.

    log|w_N| = alpha log|z_N| + log|c_N|, a sum of two accurate parts.
    """
    lz, lc = _deep_orbit(f, c, z, w)
    with mp.workdps(80):
        top = int(c.alpha) * lz + lc
        if s is not None:
            s = Fraction(s)
            top = max(top, mp.mpf(s.numerator) / s.denominator * lz if s else 0)
        return float(top / mp.mpf(c.lam) ** DEPTH)


def _deep_ratio(f, c, z, w, plus=False):
    """d^-N log|c_N| of the weighted ratio at N = DEPTH; log+ for plus."""
    with mp.workdps(80):
        limit = _deep_orbit(f, c, z, w)[1] / mp.mpf(c.d) ** DEPTH
        return float(max(limit, 0) if plus else limit)


def _seeded_points(seed, count, d_min=1, c_max=1.0):
    """(map, z, w) on maps with an integer-alpha ratio recursion and d >= d_min.

    The weighted ratio w / z^alpha starts at a modulus uniform in 0.05..c_max.
    """
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
        if c.alpha is None or c.d < d_min or _ratio_terms(f, c.alpha) is None:
            continue
        z = cmath.rect(rng.uniform(0.1, 0.5), rng.uniform(0, 2 * math.pi))
        ratio = cmath.rect(rng.uniform(0.05, c_max), rng.uniform(0, 2 * math.pi))
        out.append((f, z, ratio * z ** int(c.alpha)))
    return out


# a recursion c' = b c^2 + b' z c^4 (delta = 3, d = 2, alpha = 0) whose
# escape the z-factor keeps led by c^2: the limit is 0.8733572682523658
J_GT_D_MAP = SkewProduct(
    UniPoly({3: 0.19255142245753087 - 0.6308737327469336j,
             4: 0.11745252046611665 - 0.3733007674497303j}),
    BiPoly({(0, 2): 0.8207811090830228 + 1.3803813006524988j,
            (1, 4): -1.0024306728152685 - 1.0005465681261159j}))
J_GT_D_POINT = (0.07116581619844696 + 0.2139343004305908j,
                -0.9293509862329415 - 0.9379179919205831j)

SEEDED = _seeded_points(11, 12)
# d >= 2 with ratios up to 1.5: about half of them escape, a third of
# those on recursions with a term c^j, j > d
ESCAPING = _seeded_points(5, 20, d_min=2, c_max=1.5)
# the two pinned points whose partials grow without bound (1.2e18 and 5.9e31)
UNBOUNDED = [(MAPS["case2"], *POINTS["case2"][1]), (MAPS["case4"], *POINTS["case4"][1])]
# c' = c^3 + c^2 on example_degenerate(1, 4): bounded ratios, limit 0
DEGENERATE_BOUNDED = [(MAPS["case3"], *POINTS["case3"][0]), (MAPS["case3"], *POINTS["case3"][2]),
                      (example_degenerate(1, 4), 0.5, 0.1 + 0.1j)]
CASES = {
    "pinned_and_seeded": [(MAPS[name], z, w) for name in ("case1", "case2", "case3", "case4")
                          for z, w in POINTS[name] if (MAPS[name], z, w) not in DEGENERATE_BOUNDED]
    + [(ESCAPE_MAP, 0.134 - 0.221j, 0.165 + 0.395j)]
    + [(f, z, w) for f, z, w in SEEDED if classify(f).d >= 2]
    + ESCAPING,
    # d = 1: G_z^alpha = lim log|c_n| diverges where |b| != 1, so G_z takes
    # the direct orbit, whose residual is the last increment of a geometric tail
    "seeded_d1": [(f, z, w) for f, z, w in SEEDED if classify(f).d == 1],
    # the ratio stays bounded, or dives toward 0 at a linear rate (c' = b c^d
    # + b' c + ..., i~ = 0 on both), so d^-n log|c_n| tends to 0 only
    # geometrically and its last increment understates the tail; d < lambda,
    # so G_z = alpha G_p takes G_z^alpha with weight 0
    "bounded_ratio": DEGENERATE_BOUNDED + [
        (SkewProduct(UniPoly({4: 1.02116555721397 + 0.5717397314080517j,
                              5: -0.3286332669916483 + 0.1864628943961446j}),
                     BiPoly({(1, 3): 0.23571122194453697 + 0.6289015213830509j,
                             (2, 2): 0.6690327341190319 - 0.9569790613279167j,
                             (3, 3): -0.17059402792203104 - 0.3000277801340605j,
                             (4, 1): -0.30838348149135664 + 0.7466677769769556j})),
         0.014290157635613046 + 0.23637180354730258j,
         0.06560060303723213 + 0.05008437334319153j),
    ],
    # as bounded_ratio, but d = lambda: G_z composes G_z^alpha with weight 1
    # and misses with it
    "bounded_ratio_composed": [
        (SkewProduct(UniPoly({2: -1.4522160662900534 + 0.11909179263778395j}),
                     BiPoly({(0, 2): -0.32201516583700474 - 0.5485213711600219j,
                             (2, 3): 0.8718033041945574 - 0.6142273965551425j,
                             (3, 4): -1.0513730566424249 - 1.473226131680543j,
                             (4, 1): 0.4029906440276445 + 1.0651511961387627j})),
         0.045858605033639234 + 0.33064357661311095j,
         0.00016020842328467061 + 0.0007025708435310912j),
    ],
}


# d = 1 on every seeded_d1 map; ROADMAP item 2 names the mend
D1_XFAIL = pytest.mark.xfail(
    reason="direct-orbit G_z residuals miss the geometric tail; ROADMAP item 2")
BOUNDED_XFAIL = pytest.mark.xfail(
    reason="a bounded ratio's residual misses the geometric tail of its limit 0; "
           "ROADMAP item 2, bounded ratios")


# settled comparisons each estimator must make in a group; on seeded_d1
# log|c_n| runs off linearly where |b| != 1, so G_z^alpha settles nowhere
MINIMUM = {"pinned_and_seeded": 30, "seeded_d1": 0, "bounded_ratio": 4,
           "bounded_ratio_composed": 1}


def _assert_within_residual(group, estimate, reference):
    settled = 0
    for f, z, w in CASES[group]:
        c = classify(f)
        est = estimate(f, c, z, w)
        limit = reference(f, c, z, w)
        if (f, z, w) in UNBOUNDED:
            assert limit > 1e15
        if abs(limit) > UNBOUNDED_SIZE:   # no finite estimate may say it settled
            assert not (est.finite and est.termination in SETTLED), (f.q.terms, z, w, est)
        elif est.termination in SETTLED:
            assert abs(est.value - limit) <= est.residual + 1e-15 * max(1.0, abs(limit)), (
                f.q.terms, z, w, est, limit)
            settled += 1
    assert settled >= MINIMUM[group]


COMPOSED = pytest.param("bounded_ratio_composed", marks=BOUNDED_XFAIL)


@pytest.mark.parametrize("group", [
    "pinned_and_seeded",
    pytest.param("seeded_d1", marks=D1_XFAIL),
    "bounded_ratio",
    COMPOSED,
])
def test_gz_within_its_residual_of_the_deep_limit(group):
    # where d = lambda, G_z composes G_z^alpha and inherits its residual
    _assert_within_residual(group, g_z, _deep_partial)


@pytest.mark.parametrize("group", [
    "pinned_and_seeded",
    pytest.param("seeded_d1", marks=D1_XFAIL),
    "bounded_ratio",
    "bounded_ratio_composed",
])
@pytest.mark.parametrize("key", ["Gf", "Gfa"])
def test_gf_within_its_residual_of_the_deep_limit(key, group):
    # G_f = max(Z, G_z) and G_f^alpha = max(alpha Z, G_z) inherit the G_z
    # part, so the d = 1 maps fail with it
    if key == "Gf":
        _assert_within_residual(group, g_f, lambda f, c, z, w: _deep_partial(f, c, z, w, 1))
    else:
        _assert_within_residual(group, g_f_alpha,
                                lambda f, c, z, w: _deep_partial(f, c, z, w, c.alpha))


@pytest.mark.parametrize("group", [
    "pinned_and_seeded",
    "seeded_d1",
    pytest.param("bounded_ratio", marks=BOUNDED_XFAIL),
    COMPOSED,
])
def test_gza_within_its_residual_of_the_deep_limit(group):
    _assert_within_residual(group, g_z_alpha, _deep_ratio)


# the certified bound of log+ holds the limit 0 of a bounded ratio
@pytest.mark.parametrize("group", ["pinned_and_seeded", "seeded_d1", "bounded_ratio",
                                   "bounded_ratio_composed"])
def test_gzap_within_its_residual_of_the_deep_limit(group):
    _assert_within_residual(group, g_z_alpha_plus,
                            lambda f, c, z, w: _deep_ratio(f, c, z, w, plus=True))


def test_j_gt_d_escape_settles_to_its_limit():
    # the escape runs past the old exit radius, where c^2 leads and the
    # term z c^4 falls behind; 110 and 160 steps give the same limit
    f, (z, w) = J_GT_D_MAP, J_GT_D_POINT
    c = classify(f)
    assert (c.delta, c.d, c.alpha) == (3, 2, 0)
    assert any(j > c.d for _, j, _, _ in _ratio_terms(f, c.alpha))
    limit = _deep_ratio(f, c, z, w)
    assert abs(limit - 0.8733572682523658) < 1e-15
    for fn, key in ((g_z_alpha, "Gza"), (g_z_alpha_plus, "Gzap")):
        est = fn(f, c, z, w)
        assert est.termination == "converged"
        assert abs(est.value - limit) <= est.residual
        assert repr(fiber_sample(f, c, key, z, [w]).estimates) == repr((est,))


def test_escape_residual_keeps_a_margin():
    # past the escape radius the increments of d^-n log|c_n| shrink at the
    # rate 1/d, so the tail past the last one, r, is r/(d-1): at d = 2 as
    # large as r itself.  The residual r d/(d-1) leaves r of margin, and
    # the error must stay clear of its top quarter, with no allowance
    degrees = set()
    for f, z, w in CASES["pinned_and_seeded"] + [(J_GT_D_MAP, *J_GT_D_POINT)]:
        c = classify(f)
        est = g_z_alpha(f, c, z, w)
        ro = ratio_orbit(f, c.alpha, z, w, 64)
        if not (est.finite and est.termination == "converged" and ro is not None
                and ro.log_mags[est.n_used] > ESCAPE_LOG):
            continue
        assert abs(est.value - _deep_ratio(f, c, z, w)) <= 0.75 * est.residual, (f.q.terms, z, w)
        degrees.add(c.d)
    assert degrees == {2, 3}


@pytest.mark.xfail(reason="five growing increments of a j < d dive read as divergence; "
                          "ROADMAP item 2")
def test_j_lt_d_dive_settles_to_its_limit():
    # c' = b c^4 + b' c^3 + b'' z^4 c^4 (delta = d = 4, alpha = 1): the ratio
    # dives toward 0 led by c^3, so d^-n log|c_n| tends to 0 at the rate 3/4,
    # but its first five increments grow before that decay shows
    f = SkewProduct(UniPoly({4: 1.2028 - 0.3925j}),
                    BiPoly({(0, 4): -1.1579 + 0.1414j, (1, 3): -0.1078 - 0.0164j,
                            (4, 4): -1.2745 - 1.2781j}))
    z, w = 0.30248 + 0.05864j, 0.10540 + 0.22685j
    c = classify(f)
    assert (c.delta, c.d, c.alpha) == (4, 4, 1)
    limit = _deep_ratio(f, c, z, w)
    assert abs(limit) < 1e-15
    est = g_z_alpha(f, c, z, w, 200)
    assert est.termination in SETTLED and abs(est.value - limit) <= est.residual, est


@pytest.mark.xfail(reason="the direct orbit of a p-tail map with alpha = -3 ends 'range' at "
                          "step 4, so G_z and G_f end 'budget'; ROADMAP item 4")
def test_p_tail_orbit_runs_past_its_first_refused_switch():
    # alpha = -3, delta = 2, d = lambda = 3: no ratio recursion, so G_z and
    # G_f read the direct orbit, where neither dominant term passes the
    # dominance check at step 5 (1 of 35 such points among 60 seeded ones)
    f = SkewProduct(UniPoly({2: 0.99 - 0.28j, 3: 0.24 - 0.10j}),
                    BiPoly({(3, 3): 0.10 + 0.77j, (3, 4): -0.44 - 0.17j}))
    z, w = 0.3783573756303091 + 0.1652246999096066j, 0.02989958742735883 - 0.048812974685758986j
    c = classify(f)
    assert (c.alpha, c.delta, c.d) == (-3, 2, 3)
    logs = best_orbit_logs(f, c, z, w, 64)
    assert logs.reason != "range" or logs.steps[-1][0] >= 10, logs.steps[-1]
    for fn in (g_z, g_f):
        assert fn(f, c, z, w).termination != "budget"


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
