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

from skewdyn import (BiPoly, SkewProduct, UniPoly, classify, g_f, g_f_alpha, g_p, g_z, g_z_alpha,
                     g_z_alpha_plus, g_z_infty)
from skewdyn.green import (ESCAPE_LOG, GreenEstimate, _f_z_part, _gz_composed, _ratio_close,
                           _ratio_terms, best_orbit_logs, fiber_sample, ratio_orbit)
from skewdyn.oracles import example_degenerate
from test_green import ESCAPE_MAP
from test_pinned_estimates import MAPS, POINTS

DEPTH = 150
SETTLED = ("converged", "escaped_with_tail")
UNBOUNDED_SIZE = 1e12
_ORBITS: dict = {}   # deep orbits by case, shared by the tests of every estimator


def _deep_orbit(f, c, z, w, depth=DEPTH):
    """(log|z_N|, log|c_N|) at N = depth on the 80-digit orbit of z and of the weighted ratio.

    c_n = w_n / z_n^alpha follows its own recursion c' = q(z, z^alpha c) / p(z)^alpha.
    """
    key = (id(f), z, w, depth)
    if key not in _ORBITS:
        al = int(c.alpha)
        with mp.workdps(80):
            p = [(k, mp.mpc(a)) for k, a in f.p.terms.items()]
            q = [(i, j, mp.mpc(b)) for (i, j), b in f.q.terms.items()]
            top_z = max(max(k for k, _ in p), max(i for i, _, _ in q), abs(al))
            top_w = max(j for _, j, _ in q)
            zn = mp.mpc(z)
            cn = mp.mpc(w) / zn**al
            for _ in range(depth):
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


def _deep_ratio(f, c, z, w, plus=False, depth=DEPTH):
    """d^-N log|c_N| of the weighted ratio at N = depth; log+ for plus."""
    with mp.workdps(80):
        limit = _deep_orbit(f, c, z, w, depth)[1] / mp.mpf(c.d) ** depth
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


def _direct_points(seed, count):
    """(map, z, w) on maps of support {z w^3, w^5}: delta = 2, d = 3, alpha = -1; half with p tails.

    The term w^5 has i~ = -3, so no ratio recursion serves: every estimator
    runs the direct orbit, which closes at its switch.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p_terms = {2: cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))}
        if rng.random() < 0.5:
            p_terms[3] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        f = SkewProduct(UniPoly(p_terms), BiPoly({
            ij: cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))
            for ij in ((1, 3), (0, 5))}))
        out.append((f, cmath.rect(rng.uniform(0.1, 0.6), rng.uniform(0, 2 * math.pi)),
                    cmath.rect(rng.uniform(0.05, 0.8), rng.uniform(0, 2 * math.pi))))
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
    # the direct orbit, which closes at its switch; a settle would read the
    # last increment of a geometric tail at the rate 1/2 and miss
    "seeded_d1": [(f, z, w) for f, z, w in SEEDED if classify(f).d == 1],
    # the direct orbit alone (delta = 2, d = 3, alpha = -1): G_z closes at
    # the switch, where a settle misses its tail at the rate 2/3
    "direct_d_gt": _direct_points(13, 30),
    # the ratio stays bounded, or dives toward 0 at a linear rate (c' = b c^d
    # + b' c + ..., i~ = 0 on both), so d^-n log|c_n| tends to 0 only
    # geometrically and a settle's last increment understates the tail, but
    # a lead's rate closes it; d < lambda, so G_z = alpha G_p takes G_z^alpha
    # with weight 0
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


# settled comparisons each estimator must make in a group; on seeded_d1
# log|c_n| runs off linearly where |b| != 1, so G_z^alpha settles nowhere
MINIMUM = {"pinned_and_seeded": 30, "seeded_d1": 0, "direct_d_gt": 10, "bounded_ratio": 4,
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


@pytest.mark.parametrize("group", [
    "pinned_and_seeded",
    "seeded_d1",
    "direct_d_gt",
    "bounded_ratio",
    "bounded_ratio_composed",
])
def test_gz_within_its_residual_of_the_deep_limit(group):
    # where d = lambda, G_z composes G_z^alpha and inherits its residual
    _assert_within_residual(group, g_z, _deep_partial)


@pytest.mark.parametrize("group", [
    "pinned_and_seeded",
    "seeded_d1",
    "direct_d_gt",
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
    "direct_d_gt",
    "bounded_ratio",
    "bounded_ratio_composed",
])
def test_gza_within_its_residual_of_the_deep_limit(group):
    _assert_within_residual(group, g_z_alpha, _deep_ratio)


# the certified bound of log+ holds the limit 0 of a bounded ratio
@pytest.mark.parametrize("group", ["pinned_and_seeded", "seeded_d1", "direct_d_gt",
                                   "bounded_ratio", "bounded_ratio_composed"])
def test_gzap_within_its_residual_of_the_deep_limit(group):
    _assert_within_residual(group, g_z_alpha_plus,
                            lambda f, c, z, w: _deep_ratio(f, c, z, w, plus=True))


def _infty_points(seed, count):
    """(map, z, w) on Case 1 maps with delta = d and gamma > 0, half with a p tail."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d, gamma = rng.randint(2, 3), rng.randint(1, 2)
        p_terms = {d: cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))}
        if rng.random() < 0.5:
            p_terms[d + 1] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        q_terms = {(gamma, d): cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))}
        for _ in range(rng.randint(0, 2)):
            q_terms[gamma + rng.randint(0, 2), d + rng.randint(1, 2)] = complex(
                rng.uniform(-1, 1), rng.uniform(-1, 1))
        f = SkewProduct(UniPoly(p_terms), BiPoly(q_terms))
        out.append((f, cmath.rect(rng.uniform(0.1, 0.5), rng.uniform(0, 2 * math.pi)),
                    cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(0, 2 * math.pi))))
    return out


def _infty_alternate_points(seed, count):
    """(map, z, w) on maps p = a z^2 (+ z^3), q = b w^2 + b' z^3: delta = d = 2, gamma = 0.

    q has two dominant vertices, the primary (0, 2) and the alternate
    (3, 0).  Once z^3 leads, the gap of q's terms stays 3 log|a| - log|b b'|,
    above 17 here (|a| >= 3, |b|, |b'| <= 1e-3); where e^-gap passes the
    dominance test, the orbit switches to the alternate, as most of these do.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p_terms = {2: cmath.rect(rng.uniform(3, 6), rng.uniform(0, 2 * math.pi))}
        if rng.random() < 0.5:
            p_terms[3] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        f = SkewProduct(UniPoly(p_terms), BiPoly({
            ij: cmath.rect(10 ** rng.uniform(-5, -3), rng.uniform(0, 2 * math.pi))
            for ij in ((0, 2), (3, 0))}))
        out.append((f, cmath.rect(rng.uniform(0.01, 0.1), rng.uniform(0, 2 * math.pi)),
                    cmath.rect(10 ** rng.uniform(-3, 2), rng.uniform(0, 2 * math.pi))))
    return out


def _deep_infty(f, c, z, w, depth=80):
    """d^-N (log|w_N| - (gamma N/d) log|z_N|) at N = depth on the 150-digit orbit.

    The two logs cancel about N log10(d) + 2 digits; the partials approach
    the limit like the p tail and the neglected terms, |z_N| small.
    """
    with mp.workdps(150):
        zn, wn = mp.mpc(z), mp.mpc(w)
        p = [(k, mp.mpc(a)) for k, a in f.p.terms.items()]
        q = [(i, j, mp.mpc(b)) for (i, j), b in f.q.terms.items()]
        for _ in range(depth):
            zn, wn = (mp.fsum(a * zn**k for k, a in p),
                      mp.fsum(b * zn**i * wn**j for i, j, b in q))
        slope = mp.mpf(c.gamma) * depth / c.d
        return float((mp.log(abs(wn)) - slope * mp.log(abs(zn))) / mp.mpf(c.d) ** depth)


@pytest.mark.parametrize("group", ["gamma_pos", "gamma_zero_alternate"])
def test_gzi_within_its_residual_of_the_deep_limit(group):
    # G_z^inf closes at the direct orbit's switch, as a point and as a lane,
    # where a settle of its geometric tail missed (117 of 184 points at the
    # rate 1/d on one seeded draw); with gamma = 0 the orbit may switch to
    # the alternate vertex (3, 0), whose own affine map the close must follow
    points = _infty_points(7, 40) if group == "gamma_pos" else _infty_alternate_points(3, 40)
    settled = alternate = 0
    for f, z, w in points:
        c = classify(f)
        assert c.delta == c.d and (c.gamma > 0) == (group == "gamma_pos")
        limit = _deep_infty(f, c, z, w)
        logs = best_orbit_logs(f, c, z, w, 64)
        list(logs)
        for tol in (1e-10, 0.0):
            est = g_z_infty(f, c, z, w, 64, tol)
            assert repr(fiber_sample(f, c, "Gzi", z, [w, 0.1], 64, tol).estimates[0]) == repr(est)
            if est.termination in SETTLED:
                assert abs(est.value - limit) <= est.residual + 1e-15 * max(1.0, abs(limit)), (
                    f.q.terms, z, w, tol, est, limit)
                settled += 1
                alternate += logs._dominant != c.primary.vertex
    assert settled >= 30
    assert alternate >= (30 if group == "gamma_zero_alternate" else 0)


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
        ro = ratio_orbit(f, c, z, w, 64)
        if not (est.finite and est.termination == "converged" and ro is not None
                and ro.log_mags[est.n_used] > ESCAPE_LOG):
            continue
        assert abs(est.value - _deep_ratio(f, c, z, w)) <= 0.75 * est.residual, (f.q.terms, z, w)
        degrees.add(c.d)
    assert degrees == {2, 3}


def test_degenerate_dives_close_at_their_limit():
    # c' = c^3 + c^2 dives led by c^2, j = 2 < d = 3: the orbit closes the
    # series at its exact limit 0 once the lead is certified, as a point
    # and as a lane, where the settle alone stopped about 1e-10 short
    for f, z, w in DEGENERATE_BOUNDED:
        c = classify(f)
        limit = _deep_ratio(f, c, z, w)
        assert ratio_orbit(f, c, z, w, 64).reason == "closed"
        est = g_z_alpha(f, c, z, w)
        lane = fiber_sample(f, c, "Gza", z, [0.2, w]).estimates[1]
        for got in (est, lane):
            assert got.termination == "converged", got
            assert abs(got.value - limit) <= got.residual + 1e-15, (z, w, got, limit)
        assert repr(lane) == repr(est)


# an attracting fixed point of p = z^4 - (0.8 / _ZF) z^5, of modulus 5^(1/3) > 1
_ZF = cmath.exp(cmath.log(5) / 3)
# map, z, w, whether G_z^alpha and G_z^{alpha,+} close, the keys whose
# estimates must lie within their residual of the deep limit.  The first
# cases close, by the rate of a lead b c^j (i~ = 0, 2 <= j <= d, delta >= j)
# or by the dive of one of least j and least i~; each later case breaks one
# condition of those closes.  G_z^{alpha,+} closes by the trap wherever its
# polydisc maps into itself, which needs no lead; a settle that is not a
# close may miss its geometric tail, so such a key is not checked there
CLOSE_CASES = {
    # (a)-(d) hold on the dive of c' = c^3 + c^2: c^2 leads it, at rate 2 < d
    "all_hold": (example_degenerate(1, 4), 0.5, 0.1 + 0.1j, (True, True), ("Gza", "Gzap")),
    # c' = b c^3 + b' z c^4 dives led by c^3 = c^d, so G_z^alpha is not 0 but
    # closes at its closed form d^-n (C_n + lb/(d-1))
    "a": (SkewProduct(UniPoly({4: 1.0}), BiPoly({(0, 3): 0.7 + 0.2j, (1, 4): 0.5})),
          0.5, 0.3, (True, True), ("Gza", "Gzap")),
    # the lead c^2 of c' = c^3 + c^2 + z^2 c has z^2 c, j = 1, below it: no
    # dive's lead, but c^2 certifies its rate, as L falls like 4^n and C like 2^n
    "b": (SkewProduct(UniPoly({4: 1.0}), BiPoly({(1, 3): 1.0, (2, 2): 1.0, (5, 1): 1.0})),
          0.5, 0.1 + 0.1j, (True, True), ("Gza", "Gzap")),
    # c' = c^3 + c^4 + z c^2 (delta = 5, d = 4): the lead z c^2 has c^3, i~ = 0,
    # below it; c^3 takes the top and certifies its rate
    "b_it": (SkewProduct(UniPoly({5: 1.0}), BiPoly({(2, 3): 1.0, (1, 4): 1.0, (4, 2): 1.0})),
             0.9, 0.9e-30, (True, True), ("Gza", "Gzap")),
    # c' = c^2 escapes, led by c^2 = c^d alone: both close at once at log 2
    "d": (SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 2): 1.0})), 0.5, 2.0, (True, True),
          ("Gza", "Gzap")),
    # c' = b c^3 + b' c dives led by c, j = 1: the dive's close, not the rate's
    "j1": (ESCAPE_MAP, 0.134 - 0.221j, 0.01, (True, True), ("Gza", "Gzap")),
    # c' = 0.5 c^2: from C = 0.5 > 0 it dives, C' = 2 C + log 0.5 < C, so
    # G_z^{alpha,+} = 0; the escape's bound C > |lb|/(d-1) refuses its closed
    # form -0.19, and the trap closes it at 0
    "plus_escape": (SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 2): 0.5})), 0.5, 1.65,
                    (True, True), ("Gza", "Gzap")),
    # c' = 2 c^2 + 0.001 c^3 escapes led at first by c^2, j = 2 < d, below
    # which c^3 grows: Phi_t > 0 refuses the close at 0, and c^3 closes it
    # by its rate at its closed form once it takes the top
    "phi": (SkewProduct(UniPoly({4: 1.0}), BiPoly({(1, 3): 0.001, (2, 2): 2.0})), 0.5, 0.3,
            (True, True), ("Gza", "Gzap")),
    # (c) fails: z_n tends to the fixed point _ZF, so log|z_n| never falls
    "c": (SkewProduct(UniPoly({4: 1.0, 5: -0.8 / _ZF}), BiPoly({(1, 3): 1.0, (2, 2): 1.0})),
          1.01 * _ZF, 0.01 * _ZF, (False, False), ("Gzap",)),
    # delta >= j fails: c' = c^3 + z c^4 with delta = 2 < d = 3, where Phi < 0
    # at step 0 (z = 1e-9) but z c^4 takes over (C ~ 3^n against L ~ 2^n),
    # so the limit is +inf; the increments settle at once on exact partials
    # (FOUND in CHANGES.md), so no key is checked
    "delta_lt_j": (SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 3): 1.0, (1, 4): 1.0})),
                   1e-9, 2.0, (False, False), ()),
    # the drift: an escape led by c^2 past extended steps with eta > 0,
    # where d^n times the fold reaches 1 by step 52, so no rate close holds
    "drift": (SkewProduct(UniPoly({3: 0.7157321320522875 + 0.9196776264957855j}),
                          BiPoly({(0, 2): -1.3632590096099033 + 0.2800656034878575j,
                                  (1, 3): -1.0584033032562765 + 1.2831704618139637j,
                                  (3, 1): 1.3666123886107089 - 0.2461813946569671j,
                                  (3, 3): -0.6657518437348268 - 0.14562382138528296j})),
              0.592098005927809 - 0.63526156509452j, 1.2274590025826728 - 2.3788401363369047j,
              (False, False), ()),
    # d = 1: c' = 0.5 c + 2 maps |c| <= 100 into itself, but d^-n log+|c_n| -> log 4,
    # so the trap needs d >= 2 or R < 1
    "d1": (SkewProduct(UniPoly({2: 1.0}), BiPoly({(1, 1): 0.5, (2, 0): 2.0})), 0.5, 50.0,
           (False, False), ("Gzap",)),
}


@pytest.mark.parametrize("name", list(CLOSE_CASES))
def test_a_close_needs_each_of_its_conditions(name):
    f, z, w, closes, checked = CLOSE_CASES[name]
    c = classify(f)
    for plus, key, fn, want in ((False, "Gza", g_z_alpha, closes[0]),
                                (True, "Gzap", g_z_alpha_plus, closes[1])):
        limit = _deep_ratio(f, c, z, w, plus)
        # tol 0 never settles by increments, so the orbit runs to its close or its end
        for tol in (1e-10, 0.0):
            ro = ratio_orbit(f, c, z, w, 64, plus, tol)
            assert (ro.reason == "closed") == want, (key, tol, ro.reason)
            est = fn(f, c, z, w, 64, tol)
            assert repr(fiber_sample(f, c, key, z, [w, 0.2], 64, tol).estimates[0]) == repr(est)
            if want and not tol:   # nothing settles before the close
                assert (est.n_used, est.termination) == (ro.closed, "converged")
            if key in checked and est.termination in SETTLED:
                assert abs(est.value - limit) <= est.residual + 1e-15 * max(1.0, abs(limit)), (
                    key, tol, est, limit)


def test_a_plus_escape_closes_once_c_clears_its_bound():
    # c' = b c^3 with |b| = 1.76: log|c_n| rises past 0 at step 3 (0.036),
    # but G_z^{alpha,+} takes the escape's closed form only where C > (E +
    # |lb|)/(d-1) = 0.28 holds it rising for good, at step 4 (0.676)
    f = SkewProduct(UniPoly({4: 0.7787674972792147 + 0.680650902742329j}),
                    BiPoly({(0, 3): 0.9833044699371891 - 1.46285476654j}))
    z, w = 0.07639975697147289 + 0.13371538729876825j, -0.028696367480665962 - 0.7616494418536113j
    c = classify(f)
    ro = ratio_orbit(f, c, z, w, 64, True)
    assert ro.closed == 4 and 0.0 < ro.log_mags[3] < 0.28 < ro.log_mags[4]
    est = g_z_alpha_plus(f, c, z, w)
    assert (est.n_used, est.termination) == (4, "converged")
    assert abs(est.value - _deep_ratio(f, c, z, w, True)) <= est.residual
    assert repr(fiber_sample(f, c, "Gzap", z, [w, 0.1]).estimates[0]) == repr(est)


def test_the_rate_certificate_takes_the_drift_into_its_margins():
    # a true C within drift = d^n fold of the computed one: where the gap of
    # c^2 to the lead c^3 could grow (Phi_t + |dj| (j-1) drift >= 0), or an
    # escape could fall back (C - drift <= |lb|/(d-1)), the rate does not close
    # though the computed state alone would pass; orbits rarely get there
    fold = 0.6 / 9   # drift 0.6 at n = 2, d = 3
    lone = SkewProduct(UniPoly({4: 1.0}), BiPoly({(0, 3): math.e}))   # lb = 1, no other term
    for f, lc, lb, plus in ((example_degenerate(1, 4), 0.5, 0.0, False),   # Phi = -1 + 2 drift
                            (example_degenerate(1, 4), 0.5, 0.0, True), (lone, 1.0, 1.0, True)):
        c = classify(f)
        close, _ = _ratio_close(c, _ratio_terms(f, c.alpha), plus, int(c.alpha), 0.0, [])
        for fold_n, want in ((fold, False), (0.0, True)):
            shut, _, _ = close.closes(3 * lc + lb, 3, lb, lc, -5.0, 0.0, fold_n, 2, 0.0, 1e-10,
                                      True)
            assert shut == want, (f.q.terms, plus, fold_n)


def test_j_lt_d_dive_settles_to_its_limit():
    # c' = b c^4 + b' c^3 + b'' z^4 c^4 (delta = d = 4, alpha = 1): the ratio
    # dives toward 0 led by c^3, so d^-n log|c_n| tends to 0 at the rate 3/4,
    # but its first five increments grow before that decay shows; an exact
    # step offers the close, which ends the series at 0 first
    f = SkewProduct(UniPoly({4: 1.2028 - 0.3925j}),
                    BiPoly({(0, 4): -1.1579 + 0.1414j, (1, 3): -0.1078 - 0.0164j,
                            (4, 4): -1.2745 - 1.2781j}))
    z, w = 0.30248 + 0.05864j, 0.10540 + 0.22685j
    c = classify(f)
    assert (c.delta, c.d, c.alpha) == (4, 4, 1)
    limit = _deep_ratio(f, c, z, w)
    assert abs(limit) < 1e-15   # the partial at DEPTH, (3/4)^150 away from the limit 0
    est = g_z_alpha(f, c, z, w, 200)
    assert (est.value, est.n_used, est.termination) == (0.0, 3, "converged"), est
    assert abs(est.value - limit) <= est.residual + 1e-15 * max(1.0, abs(limit)), est
    assert repr(fiber_sample(f, c, "Gza", z, [w], 200).estimates[0]) == repr(est)


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


def _deep_gp(p, z):
    """G_p(z) from the 80-digit orbit of p at N = DEPTH: delta^-N (log|z_N| + log|a|/(delta-1)).

    That is the limit up to delta^-N U_N/(delta-1), U_N ~ |z_N| (_DiveClose).
    """
    delta = p.order
    with mp.workdps(80):
        terms = [(k, mp.mpc(a)) for k, a in p.terms.items()]
        zn = mp.mpc(z)
        for _ in range(DEPTH):
            zn = mp.fsum(a * zn**k for k, a in terms)
        shift = mp.log(abs(terms[0][1])) / (delta - 1)
        return float((mp.log(abs(zn)) + shift) / mp.mpf(delta) ** DEPTH)


# G_p on the seeded maps, with and without a p tail, delta = 2..4, at
# |z| from 0.1 to 0.5 and pushed out to 1.2, near the edge of the basin of 0
GP_POINTS = ([(f.p, z * s) for f, z, _ in _seeded_points(7, 20) for s in (1.0, 2.4)]
             + [(MAPS[name].p, z) for name in MAPS for z, _ in POINTS[name]])


def test_gp_within_its_residual_of_the_deep_limit():
    assert {len(p.terms) > 1 for p, _ in GP_POINTS} == {False, True}
    assert {p.order for p, _ in GP_POINTS} == {2, 3, 4}
    settled = closed = 0
    for p, z in GP_POINTS:
        limit = _deep_gp(p, z)
        if limit >= 0:   # outside the basin of 0, where a tail leads an unbounded escape
            continue
        for tol in (1e-10, 0.0):
            est = g_p(p, z, 64, tol)
            if est.termination in SETTLED:
                assert abs(est.value - limit) <= est.residual, (p.terms, z, tol, est, limit)
                # a closed form is taken within tol, or exact but for rounding at tol 0
                assert est.residual < max(tol, 1e-14), (p.terms, z, tol, est)
                settled += 1
                closed += est.n_used < 6
    assert settled >= 60 and closed >= 30


# outside the basin of 0, where the top term z^4 of p leads the escape
GP_ESCAPE = (UniPoly({3: -1.1430532302138148 + 0.8886750898665813j,
                      4: 0.3212742919913083 - 0.40586995806031745j}),
             -1.0174933136293454 - 0.5354892542629414j)


def test_gp_of_an_escape_led_by_the_top_term_is_plus_infinity():
    # delta^-n log|z_n| grows like (4/3)^n: no finite escape with a tail
    # (it read 0.6205, 'escaped_with_tail'), and G_z and G_f take no finite base
    p, z = GP_ESCAPE
    assert _deep_gp(p, z) > 1e15
    est = g_p(p, z)
    assert (est.value, est.n_used, est.termination) == (math.inf, 4, "divergent_to_plus_inf")
    f = SkewProduct(p, BiPoly({(0, 2): 1.0}))
    c = classify(f)
    assert _gz_composed(c, GreenEstimate(0.5, 3, "converged", 1e-12), est) is None
    zpart, base = _f_z_part(f, c, "Gf", z, 64, 1e-10)
    assert base == est and not zpart.finite
    assert repr(fiber_sample(f, c, "Gp", z, [0.1]).estimates[0]) == repr(est)


# d >= 2 with ratios below 1: most dive or stay bounded
CLOSING = _seeded_points(3, 80, d_min=2)


def test_closes_lie_within_their_residual_of_the_deep_limit():
    # every close lies within its residual of the limit, as a point and as a
    # lane: the trap (G_z^{alpha,+} = 0), a c^d escape's closed form for
    # G_z^{alpha,+}, and G_z^alpha at 0 or at its closed form.  A trapped
    # orbit stays bounded and the partials of a lead c^d approach its limit
    # like d^-n, so 60 steps give the limit to double precision here: the
    # same doubles as DEPTH steps.  A close at 0 (a lead c^j, j < d) is
    # checked against DEPTH steps, as its partials fall like (j/d)^n
    traps, closed_forms, zeros = set(), set(), set()
    for f, z, w in CLOSING:
        c = classify(f)
        for plus, key, fn in ((False, "Gza", g_z_alpha), (True, "Gzap", g_z_alpha_plus)):
            limit = {}
            for tol in (1e-10, 0.0):
                if ratio_orbit(f, c, z, w, 64, plus, tol).reason != "closed":
                    continue
                est = fn(f, c, z, w, 64, tol)
                depth = DEPTH if est.value == 0.0 and not plus else 60
                if depth not in limit:
                    limit[depth] = _deep_ratio(f, c, z, w, plus, depth)
                assert est.termination == "converged", (key, est)
                # the DEPTH partial of a limit 0 is off by up to (j/d)^DEPTH
                slack = 1e-15 if depth == DEPTH else 0.0
                assert abs(est.value - limit[depth]) <= est.residual + slack, (
                    f.q.terms, z, w, key, est, limit)
                assert est.residual < max(tol, 1e-14), (f.q.terms, z, w, key, est)
                assert repr(fiber_sample(f, c, key, z, [w], 64, tol).estimates[0]) == repr(est)
                (traps if plus and est.value == 0.0 else zeros if est.value == 0.0
                 else closed_forms).add((z, w, plus))
    assert len(traps) >= 20 and len(closed_forms) >= 20 and len(zeros) >= 5, (
        len(traps), len(closed_forms), len(zeros))


def test_weight_zero_gz_composes_a_closed_gp_at_tol_zero():
    # G_z = alpha G_p on example_degenerate(1, 4) (d < lambda): its weight-0
    # part closes at 0, and G_p of the monomial p = z^4 closes at once, exact
    # but for rounding, so at tol 0 G_z converges at log 0.5
    f, z, w = example_degenerate(1, 4), 0.5, 0.3 + 0.1j
    c = classify(f)
    est = g_z(f, c, z, w, 1100, 0.0)
    assert est.termination == "converged", est
    assert abs(est.value - math.log(0.5)) <= est.residual, est
    assert abs(est.value - _deep_partial(f, c, z, w)) <= est.residual, est
    assert repr(fiber_sample(f, c, "Gz", z, [w, 0.2], 1100, 0.0).estimates[0]) == repr(est)
