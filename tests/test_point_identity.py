"""Point queries give the same results byte for byte: one sha256 of repr per kind.

The corpus is seeded: the random maps of Cases 1-4 (with and without a
p tail), the two-dominant-term map ALT_MAP, a d = 1 map and
example_degenerate(1, 4), each at a few points, at n_max 1, 9 and 64
with tol 1e-10.  A few points run at n_max 1100 and tol 0, so that their
partials divide by base^n past the point where float(base^n) overflows.
Each estimator key of ESTIMATORS, classify_point and bottcher hashes the
reprs of its results (a refusal as its ValueError) in corpus order.  A
change that is meant to keep every number must leave every hash as it
is; a hash that moves names its kind.
"""

import cmath
import functools
import hashlib
import math
import random

import pytest

from conftest import random_maps
from skewdyn import BiPoly, SkewProduct, UniPoly, bottcher, classify, classify_point, wedge_u_l
from skewdyn.green import ESTIMATORS
from skewdyn.oracles import example_degenerate
from test_deep_limits import _deep_partial
from test_lazy_orbits import ALT_MAP, ALT_POINT, ZERO_POINT

# d = 1 (the vertex (1, 1) leads), alpha = 1, with a p tail
D1_MAP = SkewProduct(UniPoly({2: 0.9 + 0.1j, 3: 0.3}),
                     BiPoly({(1, 1): 0.8 - 0.4j, (0, 3): 0.5j, (2, 0): 0.7}))
DEGENERATE = example_degenerate(1, 4)
DEGENERATE_POINTS = [(0.5, 0.1 + 0.1j), (0.5, 1.2 - 0.3j), (0.5, 0.3 + 0.1j)]
N_MAXES = (1, 9, 64)
DEEP = 1100   # 2^1100 and 4^550 are past the double range

PINS = {
    "Gp": "7b23ba06b0a08f108f21ba467e843bcc43d4258dbe3b558577099001802c87cb",
    "Gza": "cd7f802e26dcc638eca7a4a824bdbdb6bd16299dc4d05f6a22b3feee6f776d4e",
    "Gzi": "6e5ca90a1bc837f0666212fc3078d7850755ac904d5a9e51b45344591871e982",
    "Gzap": "38f59169aba827f1ead6ac4c8f2138e9a76f8df135dca8245223dc4b7b181831",
    "Gz": "3674f3e11b88d552b57531a251444155adf227c83f9c691bf829e592387f1212",
    "Gf": "9e0ed5dff3b006063e60020c8c84e1d87a0dc1bf02e6acbdb875479346882a50",
    "Gfa": "46001f47761c68d10c2c3aae788ab5ec0f62c3a79a0b7b674242cfabdd32c80a",
    "classify_point": "50fdb357d2e51ad3276e42d6fc74470438fddc762ef133922d96ee6b6d5ec59d",
    "bottcher": "e405d0585aeddcfcadbdb1f2f97638a3559f94b3a97373c148b762459e615fca",
}


def _points(rng, count):
    return [(cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(0, 2 * math.pi)),
             cmath.rect(rng.uniform(0.01, 1.2), rng.uniform(0, 2 * math.pi)))
            for _ in range(count)]


def _corpus():
    """[(map, points)] of the n_max sweep, and [(map, point)] of the deep runs."""
    rng = random.Random(17)
    maps = random_maps(23, 3)
    tails = {len(f.p.terms) > 1 for f in maps}
    assert tails == {False, True}
    cases = [(ALT_MAP, [ALT_POINT, ZERO_POINT, (0.4 + 0.1j, 0.3 - 0.2j)]),
             (D1_MAP, _points(rng, 3)),
             (DEGENERATE, DEGENERATE_POINTS)]
    cases += [(f, _points(rng, 2)) for f in maps]
    deep = [(DEGENERATE, pt) for pt in DEGENERATE_POINTS]
    deep += [(ALT_MAP, ALT_POINT), (D1_MAP, cases[1][1][0])]
    deep += [(f, cases[3 + k][1][0]) for k, f in enumerate(maps[::3])]
    return cases, deep


def _record(out, key, thunk):
    try:
        out[key].append(repr(thunk()))
    except ValueError as exc:
        out[key].append(f"ValueError: {exc}")


def _queries(out, f, z, w, n_max, tol):
    c = classify(f)
    for key, fn in ESTIMATORS.items():
        _record(out, key, lambda: fn(f, c, z, w, n_max, tol))
    _record(out, "classify_point",
            lambda: classify_point(f, c, wedge_u_l(1, 0.05), z, w, n_max))
    _record(out, "bottcher", lambda: bottcher(f, c, z, w, n_max=min(n_max, 32), tol=1e-13))


@functools.lru_cache(maxsize=None)
def _hashes():
    out = {key: [] for key in PINS}
    cases, deep = _corpus()
    for f, points in cases:
        for z, w in points:
            for n_max in N_MAXES:
                _queries(out, f, z, w, n_max, 1e-10)
    for f, (z, w) in deep:
        _queries(out, f, z, w, DEEP, 0.0)
    return {key: hashlib.sha256("\n".join(reprs).encode()).hexdigest()
            for key, reprs in out.items()}


@pytest.mark.parametrize("key", list(PINS))
def test_point_query_results_are_pinned(key):
    assert _hashes()[key] == PINS[key], key


def test_deep_gz_entries_composed_past_a_close_lie_at_their_limit():
    # at these two deep points the weight-0 part of G_z closes at its limit
    # 0, so G_z composes alpha G_p there, where the direct orbit's partial
    # stopped at step 4 (-0.766 and -0.700); the pinned value is the limit
    c = classify(DEGENERATE)
    for z, w in (DEGENERATE_POINTS[0], DEGENERATE_POINTS[2]):
        est = ESTIMATORS["Gz"](DEGENERATE, c, z, w, DEEP, 0.0)
        limit = _deep_partial(DEGENERATE, c, z, w)
        assert abs(est.value - limit) <= est.residual + 1e-15 * max(1.0, abs(limit)), (
            z, w, est, limit)
