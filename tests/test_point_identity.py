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
from test_lazy_orbits import ALT_MAP, ALT_POINT, ZERO_POINT

# d = 1 (the vertex (1, 1) leads), alpha = 1, with a p tail
D1_MAP = SkewProduct(UniPoly({2: 0.9 + 0.1j, 3: 0.3}),
                     BiPoly({(1, 1): 0.8 - 0.4j, (0, 3): 0.5j, (2, 0): 0.7}))
DEGENERATE = example_degenerate(1, 4)
DEGENERATE_POINTS = [(0.5, 0.1 + 0.1j), (0.5, 1.2 - 0.3j), (0.5, 0.3 + 0.1j)]
N_MAXES = (1, 9, 64)
DEEP = 1100   # 2^1100 and 4^550 are past the double range

PINS = {
    "Gp": "ff81682a2610487ffd60065eac65d598a26434e138692136aebcea444f5c6b8e",
    "Gza": "2b8176e2004ea171f171ea213a38464b1e58f5143491a0254822050988031452",
    "Gzi": "8008b26b7a35c8e046ce30490811e9ed048d8f7d15730b10c66284d1c3acf7cd",
    "Gzap": "260df1ca16d9fb261b54285d0f8eaa7c297820fe092aa9dd7afc54c5c23d32b2",
    "Gz": "01e4aeba9ba91c5d1b44c6afcdd3e3bab661e89dc6a1706fea2da72946802f38",
    "Gf": "9f48d4850c12bd4c395e2805afc9b1861dd8887718782fa24dc3a1362b3bc262",
    "Gfa": "754524e5afaad0b94f3eafb5b4fcd84471fa81587d9033a062c7b14f910393ab",
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
