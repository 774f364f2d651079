"""The per-point orbit drivers compute only the steps their consumers read.

orbit_logs, best_orbit_logs and ratio_orbit hand out orbits whose steps
are computed as they are pulled.  A point query must stop computing at
the step it exits on, and its result must be the one a fully computed
orbit gives.
"""

import cmath
import math
import random

import pytest

from skewdyn import (
    BiPoly,
    SkewProduct,
    UniPoly,
    classify,
    classify_point,
    g_p,
    g_z_alpha,
    g_z_alpha_plus,
    g_z_infty,
    monomial_skew,
    wedge_u_l,
)
from skewdyn import green, regions
from skewdyn.green import ESTIMATORS
from skewdyn.oracles import example_degenerate

# (z^2, w^2 - z^3): two dominant terms; at this point the primary orbit
# ends as 'range' and the alternate vertex (3, 0) carries the orbit on
ALT_MAP = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
ALT_POINT = (0.5, -0.3125 - 0.020833333333333315j)
# the same map: w_8 = 0 exactly at this pixel, and (3, 0) revives w
ZERO_POINT = (0.5042848627857037 + 0.002342753301247936j,
              0.010872111935944177 - 0.002017993161311824j)


@pytest.fixture
def computed(monkeypatch):
    """Steps the driver generators compute, counted as they yield them."""
    count = [0]

    def counting(driver):
        def run(*args):
            for step in driver(*args):
                count[0] += 1
                yield step
        return run

    monkeypatch.setattr(green, "_log_steps", counting(green._log_steps))
    monkeypatch.setattr(green, "_ratio_steps", counting(green._ratio_steps))
    return count


N_DEEP = 10_000


@pytest.mark.parametrize("query", [
    # G_p of a p with a tail: the exact orbit settles in a few steps
    lambda: g_p(UniPoly({2: 1.0, 3: 0.5}), 0.3 + 0.1j, N_DEEP),
    # weighted-ratio path, alpha = 1; the ratio dives toward the fixed point 0
    lambda: g_z_alpha(example_degenerate(1, 4), classify(example_degenerate(1, 4)),
                      0.5, 0.1 + 0.1j, N_DEEP),
    lambda: g_z_alpha_plus(example_degenerate(1, 4), classify(example_degenerate(1, 4)),
                           0.5, 1.2 - 0.3j, N_DEEP),
    # alpha = 3/2: the direct orbit
    lambda: g_z_alpha(ALT_MAP, classify(ALT_MAP), 0.4 + 0.1j, 0.3 - 0.2j, N_DEEP),
    lambda: g_z_infty(monomial_skew(2, 1, 2), classify(monomial_skew(2, 1, 2)),
                      0.3 + 0.2j, 0.1 - 0.05j, N_DEEP),
], ids=["g_p", "g_z_alpha", "g_z_alpha_plus", "g_z_alpha_direct", "g_z_infty"])
def test_estimator_computes_no_step_past_its_exit(computed, query):
    est = query()
    assert est.termination in ("converged", "escaped_with_tail")
    assert est.n_used < 100
    # steps 0..n_used, and not one more
    assert computed[0] == est.n_used + 1


def test_classify_point_computes_no_step_past_its_entry(computed):
    f = monomial_skew(2, 0, 2)
    c = classify(f)
    label = classify_point(f, c, wedge_u_l(0, 0.05), 0.3 + 0.1j, 0.2 - 0.1j, N_DEEP)
    assert label.label == "in_A0_and_Afl"
    assert 0 < label.entry_step < 10
    assert computed[0] == label.entry_step + 1


def _eager_best_orbit_logs(f, c, z, w, n_max):
    """best_orbit_logs with every orbit computed in full before it is read."""
    best = green.orbit_logs(f, c.primary.vertex, z, w, n_max)
    if best.reason == "range":
        for term in c.terms[1:]:
            other = green.orbit_logs(f, term.vertex, z, w, n_max)
            if len(other.steps) > len(best.steps):
                best = other
    return best


def _random_maps(seed, per_case):
    """Seeded random maps, per_case of each of Cases 1-4, half with a p tail."""
    rng = random.Random(seed)
    grid = [(i, j) for i in range(6) for j in range(6) if i + j >= 2 or (i, j) == (1, 0)]
    found = {case: [] for case in (1, 2, 3, 4)}
    while any(len(maps) < per_case for maps in found.values()):
        delta = rng.randint(1, 4)
        p = {delta: complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))}
        if rng.random() < 0.5:
            p[delta + rng.randint(1, 2)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        support = rng.sample(grid, rng.randint(1, 4))
        try:
            f = SkewProduct(UniPoly(p), BiPoly({
                ij: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for ij in support}))
            case = classify(f).case.value
        except ValueError:
            continue
        if len(found[case]) < per_case:
            found[case].append(f)
    return [f for maps in found.values() for f in maps]


def _outcomes(cases):
    """repr of every estimator and classify_point over the cases, refusals included."""
    out = []
    for f, points in cases:
        c = classify(f)
        spec = wedge_u_l(1, 0.05)
        for z, w in points:
            for n_max in (64, 9, 1, 0):
                for key, fn in ESTIMATORS.items():
                    try:
                        out.append(repr(fn(f, c, z, w, n_max, 1e-10)))
                    except ValueError as exc:
                        out.append(f"ValueError: {exc}")
                out.append(repr(classify_point(f, c, spec, z, w, max(n_max, 1))))
    return out


def test_lazy_orbits_match_fully_computed_orbits(monkeypatch):
    rng = random.Random(5)
    cases = [(ALT_MAP, [ALT_POINT, ZERO_POINT, (0.4 + 0.1j, 0.3 - 0.2j)])]
    for f in _random_maps(11, 3):
        cases.append((f, [(cmath.rect(rng.uniform(0.05, 0.9), rng.uniform(0, 2 * math.pi)),
                           cmath.rect(rng.uniform(0.01, 1.2), rng.uniform(0, 2 * math.pi)))
                          for _ in range(3)]))
    assert green.best_orbit_logs(ALT_MAP, classify(ALT_MAP), *ALT_POINT, 64).dominant == (3, 0)
    lazy = _outcomes(cases)

    def drained(driver):
        def run(*args):
            orbit = driver(*args)
            if orbit is not None:
                orbit._drain()
            return orbit
        return run

    monkeypatch.setattr(green, "orbit_logs", drained(green.orbit_logs))
    monkeypatch.setattr(green, "ratio_orbit", drained(green.ratio_orbit))
    monkeypatch.setattr(green, "best_orbit_logs", _eager_best_orbit_logs)
    monkeypatch.setattr(regions, "best_orbit_logs", _eager_best_orbit_logs)
    assert lazy == _outcomes(cases)
