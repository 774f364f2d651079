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
from conftest import random_maps

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
    monkeypatch.setattr(green, "_p_steps", counting(green._p_steps))
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


EXTENSION_MAP = monomial_skew(2, 1, 2)


@pytest.mark.parametrize("orbit", [
    # the primary vertex's log recursion takes over at step 7
    lambda: green.best_orbit_logs(EXTENSION_MAP, classify(EXTENSION_MAP),
                                  0.3 + 0.2j, 0.1 - 0.05j, 64),
    # the primary vertex refuses at step 10, and the alternate (3, 0) carries on
    lambda: green.best_orbit_logs(ALT_MAP, classify(ALT_MAP), *ALT_POINT, 64),
], ids=["extension", "alternate"])
@pytest.mark.parametrize("second", ["steps", "iterate"])
def test_an_orbit_read_again_after_its_first_reader_stopped(computed, orbit, second):
    eager = orbit()
    want = eager.steps
    assert len(want) == 65 and eager.switch_step is not None
    computed[0] = 0
    logs = orbit()
    reader = iter(logs)
    head = [next(reader) for _ in range(3)]   # the first reader stops early
    assert computed[0] == 3
    # a later reader catches up from the recorded steps, then runs the rest,
    # across the yield from hand-over to the log recursion
    steps = logs.steps if second == "steps" else list(logs)
    assert head == steps[:3] and steps == want == logs.steps == list(logs)
    assert (logs.reason, logs.switch_step, logs.switch_eta, logs.dominant) == (
        eager.reason, eager.switch_step, eager.switch_eta, eager.dominant)
    assert computed[0] == len(want)   # each step computed once


@pytest.mark.parametrize("second", ["log_mags", "iterate"])
def test_a_ratio_orbit_read_again_after_its_first_reader_stopped(computed, second):
    # c' = 0.5 c + z c^3 (d = 1) dives, but no close of G_z^alpha serves
    # d = 1, so it runs its whole budget
    f = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 3): 1.0, (1, 1): 0.5}))
    c = classify(f)
    want = green.ratio_orbit(f, c, 0.5, 0.3 + 0.1j, 64)._drain()
    computed[0] = 0
    ro = green.ratio_orbit(f, c, 0.5, 0.3 + 0.1j, 64)
    reader = iter(ro)
    head = [next(reader) for _ in range(3)]
    assert computed[0] == 3
    if second == "log_mags":
        assert ro.log_mags == [lc for lc, _ in want]
    else:
        assert list(ro) == want
    assert head == want[:3] and list(ro) == want and ro.reason == "complete"
    assert computed[0] == len(want) == 65


def _eager_best_orbit_logs(f, c, z, w, n_max):
    """best_orbit_logs with every orbit computed in full before it is read."""
    best = green.orbit_logs(f, c.primary.vertex, z, w, n_max)
    if best.reason == "range":
        for term in c.terms[1:]:
            other = green.orbit_logs(f, term.vertex, z, w, n_max)
            if len(other.steps) > len(best.steps):
                best = other
    return best


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
    for f in random_maps(11, 3):
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
