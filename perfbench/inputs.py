"""Seeded inputs of the four workloads.

Standard library only: the benchmark generates its inputs before the
package is imported, so the set-up timing covers the package alone.
The same (workload, seed) pair always gives the same inputs.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

N_MAX = 64          # explicit estimator budget, so default changes do not move it
TOL = 1e-10         # explicit estimator tolerance

# -- fiber renders ----------------------------------------------------------

# example_degenerate(1, 4): f = (z^4, z w^3 + z^2 w^2), Case 3 with
# integer alpha = 1, semiconjugate to (z^4, h) with h(c) = c^3 + c^2.
RATIO_MAP = ("# example_degenerate(1, 4): Case 3, integer alpha = 1\n"
             "builtin semiconjugate degenerate 1 4 ; h: 3 1 0 2 1 0\n")
# f = (z^2, w^2 - z^3): Case 3 with two dominant terms and alpha = 3/2;
# c = w / z^(3/2) obeys c' = c^2 - 1.
DIRECT_MAP = ("# f = (z^2, w^2 - z^3): Case 3, two dominant terms, alpha = 3/2\n"
              "p 2 1.0 0.0\n"
              "q 0 2 1.0 0.0\n"
              "q 3 0 -1.0 0.0\n")

FIBER_FUNCTIONS = {
    "fiber_ratio": ("Gzap", "Gza", "Gz"),
    "fiber_direct": ("Gza", "Gzi", "Gz", "Gf", "Gfa"),
}
FIBER_GRID = 24          # pixels per side
FIBER_Z = 0.5
FIBER_Z_JITTER = 0.01    # the seed moves z within this box around 0.5
CENTRE_JITTER = 0.02     # the seed moves the 1 x 1 window centre within this box


@dataclass(frozen=True)
class FiberInputs:
    map_text: str
    functions: tuple[str, ...]
    fiber_z: complex
    centre: complex
    grid: int = FIBER_GRID
    width: float = 1.0
    height: float = 1.0

    def grid_arg(self) -> str:
        return (f"{self.fiber_z.real!r},{self.fiber_z.imag!r},"
                f"{self.centre.real!r},{self.centre.imag!r},"
                f"{self.width!r},{self.height!r},{self.grid}")


def fiber_inputs(workload: str, seed: int) -> FiberInputs:
    rng = random.Random(f"{workload}:{seed}")

    def jitter(size: float) -> complex:
        return complex(rng.uniform(-size, size), rng.uniform(-size, size))

    return FiberInputs(
        map_text=RATIO_MAP if workload == "fiber_ratio" else DIRECT_MAP,
        functions=FIBER_FUNCTIONS[workload],
        fiber_z=FIBER_Z + jitter(FIBER_Z_JITTER),
        centre=jitter(CENTRE_JITTER),
    )


# -- point queries ----------------------------------------------------------

POINT_CALLS = 2520      # 24 of every (stratum, kind) pair
BOTTCHER_N_MAX = 28
BOTTCHER_TOL = 1e-13
BASIN_BUDGET = 200
WEDGE_R = 0.05


@dataclass(frozen=True)
class Template:
    """Support of a map with a known case; coefficients are drawn per call."""

    name: str
    delta: int
    q_support: tuple[tuple[int, int], ...]
    wedge_l: float                 # weight of the U_l region for classify_point
    bottcher_points: str | None    # sampler name for bottcher, None = no call


# Cases follow the Newton-polygon classification of each support; the
# bottcher samplers are the wedge regimes the convergence theorems cover.
CASE_TEMPLATES = {
    1: (Template("c1_gamma1", 2, ((1, 2), (2, 2), (1, 3)), 0.0, None),
        Template("c1_gamma0", 3, ((0, 2), (1, 2)), 0.0, "polydisk"),
        Template("c1_alpha0", 2, ((0, 2), (0, 3), (1, 2)), 0.0, None),
        Template("c1_d_gt", 2, ((1, 3), (2, 3)), 0.0, None)),
    2: (Template("c2_d_gt", 2, ((0, 5), (1, 3)), 0.5, "u_l_half"),
        Template("c2_delta_gt", 3, ((0, 4), (1, 2)), 0.5, "u_l_three_quarters"),
        Template("c2_d0", 2, ((0, 4), (2, 1), (3, 0)), 1.0, None)),
    3: (Template("c3_a", 3, ((1, 2), (3, 1)), 0.0, "case3"),
        Template("c3_b", 4, ((0, 2), (3, 0)), 0.0, None),
        Template("c3_c", 5, ((0, 3), (2, 1)), 0.0, None)),
    4: (Template("c4_a", 3, ((0, 5), (1, 2), (3, 1)), 1 / 3, "case4"),
        Template("c4_b", 4, ((0, 6), (1, 3), (4, 1)), 1 / 3, None)),
}
# (delta, gamma, d) monomial models with closed-form references
MONOMIAL_REGIMES = ((2, 1, 3), (2, 1, 2), (3, 1, 2), (2, 0, 3), (2, 0, 2), (3, 0, 2))
ESTIMATOR_KEYS = ("Gp", "Gza", "Gzi", "Gzap", "Gz", "Gf", "Gfa")
STRATA = (1, 2, 3, 4, "monomial")
# 21 slots, coprime with the 5 strata: each estimator twice, then about
# 15% bottcher and 20% classify_point
KIND_CYCLE = ESTIMATOR_KEYS * 2 + ("bottcher",) * 3 + ("classify_point",) * 4


@dataclass(frozen=True)
class PointCall:
    """One closed-loop query: kind is an estimator key, 'bottcher' or 'classify_point'."""

    kind: str
    stratum: str
    delta: int
    p_terms: tuple[tuple[int, complex], ...]
    q_terms: tuple[tuple[tuple[int, int], complex], ...]
    z: complex
    w: complex
    wedge_l: float = 0.0
    monomial: tuple[int, int, int] | None = None


def _coeff(rng: random.Random) -> complex:
    return cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0, 2 * math.pi))


def _scattered(rng: random.Random) -> tuple[complex, complex]:
    z = cmath.rect(rng.uniform(0.1, 0.7), rng.uniform(0, 2 * math.pi))
    w = cmath.rect(rng.uniform(0.05, 0.7), rng.uniform(0, 2 * math.pi))
    return z, w


def _u_l_point(rng: random.Random, l: float) -> tuple[complex, complex]:
    lz = math.log(WEDGE_R) - rng.uniform(0.1, 2.0)
    z = cmath.rect(math.exp(lz), rng.uniform(0, 2 * math.pi))
    w = cmath.rect(rng.uniform(0.2, 0.9) * WEDGE_R * abs(z) ** l,
                   rng.uniform(0, 2 * math.pi))
    return z, w


def _bottcher_point(rng: random.Random, sampler: str) -> tuple[complex, complex]:
    if sampler == "polydisk":
        return (cmath.rect(rng.uniform(0.2, 0.9) * WEDGE_R, rng.uniform(0, 2 * math.pi)),
                cmath.rect(rng.uniform(0.2, 0.9) * WEDGE_R, rng.uniform(0, 2 * math.pi)))
    if sampler == "u_l_half":
        return _u_l_point(rng, 0.5)
    if sampler == "u_l_three_quarters":
        return _u_l_point(rng, 0.75)
    if sampler == "case3":
        w = cmath.rect(rng.uniform(0.3, 0.9) * WEDGE_R, rng.uniform(0, 2 * math.pi))
        z = cmath.rect(rng.uniform(0.05, 0.8) * WEDGE_R * abs(w) ** 0.5,
                       rng.uniform(0, 2 * math.pi))
        return z, w
    if sampler == "case4":
        lz = math.log(WEDGE_R) * (1 + 3 / 5) - rng.uniform(0.2, 2.0)
        z = cmath.rect(math.exp(lz), rng.uniform(0, 2 * math.pi))
        hi = WEDGE_R * abs(z) ** (1 / 3)
        lo = abs(z) ** 2 / WEDGE_R ** (5 / 3)
        wa = lo + rng.uniform(0.3, 0.9) * (hi - lo)
        return z, cmath.rect(wa, rng.uniform(0, 2 * math.pi))
    raise ValueError(f"unknown sampler {sampler!r}")


def _monomial_point(rng: random.Random, delta: int, gamma: int,
                    d: int) -> tuple[complex, complex]:
    """A point inside the domain of the monomial closed-form tables."""
    while True:
        z = complex(rng.uniform(0.15, 0.8), rng.uniform(-0.4, 0.4))
        w = complex(rng.uniform(0.1, 0.8), rng.uniform(-0.4, 0.4))
        if not (0.05 <= abs(z) < 0.85 and 0.05 <= abs(w) < 0.85):
            continue
        if gamma > 0 and delta < d and abs(w) * abs(z) ** (-gamma / (delta - d)) >= 0.9:
            continue
        return z, w


def point_calls(seed: int, count: int = POINT_CALLS) -> list[PointCall]:
    """count queries over Cases 1-4 and monomial models in a fixed mix.

    The kinds cycle through KIND_CYCLE while the strata cycle through
    STRATA; the two lengths are coprime, so every (stratum, kind) pair
    recurs equally often, and templates and monomial regimes rotate per
    pair.  The seed draws only coefficients and points, which keeps the
    work of a pass close to the same from seed to seed.  Every query gets
    its own map (fresh coefficients) and its own point.  The benchmark
    swaps an estimator key for the next one that applies to the map's
    classification.
    """
    rng = random.Random(f"point_mix:{seed}")
    uses: dict[tuple, int] = {}
    calls = []
    for idx in range(count):
        stratum = STRATA[idx % len(STRATA)]
        kind = KIND_CYCLE[idx % len(KIND_CYCLE)]
        turn = uses[stratum, kind] = uses.get((stratum, kind), -1) + 1
        if stratum == "monomial":
            delta, gamma, d = MONOMIAL_REGIMES[turn % len(MONOMIAL_REGIMES)]
            if kind == "bottcher":
                z, w = _bottcher_point(rng, "polydisk")
            else:
                z, w = _monomial_point(rng, delta, gamma, d)
            calls.append(PointCall(kind, "monomial", delta, ((delta, 1.0 + 0j),),
                                   (((gamma, d), 1.0 + 0j),), z, w, 1.0,
                                   (delta, gamma, d)))
            continue
        templates = CASE_TEMPLATES[stratum]
        if kind == "bottcher":
            templates = tuple(t for t in templates if t.bottcher_points)
        tpl = templates[turn % len(templates)]
        p_terms = [(tpl.delta, _coeff(rng))]
        if turn % 2:
            p_terms.append((tpl.delta + 1, 0.5 * _coeff(rng)))
        q_terms = tuple((ij, _coeff(rng)) for ij in tpl.q_support)
        if kind == "bottcher":
            z, w = _bottcher_point(rng, tpl.bottcher_points)
        else:
            z, w = _scattered(rng)
        calls.append(PointCall(kind, f"case{stratum}", tpl.delta, tuple(p_terms),
                               q_terms, z, w, tpl.wedge_l))
    return calls
