"""Region families, sampled invariance checks, and basin classification.

Region families (r, r1, r2, r3 positive; weights positive rationals):

    U_l       {|z| < r,  |w| < r |z|^l}           (also U^{l,+}, same shape)
    U_r1r2_l  {|z| < r1, |w| < r2 |z|^l}
    U_l1l2    {|z|^(l1+l2) < r^l2 |w|, |w| < r |z|^l1}
    V_l       {0 < |z| < r, |w| >= r |z|^l, |w| < r3}
    S_out     {|z|^l < r^l |w|, |w| = r}           (equality within a band)
    S_in      {|z|^l = r^l |w|, |w| < r}           (equality within a band)

The Case 3 wedge {|z|^l < r^l |w|, |w| < r} is U_l1l2 with weights (0, l).

Basin labels are budgeted numerics, not certificates: a point is "in A_0"
once its orbit enters a small polydisk and decays for five consecutive
steps, and "in A_f^l" once the orbit enters the target wedge.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import SkewProduct, eval_skew
from .newton import Classification
from .green import best_orbit_logs, g_p, g_z_alpha

EPS_DEG = 1e-9          # near-degenerate fiber threshold on |c_j(z)|
_BAND = 1e-6            # relative band for the measure-zero S families
_DECAY_STEPS = 5
_POLYDISK_CAP = 0.05

FAMILIES = ("U_l", "U_r1r2_l", "U_l_plus", "U_l1l2", "V_l", "S_out", "S_in")


@dataclass(frozen=True)
class WedgeSpec:
    """One region of a family, with rational weights and real radii."""

    family: str
    weights: tuple[Fraction, ...]
    radii: tuple[float, ...]
    band: float = _BAND

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if any(r <= 0 for r in self.radii):
            raise ValueError("radii must be positive")
        n_weights = {"U_l": 1, "U_r1r2_l": 1, "U_l_plus": 1, "U_l1l2": 2,
                     "V_l": 1, "S_out": 1, "S_in": 1}[self.family]
        n_radii = {"U_l": 1, "U_r1r2_l": 2, "U_l_plus": 1, "U_l1l2": 1,
                   "V_l": 2, "S_out": 1, "S_in": 1}[self.family]
        if len(self.weights) != n_weights:
            raise ValueError(f"{self.family} needs {n_weights} weight(s)")
        if len(self.radii) != n_radii:
            raise ValueError(f"{self.family} needs {n_radii} radius value(s)")
        ws = [Fraction(w) for w in self.weights]
        if any(w < 0 for w in ws):
            raise ValueError("weights must be non-negative")
        object.__setattr__(self, "weights", tuple(ws))


def wedge_u_l(l, r: float) -> WedgeSpec:
    return WedgeSpec("U_l", (Fraction(l),), (float(r),))


def wedge_u_r1r2(l, r1: float, r2: float) -> WedgeSpec:
    return WedgeSpec("U_r1r2_l", (Fraction(l),), (float(r1), float(r2)))


def wedge_case3(l, r: float) -> WedgeSpec:
    """Case 3 wedge {|z|^l < r^l |w|, |w| < r} as the U_l1l2 family."""
    return WedgeSpec("U_l1l2", (Fraction(0), Fraction(l)), (float(r),))


def wedge_u_l1l2(l1, l2, r: float) -> WedgeSpec:
    return WedgeSpec("U_l1l2", (Fraction(l1), Fraction(l2)), (float(r),))


def _contains_logs(spec: WedgeSpec, log_z: float, log_w: float) -> bool:
    """Membership from log magnitudes (strict inequalities as written)."""
    lw = [float(x) for x in spec.weights]
    if spec.family in ("U_l", "U_l_plus"):
        (l,), (r,) = lw, spec.radii
        lr = math.log(r)
        return log_z < lr and log_w < lr + l * log_z
    if spec.family == "U_r1r2_l":
        (l,) = lw
        r1, r2 = spec.radii
        return log_z < math.log(r1) and log_w < math.log(r2) + l * log_z
    if spec.family == "U_l1l2":
        l1, l2 = lw
        (r,) = spec.radii
        lr = math.log(r)
        upper = log_w < lr + l1 * log_z
        lower = (l1 + l2) * log_z < l2 * lr + log_w
        return upper and lower
    if spec.family == "V_l":
        (l,) = lw
        r, r3 = spec.radii
        lr = math.log(r)
        return (-math.inf < log_z < lr and log_w >= lr + l * log_z
                and log_w < math.log(r3))
    if spec.family == "S_out":
        (l,) = lw
        (r,) = spec.radii
        lr = math.log(r)
        on_sphere = abs(log_w - lr) <= spec.band
        return on_sphere and l * log_z < l * lr + log_w
    # S_in
    (l,) = lw
    (r,) = spec.radii
    lr = math.log(r)
    on_cone = abs(l * log_z - l * lr - log_w) <= spec.band
    return on_cone and log_w < lr


def contains(spec: WedgeSpec, z: complex, w: complex) -> bool:
    """Strict membership; the S families test equality within their band."""
    az, aw = abs(z), abs(w)
    log_z = math.log(az) if az > 0 else -math.inf
    log_w = math.log(aw) if aw > 0 else -math.inf
    if log_z == -math.inf and spec.family in ("U_l", "U_l_plus", "U_r1r2_l",
                                              "U_l1l2", "V_l"):
        # |w| < r |z|^l and the two-sided bounds all fail at z = 0
        # except the unweighted bidisk case l = 0 of the U families.
        if spec.family in ("U_l", "U_l_plus", "U_r1r2_l") and spec.weights[0] == 0:
            return log_w < math.log(spec.radii[-1])
        return False
    return _contains_logs(spec, log_z, log_w)


@dataclass(frozen=True)
class Violation:
    point: tuple[complex, complex]
    image: tuple[complex, complex]


@dataclass(frozen=True)
class InvarianceReport:
    spec: WedgeSpec
    samples: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _sample_in_wedge(spec: WedgeSpec, rng: random.Random,
                     z_decades: float = 8.0) -> tuple[complex, complex]:
    """One quasi-random point: log-uniform |z|, uniform args and |w|."""
    lw = [float(x) for x in spec.weights]
    if spec.family in ("U_l", "U_l_plus", "U_r1r2_l"):
        l = lw[0]
        if spec.family == "U_r1r2_l":
            r1, r2 = spec.radii
        else:
            r1 = r2 = spec.radii[0]
        lz = math.log(r1) - rng.uniform(0.0, z_decades * math.log(10))
        wa = rng.uniform(0.0, 1.0) * r2 * math.exp(l * lz)
    elif spec.family == "U_l1l2":
        l1, l2 = lw
        (r,) = spec.radii
        # nonempty fibers need |z| < r^(1 + 1/l2) when l2 > 0
        top = math.log(r) * (1.0 + 1.0 / l2) if l2 > 0 else math.log(r)
        lz = top - rng.uniform(0.0, z_decades * math.log(10))
        hi = r * math.exp(l1 * lz)
        lo = math.exp((l1 + l2) * lz - l2 * math.log(r))
        wa = lo + rng.uniform(0.0, 1.0) * (hi - lo)
    elif spec.family == "V_l":
        l = lw[0]
        r, r3 = spec.radii
        while True:
            lz = math.log(r) - rng.uniform(0.0, z_decades * math.log(10))
            lo = r * math.exp(l * lz)
            if lo < r3:
                break
        wa = lo + rng.uniform(0.0, 1.0) * (r3 - lo)
    else:
        raise ValueError(f"sampling not supported for family {spec.family}")
    za = math.exp(lz)
    z = za * complex(math.cos(t := rng.uniform(0, 2 * math.pi)), math.sin(t))
    w = wa * complex(math.cos(t2 := rng.uniform(0, 2 * math.pi)), math.sin(t2))
    return z, w


def verify_invariance(f: SkewProduct, spec: WedgeSpec, samples: int,
                      seed: int, max_violations: int = 16) -> InvarianceReport:
    """Sample the wedge, map once, and report any exits with witnesses.

    Sampling is deterministic per index (seed + index), so the work can be
    partitioned across threads without changing the report.
    """
    violations = []
    for idx in range(samples):
        rng = random.Random((seed << 20) ^ idx)
        z, w = _sample_in_wedge(spec, rng)
        if not contains(spec, z, w):  # numerical edge of the closure
            continue
        z1, w1 = eval_skew(f, z, w)
        if not contains(spec, z1, w1):
            violations.append(Violation((z, w), (z1, w1)))
            if len(violations) >= max_violations:
                break
    return InvarianceReport(spec=spec, samples=samples,
                            violations=tuple(violations))


# ---------------------------------------------------------------------------
# basin classification
# ---------------------------------------------------------------------------

LABELS = ("in_A0_and_Afl", "in_A0_not_yet_Afl", "escapes_or_outside",
          "on_Ez", "near_Edeg")


@dataclass(frozen=True)
class BasinLabel:
    label: str
    entry_step: Optional[int] = None
    undecided: bool = False


def _fiber_degenerate(f: SkewProduct, z: complex) -> bool:
    return all(
        abs(f.q.fiber_coefficient(j, z)) < EPS_DEG
        for j in f.q.w_degrees()
        if j >= 1
    )


def classify_point(f: SkewProduct, c: Classification, spec: WedgeSpec,
                   z: complex, w: complex, budget: int = 200) -> BasinLabel:
    """Budgeted orbit label: wedge entry, basin decay, escape, or special set.

    Labels only refine as the budget grows; a budget stop without decision
    returns in_A0_not_yet_Afl with the undecided marker.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if z == 0:
        return BasinLabel("on_Ez")
    if _fiber_degenerate(f, z):
        return BasinLabel("near_Edeg")
    rho0 = min(min(spec.radii), _POLYDISK_CAP)
    log_rho0 = math.log(rho0)
    logs = best_orbit_logs(f, c, z, w, budget)
    decay_run = 0
    in_basin = False
    prev = None
    for n, log_z, log_w in logs.steps:
        if log_z == -math.inf:
            return BasinLabel("on_Ez", entry_step=n)
        if _contains_logs(spec, log_z, log_w):
            return BasinLabel("in_A0_and_Afl", entry_step=n)
        if prev is not None:
            prev_z, prev_w = prev
            inside = log_z < log_rho0 and log_w < log_rho0
            decaying = (log_z <= prev_z and log_w <= prev_w
                        and max(log_z, log_w) < max(prev_z, prev_w))
            decay_run = decay_run + 1 if (inside and decaying) else 0
            if decay_run >= _DECAY_STEPS:
                in_basin = True
        prev = (log_z, log_w)
    if logs.reason == "escaped":
        return BasinLabel("escapes_or_outside")
    # 'range' means the orbit fell below the float window: decaying but the
    # wedge entry was not observed; 'complete' is a plain budget stop.
    return BasinLabel("in_A0_not_yet_Afl", undecided=not in_basin)


# ---------------------------------------------------------------------------
# boundary probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeSample:
    point: tuple[complex, complex]
    label: BasinLabel
    g_value: Optional[float]


def boundary_probe(f: SkewProduct, c: Classification, spec: WedgeSpec,
                   z0: complex, direction: complex, steps: int = 12,
                   budget: int = 200, t_max: float = 4.0,
                   bisections: int = 80) -> list[ProbeSample]:
    """Walk w = t * direction in the fiber over z0 toward the basin boundary.

    Brackets the boundary between an inside witness (orbit enters the
    wedge) and an outside witness (escape), bisects, then reports
    G_z^alpha along a geometric approach from the inside.  Raises when no
    boundary is bracketed within the fiber window (e.g. the whole fiber
    attracts).
    """
    base = g_p(f.p, z0, 96)
    if not (base.finite and base.value < 0):
        raise ValueError("z0 must lie in A_p - E_p (p-orbit must decay)")
    direction = complex(direction) / abs(complex(direction))

    def inside(t: float) -> bool:
        # inside = the orbit verifiably enters the target wedge; anything
        # else (escape, basin without entry, budget) is an outside witness,
        # so the bracketed boundary is the fiber slice of the attracting set
        lbl = classify_point(f, c, spec, z0, t * direction, budget)
        return lbl.label == "in_A0_and_Afl"

    ladder = [t_max / 1.5**k for k in range(48)]
    labels = [inside(t) for t in ladder]
    if not any(labels):
        raise ValueError("no inside witness found along the ray")
    flip = next((k for k in range(len(ladder) - 1)
                 if labels[k] != labels[k + 1]), None)
    if flip is None:
        raise ValueError("no boundary bracketed within the fiber window")
    hi, lo = ladder[flip], ladder[flip + 1]          # hi > lo
    hi_inside = labels[flip]
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if inside(mid) == hi_inside:
            hi = mid
        else:
            lo = mid
    t_boundary = 0.5 * (lo + hi)
    t_in = ladder[flip] if hi_inside else ladder[flip + 1]
    out: list[ProbeSample] = []
    for k in range(steps):
        t = t_in + (t_boundary - t_in) * (1 - 2.0 ** -(k + 1))
        w = t * direction
        lbl = classify_point(f, c, spec, z0, w, budget)
        try:
            est = g_z_alpha(f, c, z0, w, 96)
            g_val = est.value if est.finite else None
        except ValueError:
            g_val = None
        out.append(ProbeSample((z0, w), lbl, g_val))
    return out
