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

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .algebra import SkewProduct, eval_skew
from .newton import Classification
from .green import _cmul, _cpow, _log_abs, best_orbit_logs, g_p, g_z_alpha

# numpy after .green: where no bytecode is cached, compiling green.py with
# numpy already loaded raises the peak memory of `import skewdyn` by 3 MB
import numpy as np  # noqa: E402

EPS_DEG = 1e-9          # near-degenerate fiber threshold on |c_j(z)|
_BAND = 1e-6            # relative band for the measure-zero S families
_DECAY_STEPS = 5
_POLYDISK_CAP = 0.05

FAMILIES = ("U_l", "U_r1r2_l", "U_l_plus", "U_l1l2", "V_l", "S_out", "S_in")
# families whose membership at z = 0 is _axis_member's
_AXIS_FAMILIES = ("U_l", "U_l_plus", "U_r1r2_l", "U_l1l2", "V_l")
_LOG10 = math.log(10)


@dataclass(frozen=True)
class WedgeSpec:
    """One region of a family, with rational weights and real radii."""

    family: str
    weights: tuple[Fraction, ...]
    radii: tuple[float, ...]
    band: float = _BAND
    # float(weights) and log(radii), set once for the membership tests and the sampler
    float_weights: tuple[float, ...] = field(init=False, repr=False, compare=False)
    log_radii: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "float_weights", tuple(float(w) for w in ws))
        object.__setattr__(self, "log_radii", tuple(math.log(r) for r in self.radii))


def wedge_u_l(l, r: float) -> WedgeSpec:
    return WedgeSpec("U_l", (Fraction(l),), (float(r),))


def wedge_u_r1r2(l, r1: float, r2: float) -> WedgeSpec:
    return WedgeSpec("U_r1r2_l", (Fraction(l),), (float(r1), float(r2)))


def wedge_case3(l, r: float) -> WedgeSpec:
    """Case 3 wedge {|z|^l < r^l |w|, |w| < r} as the U_l1l2 family."""
    return WedgeSpec("U_l1l2", (Fraction(0), Fraction(l)), (float(r),))


def wedge_u_l1l2(l1, l2, r: float) -> WedgeSpec:
    return WedgeSpec("U_l1l2", (Fraction(l1), Fraction(l2)), (float(r),))


def _contains_logs(spec: WedgeSpec, log_z, log_w):
    """Membership from log magnitudes (strict inequalities as written).

    log_z and log_w are floats, or numpy arrays of lanes: the tests are
    joined with & so that one formula serves both.
    """
    fam, lw = spec.family, spec.float_weights
    if fam in ("U_l", "U_l_plus", "U_r1r2_l"):
        # U_l has r1 = r2 = r
        lr1, lr2 = spec.log_radii[0], spec.log_radii[-1]
        return (log_z < lr1) & (log_w < lr2 + lw[0] * log_z)
    if fam == "V_l":
        lr, lr3 = spec.log_radii
        return ((-math.inf < log_z) & (log_z < lr) & (log_w >= lr + lw[0] * log_z)
                & (log_w < lr3))
    (lr,) = spec.log_radii
    if fam == "U_l1l2":
        l1, l2 = lw
        return (log_w < lr + l1 * log_z) & ((l1 + l2) * log_z < l2 * lr + log_w)
    (l,) = lw
    if fam == "S_out":
        return (abs(log_w - lr) <= spec.band) & (l * log_z < l * lr + log_w)
    # S_in
    return (abs(l * log_z - l * lr - log_w) <= spec.band) & (log_w < lr)


def _axis_member(spec: WedgeSpec, log_w):
    """Membership at z = 0 for the families that bound |w| by a power of |z|."""
    # |w| < r |z|^l and the two-sided bounds all fail at z = 0
    # except the unweighted bidisk case l = 0 of the U families.
    if spec.family in ("U_l", "U_l_plus", "U_r1r2_l") and spec.weights[0] == 0:
        return log_w < spec.log_radii[-1]
    return False


def contains(spec: WedgeSpec, z: complex, w: complex) -> bool:
    """Strict membership; the S families test equality within their band."""
    az, aw = abs(z), abs(w)
    log_z = math.log(az) if az > 0 else -math.inf
    log_w = math.log(aw) if aw > 0 else -math.inf
    if log_z == -math.inf and spec.family in _AXIS_FAMILIES:
        return _axis_member(spec, log_w)
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
    """One quasi-random point: log-uniform |z|, uniform args and |w|.

    Radii so large that a draw leaves the double range raise ValueError.
    """
    # rng.uniform(0, b) is 0 + (b - 0) * rng.random(), the same bits as
    # b * rng.random() for b >= 0; the direct form saves a call per draw
    rand = rng.random
    span = z_decades * _LOG10
    lw, lr = spec.float_weights, spec.log_radii
    try:
        if spec.family in ("U_l", "U_l_plus", "U_r1r2_l"):
            l = lw[0]
            r2 = spec.radii[-1]
            lz = lr[0] - span * rand()
            wa = rand() * r2 * math.exp(l * lz)
        elif spec.family == "U_l1l2":
            l1, l2 = lw
            (r,), (log_r,) = spec.radii, lr
            # nonempty fibers need |z| < r^(1 + 1/l2) when l2 > 0
            top = log_r * (1.0 + 1.0 / l2) if l2 > 0 else log_r
            lz = top - span * rand()
            hi = r * math.exp(l1 * lz)
            lo = math.exp((l1 + l2) * lz - l2 * log_r)
            wa = lo + rand() * (hi - lo)
        elif spec.family == "V_l":
            l = lw[0]
            r, r3 = spec.radii
            while True:
                lz = lr[0] - span * rand()
                lo = r * math.exp(l * lz)
                if lo < r3:
                    break
            wa = lo + rand() * (r3 - lo)
        else:
            raise ValueError(f"sampling not supported for family {spec.family}")
        za = math.exp(lz)
        z = za * complex(math.cos(t := 2 * math.pi * rand()), math.sin(t))
        w = wa * complex(math.cos(t2 := 2 * math.pi * rand()), math.sin(t2))
        return z, w
    except OverflowError:
        weights = ",".join(map(str, spec.weights))
        raise ValueError(f"cannot sample {spec.family} with weights {weights} and radii "
                         f"{spec.radii}: a draw overflows the double range") from None


# samples drawn and mapped together; the falsifiability runs of `verify`
# reach their 16 exits within the first block
_BLOCK = 1024


def verify_invariance(f: SkewProduct, spec: WedgeSpec, samples: int,
                      seed: int, max_violations: int = 16) -> InvarianceReport:
    """Sample the wedge, map once, and report any exits with witnesses.

    Sample idx is drawn from its own generator, seeded (seed << 20) ^ idx,
    so a report, and the witnesses `verify --wedge` prints, are
    reproducible, and the samples of a run of N are the first N of a run
    of M > N.  Exits are reported in index order, up to max_violations.
    """
    exits = itertools.islice(_exits(f, spec, samples, seed), max(max_violations, 1))
    return InvarianceReport(spec=spec, samples=samples,
                            violations=tuple(Violation(*e) for e in exits))


def _exits(f: SkewProduct, spec: WedgeSpec, samples: int, seed: int
           ) -> Iterator[tuple[tuple[complex, complex], tuple[complex, complex]]]:
    """(point, image) of every sample that leaves the wedge, in index order.

    Samples are drawn in blocks of _BLOCK; each block is tested and mapped
    at once (_block_exits).  A draw that raises is re-raised after the
    exits of the samples before it, where the per-sample loop would raise.
    """
    rng = random.Random()
    for start in range(0, samples, _BLOCK):
        points, failure = [], None
        try:
            for idx in range(start, min(start + _BLOCK, samples)):
                rng.seed((seed << 20) ^ idx)   # the stream of random.Random((seed << 20) ^ idx)
                points.append(_sample_in_wedge(spec, rng))
        except (ArithmeticError, ValueError) as exc:
            failure = exc
        yield from _block_exits(f, spec, points)
        if failure is not None:
            raise failure


def _block_exits(f: SkewProduct, spec: WedgeSpec, points: list
                 ) -> Iterator[tuple[tuple[complex, complex], tuple[complex, complex]]]:
    """The exits among points, as contains() and eval_skew find them one by one.

    Moduli come from np.hypot and their logs from math per lane, as abs()
    and contains() take them.  A lane whose batched image is not finite is
    mapped again by eval_skew, which owns the overflow rule, and so is
    every lane of a map with a power CPython forms in polar form.
    """
    if not points:
        return
    lanes = np.fromiter(itertools.chain.from_iterable(points), complex, 2 * len(points))
    zs, ws = lanes[0::2], lanes[1::2]
    with np.errstate(all="ignore"):
        # a sample outside its wedge (the numerical edge of the closure) is skipped
        inside, raises = _lanes_contain(spec, zs.real, zs.imag, ws.real, ws.imag)
        image = _lane_images(f, zs.real, zs.imag, ws.real, ws.imag)
        if image is None:
            image = np.full((4, zs.size), math.nan)
        for k in np.flatnonzero(inside & ~np.isfinite(image).all(axis=0)).tolist():
            z1, w1 = eval_skew(f, *points[k])
            image[:, k] = z1.real, z1.imag, w1.real, w1.imag
        kept, raises_image = _lanes_contain(spec, *image)
    hits = raises | (inside & (raises_image | ~kept))
    for k in np.flatnonzero(hits).tolist():
        if raises[k] or raises_image[k]:
            raise OverflowError("absolute value too large")   # as abs() raises it
        zr, zi, wr, wi = image[:, k].tolist()
        yield points[k], (complex(zr, zi), complex(wr, wi))


def _lanes_contain(spec: WedgeSpec, zr, zi, wr, wi) -> tuple[np.ndarray, np.ndarray]:
    """contains() per lane, and the lanes where its abs() raises OverflowError."""
    raises = np.zeros(zr.size, bool)
    logs = []
    for re, im in ((zr, zi), (wr, wi)):
        over = np.isinf(np.hypot(re, im)) & np.isfinite(re) & np.isfinite(im)
        if over.any():
            raises |= over
            re, im = np.where(over, 0.0, re), np.where(over, 0.0, im)
        logs.append(_log_abs(re, im))
    log_z, log_w = logs
    inside = _contains_logs(spec, log_z, log_w)
    if spec.family in _AXIS_FAMILIES:
        inside = np.where(log_z == -math.inf, _axis_member(spec, log_w), inside)
    return inside, raises


def _lane_images(f: SkewProduct, zr, zi, wr, wi) -> Optional[np.ndarray]:
    """eval_skew per lane, in CPython's operation order, as rows (p re, im, q re, im).

    p is summed in UniPoly.__call__'s Horner order and q in BiPoly.__call__'s
    term order, complex products and powers as CPython forms them.  A lane
    where CPython's power overflows comes out non-finite.  None if a power
    exceeds 100, which CPython forms in polar form instead.
    """
    degs = list(reversed(f.p.terms))
    gaps = [hi - lo for hi, lo in zip(degs, degs[1:])] + [degs[-1]]
    if max(gaps) > 100 or any(e > 100 for key in f.q.terms for e in key):
        return None
    zsq, wsq = [(zr, zi)], [(wr, wi)]
    lead = f.p.terms[degs[0]]
    pr, pi = lead.real, lead.imag
    for gap, deg in zip(gaps, degs[1:]):
        coeff = f.p.terms[deg]
        pr, pi = _cmul(pr, pi, *_cpow(zsq, gap))
        pr, pi = pr + coeff.real, pi + coeff.imag
    pr, pi = _cmul(pr, pi, *_cpow(zsq, gaps[-1]))
    qr = qi = 0.0
    for (i, j), coeff in f.q.terms.items():
        tr, ti = _cmul(coeff.real, coeff.imag, *_cpow(zsq, i))
        tr, ti = _cmul(tr, ti, *_cpow(wsq, j))
        qr, qi = qr + tr, qi + ti
    return np.array([pr, pi, qr, qi])


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
    for n, log_z, log_w in logs:   # steps past the label's decision are never computed
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
