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

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

from ._lazy import np
from .algebra import SkewProduct, eval_skew
from .newton import Classification
from .green import _cmul, _cpow, _log_abs, _math_map, best_orbit_logs, g_p, g_z_alpha

EPS_DEG = 1e-9          # near-degenerate fiber threshold on |c_j(z)|
_BAND = 1e-6            # relative band for the measure-zero S families
_DECAY_STEPS = 5
_POLYDISK_CAP = 0.05

FAMILIES = ("U_l", "U_r1r2_l", "U_l_plus", "U_l1l2", "V_l", "S_out", "S_in")
# families whose membership at z = 0 is _axis_member's
_AXIS_FAMILIES = ("U_l", "U_l_plus", "U_r1r2_l", "U_l1l2", "V_l")
_LOG10 = math.log(10)
_TAU = 2 * math.pi
_Z_DECADES = 8.0        # the sampler draws |z| log-uniformly over this many decades


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


def _membership(spec: WedgeSpec) -> Callable:
    """The test (log_z, log_w) -> membership of spec, strict inequalities as written.

    The family is picked once, here.  log_z and log_w are floats, or
    numpy arrays of lanes: the tests are joined with & so that one
    formula serves both.
    """
    fam, lw = spec.family, spec.float_weights
    if fam in ("U_l", "U_l_plus", "U_r1r2_l"):
        # U_l has r1 = r2 = r
        lr1, lr2, (l,) = spec.log_radii[0], spec.log_radii[-1], lw
        return lambda log_z, log_w: (log_z < lr1) & (log_w < lr2 + l * log_z)
    if fam == "V_l":
        (lr, lr3), (l,) = spec.log_radii, lw
        return lambda log_z, log_w: ((-math.inf < log_z) & (log_z < lr)
                                     & (log_w >= lr + l * log_z) & (log_w < lr3))
    (lr,) = spec.log_radii
    if fam == "U_l1l2":
        l1, l2 = lw
        return lambda log_z, log_w: ((log_w < lr + l1 * log_z)
                                     & ((l1 + l2) * log_z < l2 * lr + log_w))
    (l,), band = lw, spec.band
    if fam == "S_out":
        return lambda log_z, log_w: (abs(log_w - lr) <= band) & (l * log_z < l * lr + log_w)
    # S_in
    return lambda log_z, log_w: (abs(l * log_z - l * lr - log_w) <= band) & (log_w < lr)


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
    return _membership(spec)(log_z, log_w)


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


def _sample_lanes(spec: WedgeSpec, u: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, Optional[ValueError]]:
    """Sample lanes from an (n, 4) block of uniforms: log-uniform |z|, uniform args and |w|.

    Row k gives lane k: u[k, 0] places log|z| in its interval, u[k, 1]
    places |w| between its bounds over that |z|, and u[k, 2], u[k, 3] give
    the arguments of z and w.  V_l draws log|z| uniformly from the part of
    its interval where r |z|^l < r3.  Returns the z and w lanes, cut before the first draw
    that leaves the double range, and the ValueError that draw raises
    (None if every draw is finite).  A wedge with no admissible |z|
    raises ValueError at once.
    """
    fam, lw, lr = spec.family, spec.float_weights, spec.log_radii
    span = _Z_DECADES * _LOG10
    # log|z| = top - width * u: the interval (top - width, top]
    if fam in ("U_l", "U_l_plus", "U_r1r2_l"):
        top, width = lr[0], span
    elif fam == "U_l1l2":
        l1, l2 = lw
        # nonempty fibers need |z| < r^(1 + 1/l2) when l2 > 0
        top, width = (lr[0] * (1.0 + 1.0 / l2) if l2 > 0 else lr[0]), span
    elif fam == "V_l":
        l, (log_r, log_r3) = lw[0], lr
        # r |z|^l < r3 is l log|z| < log r3 - log r
        cap = (log_r3 - log_r) / l if l > 0 else (math.inf if log_r < log_r3 else -math.inf)
        top = min(log_r, cap)
        width = top - (log_r - span)
        if not width > 0:
            raise _sampling_error(spec, f"no |z| in (1e-{_Z_DECADES:g} r, r) has r |z|^l < r3")
    else:
        raise ValueError(f"sampling not supported for family {fam}")
    with np.errstate(over="ignore", invalid="ignore"):
        lz = top - width * u[:, 0]
        if fam == "U_l1l2":
            hi = spec.radii[0] * _exp(l1 * lz)
            lo = _exp((l1 + l2) * lz - l2 * lr[0])
            wa = lo + u[:, 1] * (hi - lo)
        elif fam == "V_l":
            lo = spec.radii[0] * _exp(l * lz)
            wa = lo + u[:, 1] * (spec.radii[1] - lo)
        else:
            wa = u[:, 1] * spec.radii[-1] * _exp(lw[0] * lz)
        # moduli and arguments to points through cmath per lane
        zs = np.fromiter(map(cmath.rect, _exp(lz).tolist(), (_TAU * u[:, 2]).tolist()),
                         complex, lz.size)
        ws = np.fromiter(map(cmath.rect, wa.tolist(), (_TAU * u[:, 3]).tolist()), complex, lz.size)
    finite = np.isfinite(zs) & np.isfinite(ws)
    if finite.all():
        return zs, ws, None
    cut = int(np.argmin(finite))
    return zs[:cut], ws[:cut], _sampling_error(spec, "a draw overflows the double range")


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp per lane; inf at the first lane where it overflows and at every later one."""
    try:
        return _math_map(math.exp, x)
    except OverflowError:
        pass
    out = np.full(x.size, math.inf)
    for k, v in enumerate(x.tolist()):
        try:
            out[k] = math.exp(v)
        except OverflowError:
            break
    return out


def _sampling_error(spec: WedgeSpec, why: str) -> ValueError:
    weights = ",".join(map(str, spec.weights))
    return ValueError(f"cannot sample {spec.family} with weights {weights} and radii "
                      f"{spec.radii}: {why}")


# samples drawn and mapped together; the falsifiability runs of `verify`
# reach their 16 exits within the first block
_BLOCK = 1024


def verify_invariance(f: SkewProduct, spec: WedgeSpec, samples: int,
                      seed: int, max_violations: int = 16) -> InvarianceReport:
    """Sample the wedge, map once, and report any exits with witnesses.

    Every sample of a call comes from one random.Random stream, seeded
    once from seed: sample idx takes uniforms 4 idx ... 4 idx + 3 in
    index order (_sample_lanes).  So a report, and the witnesses
    `verify --wedge` prints, are reproducible, distinct seeds (negative
    ones included) give distinct streams, and the samples of a run of N
    are the first N of a run of M > N.  Exits are reported in index
    order, up to max_violations; a draw that overflows raises ValueError
    after the exits of the samples before it.
    """
    exits = itertools.islice(_exits(f, spec, samples, seed), max(max_violations, 1))
    return InvarianceReport(spec=spec, samples=samples,
                            violations=tuple(Violation(*e) for e in exits))


def _stream(seed: int) -> random.Random:
    """The sampling stream of seed; random.Random seeds from |seed|, so the sign is folded in."""
    return random.Random(2 * seed if seed >= 0 else -2 * seed - 1)


def _exits(f: SkewProduct, spec: WedgeSpec, samples: int, seed: int
           ) -> Iterator[tuple[tuple[complex, complex], tuple[complex, complex]]]:
    """(point, image) of every sample that leaves the wedge, in index order.

    Samples are drawn in blocks of _BLOCK; each block is tested and mapped
    at once (_block_exits).  A draw that overflows is raised after the
    exits of the samples before it.
    """
    rng = _stream(seed)
    for start in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - start)
        u = np.fromiter(iter(rng.random, None), float, 4 * n)   # the stream's next 4 n uniforms
        zs, ws, failure = _sample_lanes(spec, u.reshape(n, 4))
        yield from _block_exits(f, spec, zs, ws)
        if failure is not None:
            raise failure


def _block_exits(f: SkewProduct, spec: WedgeSpec, zs: np.ndarray, ws: np.ndarray
                 ) -> Iterator[tuple[tuple[complex, complex], tuple[complex, complex]]]:
    """The exits among the lanes, as contains() and eval_skew find them one by one.

    Moduli come from np.hypot and their logs from math per lane, as abs()
    and contains() take them.  A lane whose batched image is not finite is
    mapped again by eval_skew, which owns the overflow rule, and so is
    every lane of a map with a power CPython forms in polar form.
    """
    if not zs.size:
        return
    zr, zi, wr, wi = zs.real, zs.imag, ws.real, ws.imag
    with np.errstate(all="ignore"):
        # a sample outside its wedge (the numerical edge of the closure) is skipped
        inside, raises = _lanes_contain(spec, zr, zi, wr, wi)
        image = _lane_images(f, zr, zi, wr, wi)
        if image is None:
            image = np.full((4, zr.size), math.nan)
        for k in np.flatnonzero(inside & ~np.isfinite(image).all(axis=0)).tolist():
            z1, w1 = eval_skew(f, complex(zs[k]), complex(ws[k]))
            image[:, k] = z1.real, z1.imag, w1.real, w1.imag
        kept, raises_image = _lanes_contain(spec, *image)
    hits = raises | (inside & (raises_image | ~kept))
    for k in np.flatnonzero(hits).tolist():
        if raises[k] or raises_image[k]:
            raise OverflowError("absolute value too large")   # as abs() raises it
        zr1, zi1, wr1, wi1 = image[:, k].tolist()
        yield (complex(zs[k]), complex(ws[k])), (complex(zr1, zi1), complex(wr1, wi1))


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
    inside = _membership(spec)(log_z, log_w)
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
    """Every c_j(z), j >= 1, below EPS_DEG in modulus; one whose modulus overflows is not."""
    try:
        return all(abs(f.q.fiber_coefficient(j, z)) < EPS_DEG for j in f.q.w_degrees() if j >= 1)
    except OverflowError:   # that c_j(z) lies far from 0
        return False


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
    member = _membership(spec)
    decay_run = 0
    in_basin = False
    prev = None
    for n, log_z, log_w in logs:   # steps past the label's decision are never computed
        if log_z == -math.inf:
            return BasinLabel("on_Ez", entry_step=n)
        if member(log_z, log_w):
            return BasinLabel("in_A0_and_Afl", entry_step=n)
        if prev is not None and not in_basin:   # in the basin for good once decided
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
