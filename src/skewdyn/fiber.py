"""Green-type functions over a whole fiber {z} x ws, all lanes at once.

fiber_sample evaluates one estimator of skewdyn.green across a fiber;
its kernels replay the scalar drivers bit for bit on all lanes at once,
computing the z side once per step: _fiber_ratio for the weighted ratio,
and _fiber_direct (_LaneOrbits) for the direct orbit.  Both settle online
through one _LaneSettle, the lanes' twin of green._settle: each column of
steps goes in as it is computed, and a lane retires once its estimate is
final, so no step past the last settled lane is computed and none is
kept.  The kernels hand their estimates over as columns (value, n_used,
tag, residual), and G_z's composition and G_f's max run on the columns.

Every lane replays the arithmetic of its scalar driver (ratio_orbit or
orbit_logs) bit for bit.  numpy's complex multiply, abs, log and exp
differ from CPython's in the last bit, so complex products run on split
real parts in CPython's operation order (green._cmul, green._cpow),
magnitudes use np.hypot, and logs and exps go through math per lane
(green._log_abs, green._math_map).  A product by exactly 1 (a unit
coefficient or z-factor, c_powu's first 1 * c) is skipped: it moves only
the sign of a zero, which no modulus reads, or makes NaN of a part beside
an infinite one, whose lane fails as non-finite either way.

Point queries never run these kernels, so the package does not import
this module: raster.render and the verify suites import it where they
first need a fiber, and a process that only makes point queries compiles
none of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from . import green   # green.g_p read at each call, so a wrapper set on green sees it
from ._lazy import np
from .algebra import SkewProduct
from .green import (
    DEFAULT_N_MAX,
    DEFAULT_TOL,
    ESCAPE_LOG,
    ESTIMATORS,
    TERM_BUDGET,
    TERM_CONVERGED,
    TERM_DIV_NEG,
    TERM_DIV_POS,
    TERM_ESCAPED,
    TERM_HIT_EZ,
    TERM_HIT_ZERO,
    _NEGLIGIBLE_GAP,
    _SAFE,
    _SOFT_TAIL_TOL,
    _TAIL_TOL,
    _WINDOW,
    GreenEstimate,
    _abs_ratio,
    _cmul,
    _components,
    _cpow,
    _direct_close,
    _direct_tail_m,
    _f_z_part,
    _lcoeff,
    _lmag,
    _log_abs,
    _log_mag,
    _math_map,
    _over,
    _p_tail,
    _p_tail_log,
    _ratio_close,
    _ratio_route,
    _ratio_tail_m,
    _ratio_terms,
    _refusal,
    _switch_share,
    _terms_safe,
    _w_axis_invariant,
)
from .newton import Classification


@dataclass(frozen=True, eq=False)
class FiberFunctionSample:
    """Grid of estimates over one fiber {z} x rectangle, row-major order.

    columns holds them as arrays over the lanes: value, n_used, tag (an
    index into _TAGS) and residual.  estimates, one GreenEstimate per
    lane, is built where it is first read.
    """

    z: complex
    ws: tuple[complex, ...]
    columns: tuple

    @cached_property
    def estimates(self) -> tuple[GreenEstimate, ...]:
        val, used, tag, res = (col.tolist() for col in self.columns)
        return tuple(map(GreenEstimate, val, used, map(_TAGS.__getitem__, tag), res))


def fiber_sample(f: SkewProduct, c: Classification, which: str, z: complex,
                 ws: list[complex], n_max: int = DEFAULT_N_MAX,
                 tol: float = DEFAULT_TOL) -> FiberFunctionSample:
    """Evaluate one estimator across a fiber {z} x ws, in input order.

    G_p depends on z alone and is estimated once.  G_z^alpha and
    G_z^{alpha,+} with an integer weighted-ratio recursion run all lanes
    at once (_fiber_ratio).  G_z takes its lanes from _fiber_gz, and G_f
    and G_f^alpha take the max of those with the fiber's one s Z, as g_f
    and g_f_alpha do for one point.  Where the ratio does not serve
    (_ratio_route), and for G_z^infty, the direct orbits of all lanes run
    at once and settle as they run (_fiber_direct).  Where the estimator
    refuses the map (_refusal), or a power of w is past the kernels'
    reach, it runs per point.  All give identical results.
    """
    fn = ESTIMATORS[which]
    ws = tuple(ws)
    # w**j and c**j with j > 100 are CPython's polar power, which the kernels do not replay
    batch = bool(ws) and all(j <= 100 for _, j in f.q.terms)
    with np.errstate(all="ignore"):   # the kernels replay inf and nan as the scalars do
        if which == "Gp":
            cols = _columns([green.g_p(f.p, z, n_max, tol)] * len(ws) if ws else [])
        elif not batch or _refusal(c, which) is not None:   # the scalar estimator raises it
            cols = _columns([fn(f, c, z, w, n_max, tol) for w in ws])
        elif which in ("Gf", "Gfa"):
            zpart, base = _f_z_part(f, c, which, z, n_max, tol)
            if zpart.termination == TERM_HIT_EZ:
                cols = _columns([zpart] * len(ws))
            else:
                cols = _lanes_max(zpart, _fiber_gz(f, c, z, ws, n_max, tol, base))
        elif which == "Gz":
            cols = _fiber_gz(f, c, z, ws, n_max, tol, None)
        elif which != "Gzi" and _ratio_route(f, c, z) is not None:
            cols = _fiber_ratio(f, c, which == "Gzap", complex(z), ws, n_max, tol)
        else:
            cols = _fiber_direct(f, c, which, z, ws, n_max, tol)
    return FiberFunctionSample(z, ws, cols)


def _columns(ests: list[GreenEstimate]) -> tuple:
    """The columns (value, n_used, tag, residual) of a list of estimates."""
    return (np.array([e.value for e in ests], float), np.array([e.n_used for e in ests], int),
            np.array([_TAGS.index(e.termination) for e in ests], np.int8),
            np.array([e.residual for e in ests], float))


def _fiber_gz(f: SkewProduct, c: Classification, z: complex, ws: tuple[complex, ...],
              n_max: int, tol: float, base: Optional[GreenEstimate]) -> tuple:
    """g_z of every lane w of ws as columns, reusing base, the G_p estimate at z, if given.

    With d >= 1 and a weighted-ratio recursion, the lanes of _fiber_ratio
    are composed with the fiber's one G_p, as _gz_composed composes one
    point; a lane whose composition is refused (a part not finite, or
    unsettled of weight 0) takes the direct orbit, as every lane does
    otherwise.
    """
    if _ratio_route(f, c, z) is None:
        return _fiber_direct(f, c, "Gz", z, ws, n_max, tol)
    if base is None:
        base = green.g_p(f.p, z, n_max, tol)
    val, used, tag, res = _fiber_ratio(f, c, False, complex(z), ws, n_max, tol, c.d < c.lam)
    a, b = (1 if c.d == c.lam else 0), (float(c.alpha) if c.delta == c.lam else 0.0)
    refused = ~np.isfinite(val) | (not base.finite) | ((tag == _BUDGET) & (not a))
    # _gz_composed per lane: the first weighted part that did not converge gives the tag
    tag = tag.copy() if a else np.full(tag.size, _CONV, np.int8)
    res = 0.0 + res if a else np.zeros(res.size)
    if b:
        tag[tag == _CONV] = _TAGS.index(base.termination)
        res = res + abs(b) * base.residual
    cols = (a * val + b * base.value, np.maximum(used, base.n_used), tag, res)
    if (rest := np.flatnonzero(refused)).size:
        direct = _fiber_direct(f, c, "Gz", z, [ws[k] for k in rest], n_max, tol)
        for col, part in zip(cols, direct):
            col[rest] = part
    return cols


def _lanes_max(a: GreenEstimate, cols: tuple) -> tuple:
    """_max_of_parts(a, b) of every lane b of the columns cols, as columns."""
    bv, bu, bt, br = cols
    at, win = _TAGS.index(a.termination), bv > a.value
    budget = (bt == _BUDGET) | (at == _BUDGET)
    apart = ~budget & (np.abs(a.value - bv) > a.residual + br)
    return (np.where(win, bv, a.value), np.maximum(bu, a.n_used),
            np.where(budget, _BUDGET, np.where(win, bt, at)).astype(np.int8),
            np.where(apart, np.where(win, br, a.residual),
                     np.where(br > a.residual, br, a.residual)))


# ---------------------------------------------------------------------------
# fiber-batched kernels
# ---------------------------------------------------------------------------


def _lanes_terms_safe(tl: np.ndarray, top: np.ndarray, exps: Optional[tuple] = None,
                      lc: Optional[np.ndarray] = None, lz: float = 0.0, ac: float = 0.0
                      ) -> np.ndarray:
    """_terms_safe per lane: one row per term in tl, top its max, exps as arrays, lc per lane."""
    low = top - _NEGLIGIBLE_GAP
    ok = (top <= _WINDOW) & (top >= -_WINDOW)
    if tl.size and tl.min() < -_WINDOW:
        ok &= ((tl >= -_WINDOW) | (tl <= low)).all(axis=0)
    if exps is not None:
        js, its, j_top, it_top = exps
        if j_top * np.abs(lc).max() > _SAFE or it_top * abs(lz) + abs(ac) > _SAFE:
            negligible = tl <= low
            for logs in (js[:, None] * lc, (its * lz - ac)[:, None]):
                ok &= ((logs <= _WINDOW) & ((logs >= -_WINDOW) | negligible)).all(axis=0)
    return (top == -math.inf) | ok


# -- weighted-ratio kernel

_TAGS = (TERM_CONVERGED, TERM_ESCAPED, TERM_BUDGET, TERM_HIT_ZERO,
         TERM_DIV_NEG, TERM_DIV_POS, TERM_HIT_EZ)
_CONV, _ESC, _BUDGET, _ZERO, _DIV_NEG, _DIV_POS, _EZ = range(len(_TAGS))


def _exact_step(cr: np.ndarray, ci: np.ndarray, terms: list, zfacs: list):
    """sum coeff c^j zfac over the recursion's terms, as ratio_orbit adds them."""
    squares = [(cr, ci)]
    nr, ni = np.zeros(cr.size), np.zeros(cr.size)
    for (_, j, coeff, _), zf in zip(terms, zfacs):
        tr, ti = _cpow(squares, j)
        if coeff != 1:
            tr, ti = _cmul(coeff.real, coeff.imag, tr, ti)
        if zf != 1:
            tr, ti = _cmul(tr, ti, zf.real, zf.imag)
        nr += tr
        ni += ti
    return nr, ni


class _LaneSettler:
    """_Settler over lanes that receive their partials a column at a time.

    Each lane keeps _Settler's state: its last partial g (NaN before the
    first) and its step n (-1 before the first), its last increment inc
    (inf before the first) with its magnitude mag, and the run of trailing
    increments that can signal divergence.
    """

    def __init__(self, lanes: int, tol: float):
        self.tol = tol
        self.floor = max(tol, 1e-14)
        self.g = np.full(lanes, math.nan)
        self.n = np.full(lanes, -1)
        self.inc = self.mag = np.full(lanes, math.inf)
        self.run = np.zeros(lanes, int)

    def keep(self, mask: np.ndarray) -> None:
        self.g, self.n, self.inc, self.mag, self.run = (
            x[mask] for x in (self.g, self.n, self.inc, self.mag, self.run))

    def push(self, g: np.ndarray, n: int, take: Optional[np.ndarray] = None) -> np.ndarray:
        """Partials g_n in; out the mask of lanes _Settler.push decides on.

        Only the lanes take marks push (all by default); the others keep
        their state.  A lane's first partial makes no increment.
        """
        had = self.n >= 0   # the lanes whose partial makes an increment
        if take is None or take.all():
            self.n = np.full(g.size, n)
        else:
            had &= take
            g, self.n = np.where(take, g, self.g), np.where(take, n, self.n)
        prev, inc, every = self.inc, g - self.g, had.all()
        if not every:
            inc = np.where(had, inc, prev)
        mag, prev_mag = np.abs(inc), self.mag
        self.g, self.inc, self.mag = g, inc, mag
        conv = (mag < self.tol) & (prev_mag < self.tol)
        # a converged lane resets its run, as its increment is below floor
        grow = ((inc > 0) == (prev > 0)) & ~(mag < 0.9 * prev_mag)
        run = np.where(mag > self.floor, np.where(grow, self.run + 1, 1), 0)
        self.run = run if every else np.where(had, run, self.run)
        return (conv | (self.run >= 5)) if every else (conv | (self.run >= 5)) & had

    def finish(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tag, value, residual) per lane, as _Settler.finish."""
        return np.where(self.mag < self.tol, _CONV, _BUDGET), self.g, self.mag

    def final(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tag, value, residual) per lane: _Settler.push's where push decided, else finish."""
        tag, val, residual = self.finish()
        if not (div := self.run >= 5).any():
            return tag, val, residual
        up = self.inc > 0
        return (np.where(div, np.where(up, _DIV_POS, _DIV_NEG), tag),
                np.where(div, np.where(up, math.inf, -math.inf), val), residual)


def _fold(residual, extra: np.ndarray) -> np.ndarray:
    """_fold_residual per lane."""
    return np.where(extra > 0, residual + extra, residual)


class _LaneSettle:
    """_settle over the lanes of a fiber kernel, fed a column of x_n at a time.

    It holds the results by input row (final marks those set) and, per
    running lane, its input row, its _LaneSettler state and its fold, the
    orbit's own error, which the kernel keeps current.  tail(value,
    residual), if given, adds to the fold of every settler estimate.
    """

    def __init__(self, lanes: int, base: int, tol: float, plus: bool, tail_m: float,
                 tail: Optional[Callable] = None):
        self.base, self.tol, self.plus, self.tail_m, self.tail = base, tol, plus, tail_m, tail
        self.val, self.res = np.full(lanes, math.nan), np.full(lanes, math.inf)
        self.used, self.tag = np.zeros(lanes, int), np.full(lanes, _BUDGET, np.int8)
        self.final = np.zeros(lanes, bool)
        self.rows, self.fold = np.arange(lanes), np.zeros(lanes)
        self.settler = _LaneSettler(lanes, tol)

    def put(self, mask: np.ndarray, t, v, r, n) -> None:
        """Final estimates of the masked running lanes: arrays over them, or one for all."""
        if mask.any():
            sel = self.rows[mask]
            for arr, x in ((self.tag, t), (self.val, v), (self.res, r), (self.used, n)):
                arr[sel] = x[mask] if isinstance(x, np.ndarray) else x
            self.final[sel] = True

    def _put_settled(self, mask: np.ndarray, t, v, r, n) -> None:
        """put settler estimates, with their fold and the kernel's tail."""
        extra = self.fold if self.tail is None else self.tail(v, r) + self.fold
        self.put(mask, t, v, _fold(r, extra), n)

    def column(self, x: np.ndarray, n: int, take: Optional[np.ndarray] = None) -> np.ndarray:
        """x_n of the running lanes that take marks (all by default) in, as _settle reads it."""
        dn = self.base**n
        if np.fmin.reduce(x) == -math.inf:   # an exact zero ends its lane, unpushed
            zero = x == -math.inf if take is None else take & (x == -math.inf)
            self.put(zero, _ZERO, 0.0 if self.plus else -math.inf, 0.0, n)
            take = ~zero if take is None else take & ~zero
        g = _over(np.where(0.0 > x, 0.0, x) if self.plus else x, dn)
        decided = self.settler.push(g, n, take)
        if self.plus:   # the settler decides past the escape radius, the certified bound below it
            past = x > ESCAPE_LOG
            if (bound := _over(self.tail_m, dn) if self.base >= 2 else math.inf) < self.tol:
                self.put(~past if take is None else take & ~past, _CONV, g,
                         _fold(bound, self.fold), n)
            decided &= past
        if decided.any():
            self._put_settled(decided, *self.settler.final(), n)
        return g

    def end(self, n: int, mask=None, dove=None) -> None:
        """Orbits of the masked running lanes (all by default) ended after step n; dove: dives."""
        mask = ~self.final[self.rows] if mask is None else mask & ~self.final[self.rows]
        if self.plus and self.base >= 2 and dove is not None:
            dove, bound = mask & dove, _over(self.tail_m, self.base**n)
            self.put(dove, _CONV if bound < self.tol else _BUDGET, 0.0, _fold(bound, self.fold), n)
            mask &= ~dove
        self._put_settled(mask, *self.settler.finish(), np.maximum(self.settler.n, 0))

    def keep(self, mask: np.ndarray, *lanes: np.ndarray) -> list:
        """Only the masked running lanes run on; out the kernel's arrays over lanes, kept alike."""
        self.rows, self.fold = self.rows[mask], self.fold[mask]
        self.settler.keep(mask)
        return [x[mask] for x in lanes]


def _fiber_ratio(f: SkewProduct, c: Classification, plus: bool, z: complex,
                 ws: tuple, n_max: int, tol: float, weightless: bool = False) -> tuple:
    """G_z^alpha, or G_z^{alpha,+} when plus, over a fiber from all weighted-ratio lanes at once.

    The z side (log z_n, the p-tail correction, the z-factors of the
    recursion, the z part of the close) is computed once per step for the
    whole fiber.  Lanes are settled online (_LaneSettle) as
    _gza_from_ratio settles the scalar orbit and retire once their
    estimate is final; weightless as there.  A lane whose step certifies
    its limit (_DiveClose, offered as _ratio_steps offers it) ends there.
    """
    d, al = c.d, int(c.alpha)
    stop_escaped = weightless and all(j <= d for _, j in f.q.terms)
    terms = _ratio_terms(f, c.alpha)
    t_it, t_j, t_lb = (np.array([t[k] for t in terms], float) for k in (0, 1, 3))
    t_rows = np.arange(len(terms))[:, None]
    exps = (t_j, t_it, t_j.max(), t_it.max())
    log_a, tail = cmath.log(f.p.leading_at_zero()), _p_tail(f.p)
    close, lead = _ratio_close(c, terms, plus, al, log_a.real, tail)
    rate_leads = [k for k, r in enumerate(close.rate) if r] if close is not None else []
    rate, lead_j = np.array(close.rate) if rate_leads else None, lead is not None and terms[lead][1]
    lz = cmath.log(z)

    wv = np.array(ws, dtype=complex)
    cr, ci = wv.real.copy(), wv.imag.copy()
    if al:
        e = cmath.exp(-al * lz)
        cr, ci = _cmul(cr, ci, e.real, e.imag)
    lc = _log_abs(cr, ci)
    ext = np.zeros(len(ws), bool)   # past the switch to the log recursion
    prev = np.full(len(ws), math.inf)   # log|c| of the step before

    # the fold is kept as _ratio_steps keeps ro.fold, the tail _gza_from_ratio's, read at lc
    escape_tail = (lambda v, r: np.where(np.isfinite(v) & (lc > ESCAPE_LOG), r / (d - 1), 0.0)
                   ) if d >= 2 else None
    lanes = _LaneSettle(len(ws), d, tol, plus, _ratio_tail_m(d, terms) if plus else 0.0,
                        escape_tail)
    n = 0
    with np.errstate(all="ignore"):
        while True:
            # -- settle element n of every running lane
            g = lanes.column(lc, n)
            if stop_escaped:   # the c^d term leads past the escape radius, its tail unknown
                lanes.put(lc > ESCAPE_LOG, _ESC, g, math.inf, n)
            done = lanes.final[lanes.rows]

            # -- the orbits end at the budget, or before step n + 1 where z escapes
            if n == n_max or lz.real > ESCAPE_LOG:
                lanes.end(n)
                break
            if done.any():
                cr, ci, lc, ext, prev = lanes.keep(~done, cr, ci, lc, ext, prev)
            if not lanes.rows.size:
                break

            # -- step n -> n + 1
            lzr = lz.real
            corr = _p_tail_log(tail, lz)
            tl = np.empty((len(terms), lc.size))
            for k, (it, j, _, lb) in enumerate(terms):
                tl[k] = (it * lzr if it else 0.0) + (j * lc if j else 0.0) + lb
            top = tl.max(axis=0)
            # the factors of the lanes past their switch need no check
            logm = ext | ~_lanes_terms_safe(tl, top, exps, np.where(ext, 0.0, lc), lzr,
                                            al * corr.real)
            new_lc, failed = np.empty(lc.size), np.zeros(lc.size, bool)
            dom = tl.argmax(axis=0)
            # the closes, offered as _ratio_steps offers them, before any refusal
            offer = rated = np.zeros(lc.size, bool)
            if close is not None:
                offer = (lc < prev) & ((top <= lc) if plus else (dom == lead))
                if rate is not None:
                    rated = rate[dom] & ~offer
                    offer = offer | (rated := rated & (lc > 0.0) if plus else rated)
            eta = np.zeros(lc.size)
            if (need := logm | offer).any():   # _ratio_steps' eta, its terms added in order
                gap = tl[:, need] - top[need]
                near = (gap > -80.0) & (t_rows != dom[need])
                term = np.zeros(gap.shape)
                term[near] = _math_map(math.exp, gap[near])
                eta[need] = sum(term[1:], term[0])
            at = np.flatnonzero(offer & ((eta < _SOFT_TAIL_TOL) | (plus & ~rated)))
            if at.size and (u := close.z_part(lzr)) is not None:
                closed, (vals, ress) = np.zeros(lc.size, bool), np.zeros((2, lc.size))
                by_rate, k_at = rated[at], dom[at]
                for k in rate_leads + [None]:   # each rate lead's lanes, then the trap's or dive's
                    sub = at[~by_rate] if k is None else at[by_rate & (k_at == k)]
                    if sub.size:   # j (but the trap's) and an all-0 fold, one for all lanes
                        j, lb = terms[k][1::2] if k is not None else (
                            t_j[dom[sub]] if plus else lead_j, None)
                        fold = lanes.fold[sub]
                        shut, vals[sub], ress[sub] = close.closes(
                            top[sub], j, lb, lc[sub], lzr, eta[sub], fold if fold.any() else 0.0,
                            n, u, tol, k is not None)
                        closed[sub[shut]] = True
                if closed.any():
                    lanes._put_settled(closed, _CONV, vals, ress, n)
                    failed |= closed
            eta[~logm] = 0.0   # an exact step neglects nothing
            if logm.any():
                sub_top, sub_dom, sub_eta = top[logm], dom[logm], eta[logm]
                new_lc[logm] = (t_lb[sub_dom] + t_it[sub_dom] * lzr + t_j[sub_dom] * lc[logm]
                                - al * corr.real)
                failed[logm] |= ~((sub_eta < _SOFT_TAIL_TOL) & (sub_top > -math.inf)
                                  & np.isfinite(new_lc[logm]))
            exact = ~logm
            if exact.any():
                try:
                    zfacs = [cmath.exp(it * lz - al * corr) if it else cmath.exp(-al * corr)
                             for it, _, _, _ in terms]
                except ValueError:   # a z-factor past the double range: as a refused extension
                    failed, logm = failed | exact, logm | exact
                else:
                    nr, ni = _exact_step(cr[exact], ci[exact], terms, zfacs)
                    failed[exact] |= ~(np.isfinite(nr) & np.isfinite(ni))
                    cr[exact], ci[exact] = nr, ni
                    new_lc[exact] = _log_abs(nr, ni)
            ext = ext | logm
            if failed.any():   # a refused extension ends as 'range', a dive where
                # log|c| < 0; a non-finite exact step as 'escaped'
                lanes.end(n, failed & logm, dove=lc < 0)
                lanes.end(n, failed & exact)
                cr, ci, new_lc, ext, eta, lc = lanes.keep(~failed, cr, ci, new_lc, ext, eta, lc)
            prev, lc = lc, new_lc
            lz = log_a + f.delta * lz + corr
            n += 1
            lanes.fold = lanes.fold + _over(2.0 * eta, d**n)
            if not lanes.rows.size:
                break

    return lanes.val, lanes.used, lanes.tag, lanes.res


# -- direct log-orbit kernel

_COMPLETE, _ESCAPED, _RANGE = range(3)   # how an orbit ends, as _OrbitLogs.reason


def _lane_term_logs(keys: list[tuple[int, int]], lz, lw: np.ndarray) -> np.ndarray:
    """The term logs of _extension_eta per lane at (lz, lw), one row per term key (i, j)."""
    tl = np.empty((len(keys), lw.size))
    for t, (i, j) in enumerate(keys):
        tl[t] = (0.0 if i == 0 else i * lz) + (0.0 if j == 0 else j * lw)
    return tl


def _lane_eta(f: SkewProduct, vertex: tuple[int, int], lz, lw: np.ndarray,
              tl: np.ndarray) -> np.ndarray:
    """_extension_eta per lane at (lz, lw) with q's dominant monomial at vertex.

    tl holds q's term logs there (_lane_term_logs).  The terms add up in
    _extension_eta's order, p's first.
    """
    eta = np.zeros(lw.size)
    for (terms, dom), logs in zip(_components(f, vertex), ([k * lz + 0.0 for k in f.p.terms], tl)):
        base = dom[0] * lz + dom[1] * lw
        for (key, coeff), t in zip(terms.items(), logs):
            if key != dom:
                eta += _abs_ratio(coeff, terms[dom]) * _math_map(math.exp,
                                                                 np.minimum(t - base, 700.0))
    return eta


class _LaneOrbits:
    """orbit_logs(f, vertices[0], z, w, n_max, vertices[1:]) of a batch of lanes w, by columns.

    Iterating yields (n, live, lz, lw) for n = 0, 1, ...: step n of the
    lanes still running, whose batch indices live holds in increasing
    order; ext marks the ones past their switch and vtx holds their
    vertex, an index into vertices.  A reader that sets retire, a mask
    over the lanes of the column it read, stops those lanes: they compute
    no further step.  Any other lane missing from a column ended after its
    step in the one before, as reason records (_COMPLETE, _ESCAPED or
    _RANGE); switch_step (-1 where none), switch_eta and vertex hold each
    lane's switch as _OrbitLogs does.  No step is kept.

    Each step replays the scalar driver on every lane.  The exact lanes
    share z_n, its log and p's part of the dominance test.  A lane that
    fails the test switches to the log recursion of the first vertex whose
    eta passes it, the primary and then the alternates (_switch_vertex),
    or ends 'range'; the switched lanes step by their vertex's recursion
    (_extension_steps).
    """

    def __init__(self, f: SkewProduct, vertices: list[tuple[int, int]], z: complex,
                 ws: np.ndarray, n_max: int):
        self.f, self.vertices, self.z, self.ws, self.n_max = f, vertices, complex(z), ws, n_max
        self.reason, self.vertex = np.zeros(ws.size, np.int8), np.zeros(ws.size, int)
        self.switch_step, self.switch_eta = np.full(ws.size, -1), np.zeros(ws.size)
        self.retire: Optional[np.ndarray] = None

    def __iter__(self) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        f, vertices = self.f, self.vertices
        p_terms, q_terms = f.p.terms, f.q.terms
        q_keys = list(q_terms)
        # each term log is at most i_top |lz| + j_top |lw| in size: below _WINDOW, all are safe
        i_top, j_top = max(max(p_terms), max(q_terms)[0]), max(j for _, j in q_keys)
        log_a, delta = _lcoeff(f.p.leading_at_zero()), f.delta
        recursion = np.array([(_lcoeff(q_terms[v]), *v) for v in vertices])   # log|b|, gamma, d
        zc = self.z
        lzc = _lmag(zc)
        wr, wi = self.ws.real.copy(), self.ws.imag.copy()
        lw = _log_abs(wr, wi)
        live, lz = np.arange(lw.size), np.full(lw.size, lzc)
        ext, vtx = np.zeros(lw.size, bool), np.zeros(lw.size, int)

        def keep(mask, reason=None):
            nonlocal live, lz, lw, wr, wi, ext, vtx
            if reason is not None:
                self.reason[live[~mask]] = reason
            live, lz, lw, wr, wi, ext, vtx = (x[mask] for x in (live, lz, lw, wr, wi, ext, vtx))

        for n in range(self.n_max + 1):
            if n:
                # the orbits past the escape radius ended after step n - 1
                esc = (lz > ESCAPE_LOG) | (lw > ESCAPE_LOG)
                if esc.any():
                    keep(~esc, _ESCAPED)
                # the dominance test at step n - 1 of the exact lanes the cheap bound
                # leaves: where it holds for the largest |lw|, it holds for every lane
                mag_z, mag_w = i_top * abs(lzc), np.abs(lw)
                if (not mag_z + j_top * mag_w.max(initial=0.0) <= _WINDOW
                        and (test := ~ext & ~(mag_z + j_top * mag_w <= _WINDOW)).any()):
                    tl = _lane_term_logs(q_keys, lzc, lw)
                    unsafe = test & ~_lanes_terms_safe(tl, tl.max(axis=0))
                    if not _terms_safe([k * lzc + 0.0 for k in p_terms]):
                        unsafe = test
                    # a lane with a zero coordinate cannot switch
                    pending = unsafe & (lw > -math.inf) & (lzc > -math.inf)
                    ext, vtx = ext.copy(), vtx.copy()
                    for t, vertex in enumerate(vertices):
                        if not (at := np.flatnonzero(pending)).size:
                            break
                        eta = _lane_eta(f, vertex, lzc, lw[at], tl[:, at])
                        at, eta = at[eta < _TAIL_TOL], eta[eta < _TAIL_TOL]
                        ext[at], vtx[at], pending[at] = True, t, False
                        self.switch_step[live[at]], self.switch_eta[live[at]] = n, eta
                        self.vertex[live[at]] = t
                    if (unsafe & ~ext).any():   # refused by every vertex
                        keep(~(unsafe & ~ext), _RANGE)
                # step n: the switched lanes by their recursion, where it stays finite
                if ext.any():
                    b, g, d = recursion[vtx].T
                    lz, lw = log_a + delta * lz, b + g * lz + d * lw
                    if (bad := ext & ~(np.isfinite(lz) & np.isfinite(lw))).any():
                        keep(~bad, _RANGE)
                else:
                    lz, lw = lz.copy(), lw.copy()
                exact = ~ext
                if exact.any():
                    at = exact if ext.any() else slice(None)
                    # p(z), q(z, w) or a modulus past the double range ends an orbit escaped
                    escaped = exact.copy()
                    try:
                        zn = f.p(zc)
                        az = abs(zn)
                        czs = [coeff * zc**i for (i, _), coeff in q_terms.items()]
                    except OverflowError:
                        az = math.inf
                    if math.isfinite(az):
                        # q(z, w) adds (coeff z^i) w^j in term order
                        squares = [(wr[at], wi[at])]
                        nr, ni = np.zeros(squares[0][0].size), np.zeros(squares[0][0].size)
                        for (_, j), cz in zip(q_keys, czs):
                            tr, ti = _cmul(cz.real, cz.imag, *_cpow(squares, j))
                            nr += tr
                            ni += ti
                        mag = np.hypot(nr, ni)   # abs() per lane
                        wr[at], wi[at], lw[at] = nr, ni, _log_mag(mag)
                        escaped[at] = ~np.isfinite(mag)
                        zc, lzc = zn, (math.log(az) if az > 0 else -math.inf)
                        lz[at] = lzc
                    if escaped.any():
                        keep(~escaped, _ESCAPED)
            if not live.size:
                return
            self.ext, self.vtx = ext, vtx
            yield n, live, lz, lw
            if self.retire is not None:
                keep(~self.retire)
                self.retire = None
                if not live.size:
                    return


def _fiber_direct(f: SkewProduct, c: Classification, which: str, z: complex,
                  ws: Sequence[complex], n_max: int, tol: float) -> tuple:
    """_gza_direct ('Gza', 'Gzap'), _gzi_direct ('Gzi') or _gz_direct ('Gz') of all lanes w of ws.

    The orbits of all lanes run at once (_LaneOrbits); each column goes
    into one _LaneSettle after the direct orbit's own exits (a transient
    zero w_n = 0 skips its push, E_z and the ratio's escape end a lane)
    and closes, and a lane retires where the scalar routine stops reading,
    at its switch (_direct_close) at the latest; a settled G_z lane on an
    invariant w-axis runs on to it, since a zero before it decides.
    Returns (value, n_used, tag, residual).
    """
    orbits = _LaneOrbits(f, [term.vertex for term in c.terms], z, np.array(ws, dtype=complex),
                         n_max)
    d, plus, axis_inv = c.lam if which == "Gz" else c.d, which == "Gzap", _w_axis_invariant(f)
    alpha, low = float(c.alpha) if which in ("Gza", "Gzap") else 0.0, 0.0 if plus else -math.inf
    lanes = _LaneSettle(orbits.vertex.size, d, tol, plus, _direct_tail_m(f, c) if plus else 0.0)
    last, slope = 0, c.gamma / d
    for n, live, lz, lw in orbits:
        if live.size < lanes.rows.size:   # the others' orbits ended after step n - 1
            stay = np.zeros(lanes.rows.size, bool)
            stay[np.searchsorted(lanes.rows, live)] = True
            # a G_z^{alpha,+} lane that ended 'range' dove below the double range
            lanes.end(n - 1, ~stay, orbits.reason[lanes.rows] == _RANGE if plus else None)
            lanes.keep(stay)
        rows, last, dn, ext = lanes.rows, n, d**n, orbits.ext
        if ext.any():   # the lanes that switched at step n close there, with their fold
            lanes.fold[ext] = _switch_share(orbits.switch_eta[rows[ext]], d, n)
            for t, vertex in enumerate(orbits.vertices):
                if (at := ext & (orbits.vtx == t) & ~lanes.final[rows]).any():
                    v, r = (np.broadcast_to(x, lz.shape)
                            for x in _direct_close(f, c, which, vertex, n, lz, lw))
                    tag = np.where(np.isfinite(v), _CONV, np.where(v > 0, _DIV_POS, _DIV_NEG))
                    lanes._put_settled(at, tag, v, r, n)
        take = (lw > -math.inf) & ~ext   # a transient zero w_n = 0 has no partial
        if which == "Gz":
            if axis_inv:   # a zero before the switch decides
                lanes.put(~take & ~ext, _ZERO, -math.inf, 0.0, n)
                take &= ~lanes.final[rows]
            x = lw
        elif which == "Gzi":
            z_zero = lz == -math.inf
            lanes.put(~take & z_zero, _ZERO, math.nan, math.inf, n)
            lanes.put(take & z_zero, _EZ, math.inf, math.inf, n)
            # w_n = 0 on an invariant w-axis: x_n = -inf, an exact zero
            take = (take | (axis_inv & ~ext)) & ~z_zero
            x = lw - slope * n * lz
        else:
            if axis_inv:
                lanes.put(~take & ~ext, _ZERO, low, 0.0, n)
            if alpha:   # E_z: the ratio blows up (alpha > 0) or tends to 0 (alpha < 0)
                ez = take & (lz == -math.inf)
                lanes.put(ez, _EZ, math.inf if alpha > 0 else low, math.inf if alpha > 0 else 0.0,
                          n)
                take &= ~ez
            x = lw - (alpha * lz if alpha else 0.0)
            # the orbit ends; its tail is below 1e-12 of the last term
            esc = take & (x > ESCAPE_LOG)
            lanes.put(esc, _ESC, _over(x, dn), _fold(_over(3e-12, dn), lanes.fold), n)
            take &= ~esc
        lanes.column(x, n, take)
        done = lanes.final[rows] | ext
        if which == "Gz" and axis_inv:   # a settled lane runs on, to a zero or its switch
            done &= (lw == -math.inf) | ext
        if done.any():
            orbits.retire = done
            lanes.keep(~done)
    lanes.end(last, dove=orbits.reason[lanes.rows] == _RANGE if plus else None)
    return lanes.val, lanes.used, lanes.tag, lanes.res
