"""Deterministic raster output: binary PGM (P5) plus CSV and a sidecar meta.

The whole grid is one fiber {z} x window, evaluated by a single
fiber.fiber_sample call in row-major pixel order.  Pixel values map
through an affine clamp of the function value onto 0..255, with
-inf -> 0, +inf -> 255 and undecided/NaN -> 128.  The grid, the pixel
bytes and the CSV rows are built from the sample's columns, with the
arithmetic RenderJob.w_at and a per-pixel clamp would do.  Reruns with
the same job and config are byte-identical.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

from ._lazy import np
from .algebra import SkewProduct
from .fileio import dump_skew_product
from .green import DEFAULT_N_MAX, DEFAULT_TOL, ESTIMATORS
from .newton import classify

MAX_PIXELS = 8192


@dataclass(frozen=True)
class RunConfig:
    n_max: int = DEFAULT_N_MAX
    tol: float = DEFAULT_TOL
    seed: int = 0            # sampling seed of `verify --wedge`

    def __post_init__(self):
        if self.n_max <= 0 or self.tol <= 0:
            raise ValueError("config values must be positive")


@dataclass(frozen=True)
class RenderJob:
    function: str                    # key of green.ESTIMATORS
    fiber_z: complex                 # fiber over which the w-grid is swept
    center: complex = 0j             # w-window center
    width: float = 2.0
    height: float = 2.0
    pixels_x: int = 256
    pixels_y: int = 256
    out_prefix: str = "render"

    def __post_init__(self):
        if not 0 < self.pixels_x <= MAX_PIXELS or not 0 < self.pixels_y <= MAX_PIXELS:
            raise ValueError(f"pixels per side must be in 1..{MAX_PIXELS}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("window must be positive")
        if self.function not in ESTIMATORS:
            raise ValueError(f"unknown function {self.function!r}")

    def w_at(self, ix: int, iy: int) -> complex:
        re = self.center.real + self.width * ((ix + 0.5) / self.pixels_x - 0.5)
        im = self.center.imag + self.height * ((iy + 0.5) / self.pixels_y - 0.5)
        return complex(re, im)


def render(f: SkewProduct, job: RenderJob, cfg: RunConfig = RunConfig(),
           out_dir: str | Path = ".") -> dict[str, Path]:
    """Evaluate the grid and write <prefix>.pgm, <prefix>.csv, <prefix>.meta."""
    # the lane kernels compile here, at the first render, and before numpy loads
    from .fiber import _TAGS, fiber_sample

    c = classify(f)
    px, py = job.pixels_x, job.pixels_y
    # w_at per pixel: w.real depends on ix alone and w.imag on iy alone
    re = job.center.real + job.width * ((np.arange(px) + 0.5) / px - 0.5)
    im = job.center.imag + job.height * ((np.arange(py) + 0.5) / py - 0.5)
    grid = np.empty((py, px), complex)
    grid.real, grid.imag = re, im[:, None]
    ws = grid.ravel().tolist()
    val, used, tag, res = fiber_sample(f, c, job.function, job.fiber_z, ws, cfg.n_max,
                                       cfg.tol).columns

    finite = val[np.isfinite(val)].tolist()
    if finite:
        vmin, vmax = min(finite), max(finite)
    else:
        vmin, vmax = 0.0, 1.0
    if vmax <= vmin:
        vmax = vmin + 1.0
    # max(0, min(255, round(255 t))) for t = (v - vmin) / (vmax - vmin), rounding half to even
    with np.errstate(all="ignore"):
        pixel = np.clip(np.rint(255 * ((val - vmin) / (vmax - vmin))), 0, 255)
    pixel[val == -math.inf], pixel[val == math.inf], pixel[np.isnan(val)] = 0, 255, 128

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pgm_path = out_dir / f"{job.out_prefix}.pgm"
    csv_path = out_dir / f"{job.out_prefix}.csv"
    meta_path = out_dir / f"{job.out_prefix}.meta"

    header = f"P5\n{px} {py}\n255\n".encode("ascii")
    pgm_path.write_bytes(header + pixel.astype(np.uint8).tobytes())

    # each w.real and w.imag is formatted once
    head = f"{job.fiber_z.real!r},{job.fiber_z.imag!r},"
    re_cols = [f"{head}{x!r}," for x in re.tolist()] * py
    im_cols = chain.from_iterable(repeat(f"{y!r},", px) for y in im.tolist())
    lines = ["z_re,z_im,w_re,w_im,value,n_used,termination,residual"]
    lines += map("{}{}{!r},{},{},{!r}".format, re_cols, im_cols, val.tolist(), used.tolist(),
                 map(_TAGS.__getitem__, tag.tolist()), res.tolist())
    csv_path.write_text("\n".join(lines) + "\n")

    map_hash = hashlib.sha256(dump_skew_product(f).encode()).hexdigest()
    meta = [
        f"function: {job.function}",
        f"fiber_z: {job.fiber_z.real!r} {job.fiber_z.imag!r}",
        f"center: {job.center.real!r} {job.center.imag!r}",
        f"window: {job.width!r} x {job.height!r}",
        f"pixels: {job.pixels_x} x {job.pixels_y}",
        f"clamp: {vmin!r} {vmax!r}",
        "palette: affine clamp to 0..255; -inf -> 0, +inf -> 255, nan -> 128",
        f"n_max: {cfg.n_max}",
        f"tol: {cfg.tol!r}",
        f"map_sha256: {map_hash}",
    ]
    meta_path.write_text("\n".join(meta) + "\n")
    return {"pgm": pgm_path, "csv": csv_path, "meta": meta_path}
