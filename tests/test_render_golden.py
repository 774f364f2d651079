"""Golden renders: the CSV, PGM and .meta bytes of the two benchmark maps.

Each render goes through `skewdyn render` on a 12 x 12 grid of the fiber
z = 0.5, so any change to an orbit kernel, a settle routine or the writer
that moves a single byte of a rendered file fails here.  The writer, which
works on the sample's columns, must also equal a pixel-by-pixel loop over
its GreenEstimates, sentinels and all.
"""

import hashlib
import math

import pytest

from skewdyn import BiPoly, SkewProduct, UniPoly, classify, monomial_skew
from skewdyn.cli import main
from skewdyn.fiber import fiber_sample
from skewdyn.oracles import example_degenerate
from skewdyn.raster import RenderJob, RunConfig, render

# example_degenerate(1, 4): integer alpha = 1, the weighted-ratio kernel
RATIO_MAP = "builtin semiconjugate degenerate 1 4 ; h: 3 1 0 2 1 0\n"
# (z^2, w^2 - z^3): alpha = 3/2 and two dominant terms, the direct-orbit kernel
DIRECT_MAP = "p 2 1.0 0.0\nq 0 2 1.0 0.0\nq 3 0 -1.0 0.0\n"
GRID = "0.5,0.0,0.01,-0.01,1.0,1.0,12"

GOLDEN = {
    ("fiber_ratio", "Gzap"): {
        "csv": "e09fc0dd54bfaa0187ca1daa217c6d180f33e48cf3f41e02c8dc86dc01d488eb",
        "pgm": "f1a3fcd43441908f4c44765014553ca6acfd9de813d132ee8c268f49c2909520",
        "meta": "3cfe7df11ad625bab02172186aa299314fa550835280c9fa0a122927d05a03b4",
    },
    ("fiber_ratio", "Gza"): {
        "csv": "af648df5e0e95c5eb844a4108eadb478e6b9f1370993b18e13c485cd0c7d3fc2",
        "pgm": "f1a3fcd43441908f4c44765014553ca6acfd9de813d132ee8c268f49c2909520",
        "meta": "8b051f4401be17e3ff1c75a4c3a7ce296f550b93fb127ff19477effb013f1c15",
    },
    ("fiber_ratio", "Gz"): {
        "csv": "6ecf1c4945b88449ae98ead0582a15631dbee5d87c6d2582076c2cb682979948",
        "pgm": "f4b898b3b63470f0a21c218921c1734aa96bfc03f1740421dec24b1e478d5c6f",
        "meta": "def8de8e174073028fe4a2553e8191fd03e06c857d9a65570741678dfebfbfcc",
    },
    ("fiber_direct", "Gza"): {
        "csv": "ba8097d097192f87bac1b06b7f6a8de173101db41651229ac76f29aaf69d98cd",
        "pgm": "5ee05f42b444f49d847a21bd267e1523626a15190dcd7f4cce387f802b96e988",
        "meta": "86146fe837463ceaee9ee99733510e516d320fe0d701530fddbe675e92df9ade",
    },
    ("fiber_direct", "Gzi"): {
        "csv": "74810e0bf51cad0a223ddd0d01206089bc28c42ae48e153243848639d381ab14",
        "pgm": "5ee05f42b444f49d847a21bd267e1523626a15190dcd7f4cce387f802b96e988",
        "meta": "4592e276935513d25c8fd0414539953baf6dded971afea60faa156d5c11807a9",
    },
    ("fiber_direct", "Gz"): {
        "csv": "74810e0bf51cad0a223ddd0d01206089bc28c42ae48e153243848639d381ab14",
        "pgm": "5ee05f42b444f49d847a21bd267e1523626a15190dcd7f4cce387f802b96e988",
        "meta": "56aef2a8e5d55d9f08d3e2810f043da382234b6254a155e9c001a0ca8b60e181",
    },
    ("fiber_direct", "Gf"): {
        "csv": "30d3feb6970a65ff7adc851f4f0a2754a8f7574826dcb09893b0d929ed076820",
        "pgm": "b284b21fe923dc6eae23943eafb0a35f184d233dd3ac0e7760636f3b985c01e6",
        "meta": "a8427df0a4e1bcc7be54b2debbb30b70ffc0f6682f57f1e0aaedf3342cdcc912",
    },
    ("fiber_direct", "Gfa"): {
        "csv": "2aacf2450a0113e9628518a3be776052f25f4eda048130e3c6778e7af13020a6",
        "pgm": "4e1c23251edd28610e50c523121a1ba056ea51cdfce2863b9bee42a9029002c7",
        "meta": "753b02aa387dd50fa29abd3314e33143101e9f24770f33c89e459c665134f2df",
    },
}


@pytest.mark.parametrize("name,fn", sorted(GOLDEN))
def test_render_bytes(tmp_path, capsys, name, fn):
    path = tmp_path / f"{name}.skew"
    path.write_text(RATIO_MAP if name == "fiber_ratio" else DIRECT_MAP)
    assert main(["render", str(path), "--function", fn, "--grid", GRID,
                 "--n-max", "64", "--tol", "1e-10",
                 "--out-dir", str(tmp_path), "--out-prefix", "r"]) == 0
    capsys.readouterr()
    got = {ext: hashlib.sha256((tmp_path / f"r.{ext}").read_bytes()).hexdigest()
           for ext in ("csv", "pgm", "meta")}
    assert got == GOLDEN[name, fn]


def _loop_writer(f, job, cfg):
    """The PGM body and CSV text of a render, written pixel by pixel from GreenEstimates."""
    ws = [job.w_at(ix, iy) for iy in range(job.pixels_y) for ix in range(job.pixels_x)]
    ests = fiber_sample(f, classify(f), job.function, job.fiber_z, ws, cfg.n_max,
                        cfg.tol).estimates
    finite = [e.value for e in ests if math.isfinite(e.value)]
    vmin, vmax = (min(finite), max(finite)) if finite else (0.0, 1.0)
    if vmax <= vmin:
        vmax = vmin + 1.0

    def to_byte(v):
        if math.isnan(v):
            return 128
        if math.isinf(v):
            return 255 if v > 0 else 0
        return max(0, min(255, int(round(255 * (v - vmin) / (vmax - vmin)))))

    z = job.fiber_z
    lines = ["z_re,z_im,w_re,w_im,value,n_used,termination,residual"]
    lines += [f"{z.real!r},{z.imag!r},{w.real!r},{w.imag!r},{e.value!r},{e.n_used},"
              f"{e.termination},{e.residual!r}" for w, e in zip(ws, ests)]
    return bytes(to_byte(e.value) for e in ests), "\n".join(lines) + "\n"


DIRECT = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))


@pytest.mark.parametrize("f,fn,z,center", [
    (DIRECT, "Gza", 0.5, 0j),                       # w = 0 at the middle pixel: a transient zero
    (DIRECT, "Gf", 0.3 - 0.1j, 0.2 + 0.1j),
    (monomial_skew(2, 1, 2), "Gzi", 0j, 0j),        # E_z: +inf, and nan at w = 0
    (monomial_skew(2, 0, 2), "Gz", 0.5, 0j),        # an invariant w-axis: -inf at w = 0
    (monomial_skew(2, 0, 2), "Gp", 0.5, 0j),        # one value: the clamp widens to vmin + 1
    (example_degenerate(1, 4), "Gzap", 0.5, 0.1j),
], ids=["transient_zero", "gf", "e_z", "zero", "constant", "ratio"])
def test_render_writer_matches_the_per_pixel_loop(tmp_path, f, fn, z, center):
    # a 5 x 3 window, so rows and columns cannot swap unseen
    job = RenderJob(fn, complex(z), center, width=0.8, height=0.6, pixels_x=5, pixels_y=3)
    cfg = RunConfig(n_max=64, tol=1e-10)
    paths = render(f, job, cfg, tmp_path)
    body, text = _loop_writer(f, job, cfg)
    assert paths["pgm"].read_bytes() == b"P5\n5 3\n255\n" + body
    assert paths["csv"].read_text() == text
