"""Point queries run without numpy, without the lane kernels of skewdyn.fiber, and
without skewdyn.weights and skewdyn.blowup, which the package loads at first use."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# run in a fresh interpreter, since this test process has numpy loaded already
SCRIPT = r'''
import sys

from skewdyn import (BiPoly, SkewProduct, UniPoly, bottcher, classify, classify_point,
                     monomial_skew, wedge_u_l)
from skewdyn.cli import main
from skewdyn.green import ESTIMATORS


def numpy_modules():
    return sorted(name for name in sys.modules if name.startswith("numpy."))


alpha32 = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
f0 = monomial_skew(2, 1, 3)   # alpha -1: the weighted-ratio orbit serves
z, w = 0.4 + 0.1j, 0.3 - 0.2j
for f in (alpha32, f0):
    c = classify(f)
    for fn in ESTIMATORS.values():
        try:
            fn(f, c, z, w, 64, 1e-10)
        except ValueError:   # an estimator the map does not admit
            pass
c32, c0 = classify(alpha32), classify(f0)
# tol 0 settles nothing, so the partials run past step 1024, where 2**n
# leaves the double range: on E_z with |w| = 1 the direct orbit never
# switches, so it does not close
deep = ESTIMATORS["Gz"](alpha32, c32, 0j, 1j, 1100, 0.0)
assert deep.n_used >= 1024, deep
bottcher(f0, c0, 0.05 + 0.02j, 0.03 - 0.01j)
classify_point(f0, c0, wedge_u_l(1, 0.1), 0.05, 0.004, budget=50)
assert main(["green", sys.argv[1], "--function", "Gz", "--point", "0.5,0,0.4,0"]) == 0
assert not numpy_modules(), numpy_modules()[:5]
assert "skewdyn.fiber" not in sys.modules   # no import on the point path compiles the kernels
assert "skewdyn.weights" not in sys.modules and "skewdyn.blowup" not in sys.modules

from skewdyn.fiber import fiber_sample

lanes = fiber_sample(alpha32, c32, "Gz", 0j, [1j], 1100, 0.0).estimates
assert repr(lanes) == repr((deep,)), (lanes, deep)
assert numpy_modules()
assert "skewdyn.fiber" in sys.modules

import skewdyn   # every name the package exports resolves, the lazy ones included

assert skewdyn.weights is sys.modules["skewdyn.weights"]   # so do the modules
assert "skewdyn.blowup" not in sys.modules
exports = sys.argv[2].split()
star = {}
exec("from skewdyn import *", star)   # as README's quick start does
assert set(exports) <= star.keys(), set(exports) - star.keys()
namespace = {}
exec("from skewdyn import " + ", ".join(exports), namespace)
assert all(namespace[name] is getattr(skewdyn, name) for name in exports)
assert set(exports) | {"weights", "blowup"} <= set(dir(skewdyn))
assert skewdyn.d_value is skewdyn.weights.d_value
assert skewdyn.blowup_pi1 is sys.modules["skewdyn.blowup"].blowup_pi1 is skewdyn.blowup.blowup_pi1
'''

EXPORTS = """
    BiPoly OrbitPoint Rational SkewProduct UniPoly eval_skew iterate monomial_skew
    Case Classification DominantTerm NewtonPolygon alpha_redefined classify newton_polygon
    DValue WeightInterval WeightRectangle d_star d_value interval_case2 interval_case3
    invariance_radii rectangle_case4 weight_interval
    BasinLabel WedgeSpec boundary_probe classify_point contains verify_invariance wedge_case3
    wedge_u_l wedge_u_l1l2 wedge_u_r1r2
    BlowupResult blowup_pi1 blowup_pi2 check_blowup_tables
    GreenEstimate fiber_zero_preimages functional_residual g_f g_f_alpha g_p g_z g_z_alpha
    g_z_alpha_plus g_z_infty submean_check
    BottcherEstimate bottcher monomial_inverse
    OneDimPoly SemiconjugateSpec build_semiconjugate example_degenerate example_nondegenerate
    g_h_infty g_h_infty_plus g_h_zero julia_membership monomial_reference
    dump_skew_product load_skew_product parse_skew_product RenderJob RunConfig render
"""


def test_point_queries_do_not_import_numpy(tmp_path):
    path = tmp_path / "monomial.skew"
    path.write_text("p 2 1.0 0.0\nq 1 3 1.0 0.0\n")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(path), EXPORTS], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
