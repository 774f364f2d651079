"""Dynamics of superattracting polynomial skew products near the origin.

Newton-polygon classification into Cases 1-4, weight intervals and
invariant wedges with constructive radii, numerical Böttcher coordinates,
and the family of weighted Green/plurisubharmonic functions, verified
against monomial and semiconjugate closed forms.
"""

from .algebra import (
    BiPoly,
    OrbitPoint,
    Rational,
    SkewProduct,
    UniPoly,
    eval_skew,
    iterate,
    monomial_skew,
)
from .newton import (
    Case,
    Classification,
    DominantTerm,
    NewtonPolygon,
    alpha_redefined,
    classify,
    newton_polygon,
)
from .weights import (
    DValue,
    WeightInterval,
    WeightRectangle,
    d_star,
    d_value,
    interval_case2,
    interval_case3,
    invariance_radii,
    rectangle_case4,
    weight_interval,
)
from .regions import (
    BasinLabel,
    WedgeSpec,
    boundary_probe,
    classify_point,
    contains,
    verify_invariance,
    wedge_case3,
    wedge_u_l,
    wedge_u_l1l2,
    wedge_u_r1r2,
)
from .blowup import BlowupResult, blowup_pi1, blowup_pi2, check_blowup_tables
from .green import (
    GreenEstimate,
    fiber_zero_preimages,
    functional_residual,
    g_f,
    g_f_alpha,
    g_p,
    g_z,
    g_z_alpha,
    g_z_alpha_plus,
    g_z_infty,
    submean_check,
)
from .bottcher import BottcherEstimate, bottcher, monomial_inverse
from .oracles import (
    OneDimPoly,
    SemiconjugateSpec,
    build_semiconjugate,
    example_degenerate,
    example_nondegenerate,
    g_h_infty,
    g_h_infty_plus,
    g_h_zero,
    julia_membership,
    monomial_reference,
)
from .fileio import dump_skew_product, load_skew_product, parse_skew_product
from .raster import RenderJob, RunConfig, render

__version__ = "0.1.0"
