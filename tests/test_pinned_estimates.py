"""Estimates pinned on one example map of each Case, so drift shows up.

fiber_sample is checked against the per-point estimators elsewhere; this
table catches a change that moves both at once.  Each estimate is
(value, n_used, termination, residual): n_used and termination must
match exactly, value and residual to a relative 1e-12, infinities
exactly.  None marks an estimator that refuses the map.
"""

import math

import pytest

from skewdyn import BiPoly, SkewProduct, UniPoly, classify, classify_point, wedge_u_l
from skewdyn.green import ESTIMATORS, fiber_sample
from skewdyn.oracles import example_degenerate

INF = math.inf

MAPS = {
    # Case 1, alpha = -1, with a p tail
    "case1": SkewProduct(UniPoly({2: 1.0, 3: 0.5}), BiPoly({(1, 3): 1.0, (2, 3): 0.25j})),
    # Case 2, dominant (1, 2), alpha = 1
    "case2": SkewProduct(UniPoly({3: 1.0}), BiPoly({(0, 4): 1.0, (1, 2): 1.0})),
    # Case 3 with a second dominant term (delta = T_1), alpha = 1
    "case3": example_degenerate(1, 4),
    # Case 4, dominant (1, 2), alpha = 1
    "case4": SkewProduct(UniPoly({3: 1.0}),
                         BiPoly({(0, 5): 1.0, (1, 2): 3.0, (3, 1): 1.0})),
    # alpha = 3/2: no weighted-ratio recursion, every estimator runs the direct orbit
    "alpha32": SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0})),
}

POINTS = {
    "case1": [(0.3 + 0.2j, 0.1 - 0.05j), (0.5 - 0.1j, 0.9 + 0.3j),
              (0.05 + 0.02j, 0.2 + 0.1j)],
    "case2": [(0.3 + 0.1j, 0.2 - 0.1j), (0.6 + 0.2j, 1.1 - 0.4j),
              (0.02 - 0.03j, 0.05 + 0.01j)],
    "case3": [(0.5 + 0j, 0.3 + 0.2j), (0.5 + 0j, 1.5 - 0.5j),
              (0.1 + 0.1j, 0.01 - 0.02j)],
    "case4": [(0.2 + 0.1j, 0.05 + 0.02j), (0.4 - 0.2j, 0.8 + 0.1j), (0.3 - 0.1j, 0j)],
    # the last point switches to the log-space extension at step 8
    "alpha32": [(0.4 + 0.1j, 0.3 - 0.2j), (0.5 + 0j, 1.2 + 0.3j),
                (-0.09897173011784269 + 0.054432495748585684j,
                 0.008730071332046972 - 0.02482660783051319j)],
}

# n_max 64, tol 1e-10; label is (label, entry_step, undecided) of
# classify_point in the wedge U_l with l = l1 and r = 0.05
PINNED = {
    ('case1', 0): {
        'Gp': (-0.9433421021492245, 7, 'converged', 0.0),
        'Gza': (-3.1810843235784407, 7, 'converged', 5.732597844552626e-10),
        'Gzi': None,
        'Gzap': (0.0, 26, 'converged', 6.221764478117302e-10),
        'Gz': (-3.1810843235784407, 7, 'converged', 5.732597844552626e-10),
        'Gf': (-0.1863391801841055, 4, 'budget', 0.1863407724185686),
        'Gfa': (0.1863391801841055, 4, 'budget', 0.1863407724185686),
        'label': ('in_A0_and_Afl', 2, False),
    },
    ('case1', 1): {
        'Gp': (-0.5222768644973952, 7, 'converged', 0.0),
        'Gza': (-0.6190943219224646, 7, 'converged', 1.1171815267401175e-16),
        'Gzi': None,
        'Gzap': (0.0, 26, 'converged', 4.891666405231785e-11),
        'Gz': (-0.6190943219224646, 7, 'converged', 1.1171815267401175e-16),
        'Gf': (-1.0786524645097908e-10, 55, 'converged', 1.0786526353543655e-10),
        'Gfa': (1.0786524645097908e-10, 55, 'converged', 1.0786526353543655e-10),
        'label': ('in_A0_and_Afl', 3, False),
    },
    ('case1', 2): {
        'Gp': (-2.908885600633673, 5, 'converged', 0.0),
        'Gza': (-4.412725354961869, 5, 'converged', 8.881784322997118e-16),
        'Gzi': None,
        'Gzap': (0.0, 26, 'converged', 4.891666335648024e-11),
        'Gz': (-4.412725354961869, 5, 'converged', 8.881784322997118e-16),
        'Gf': (-1.1867038669851e-10, 59, 'converged', 1.1866995267739747e-10),
        'Gfa': (1.1867038669851e-10, 59, 'converged', 1.1866995267739747e-10),
        'label': ('in_A0_and_Afl', 1, False),
    },
    ('case2', 0): {
        'Gp': (-1.151292546497023, 2, 'converged', 0.0),
        'Gza': (-0.3188569292814862, 5, 'converged', 0.0),
        'Gzi': None,
        'Gzap': (0.0, 41, 'converged', 5.0260534619025834e-11),
        'Gz': (-1.151292546497023, 5, 'converged', 0.0),
        'Gf': (-1.151292546497023, 54, 'converged', 4.939004760728949e-11),
        'Gfa': (-1.151292546497023, 54, 'converged', 4.939004760728949e-11),
        'label': ('in_A0_and_Afl', 2, False),
    },
    ('case2', 1): {
        'Gp': (-0.4581453659370776, 2, 'converged', 0.0),
        'Gza': (5.852205300259192, 4, 'escaped_with_tail', 1.875e-13),
        'Gzi': None,
        'Gzap': (5.852205300259192, 4, 'escaped_with_tail', 1.875e-13),
        'Gz': (0.6978458044844915, 4, 'budget', 0.17446145112112288),
        'Gf': (0.6978458044844915, 4, 'budget', 0.17446145112112288),
        'Gfa': (0.6978458044844915, 4, 'budget', 0.17446145112112288),
        'label': ('escapes_or_outside', None, False),
    },
    ('case2', 2): {
        'Gp': (-3.322695507257323, 2, 'converged', 0.0),
        'Gza': (0.354648137922395, 4, 'converged', 0.0),
        'Gzi': None,
        'Gzap': (0.354648137922395, 7, 'escaped_with_tail', 2.34375e-14),
        'Gz': (-3.322695507257323, 4, 'converged', 0.0),
        'Gf': (-3.322695507147454, 54, 'converged', 5.4933391169242896e-11),
        'Gfa': (-3.322695507147454, 54, 'converged', 5.4933391169242896e-11),
        'label': ('in_A0_and_Afl', 1, False),
    },
    ('case3', 0): {
        'Gp': (-0.6931471805599453, 2, 'converged', 0.0),
        'Gza': (-1.1169055932193024e-10, 51, 'converged', 5.584527966096512e-11),
        'Gzi': None,
        'Gzap': (0.0, 26, 'converged', 4.891666335646764e-11),
        'Gz': (-0.6931471805599453, 51, 'converged', 0.0),
        'Gf': (-0.6931471805599453, 4, 'budget', 0.008574312300724474),
        'Gfa': (-0.6931471805599453, 4, 'budget', 0.008574312300724474),
        'label': ('in_A0_and_Afl', 2, False),
    },
    ('case3', 1): {
        'Gp': (-0.6931471805599453, 2, 'converged', 0.0),
        'Gza': (1.2414357056407812, 3, 'escaped_with_tail', 1.1111111111111111e-13),
        'Gzi': None,
        'Gzap': (1.2414357056407812, 3, 'escaped_with_tail', 1.1111111111111111e-13),
        'Gz': (-0.6931471805599453, 3, 'converged', 0.0),
        'Gf': (-0.6931471680330028, 64, 'budget', 4.175647605464405e-09),
        'Gfa': (-0.6931471680330028, 64, 'budget', 4.175647605464405e-09),
        'label': ('in_A0_and_Afl', 3, False),
    },
    ('case3', 2): {
        'Gp': (-1.956011502714073, 2, 'converged', 0.0),
        'Gza': (-1.1431696562254808e-10, 58, 'converged', 5.715848281127405e-11),
        'Gzi': None,
        'Gzap': (0.0, 26, 'converged', 4.891666335646764e-11),
        'Gz': (-1.956011502714073, 58, 'converged', 0.0),
        'Gf': (-1.956011502714073, 36, 'converged', 2.7184884989600048e-11),
        'Gfa': (-1.956011502714073, 36, 'converged', 2.7184884989600048e-11),
        'label': ('in_A0_and_Afl', 1, False),
    },
    ('case4', 0): {
        'Gp': (-1.4978661367769954, 2, 'converged', 0.0),
        'Gza': (-0.20304210999250577, 35, 'converged', 3.1973812486540965e-11),
        'Gzi': None,
        'Gzap': (0.0, 41, 'converged', 5.0260534619025834e-11),
        'Gz': (-1.4978661367769954, 35, 'converged', 0.0),
        'Gf': (-1.4978661367769954, 53, 'converged', 4.7175818806977077e-11),
        'Gfa': (-1.4978661367769954, 53, 'converged', 4.7175818806977077e-11),
        'label': ('in_A0_and_Afl', 1, False),
    },
    ('case4', 1): {
        'Gp': (-0.8047189562170501, 2, 'converged', 0.0),
        'Gza': (5.282677598520042, 4, 'escaped_with_tail', 1.875e-13),
        'Gzi': None,
        'Gzap': (5.282677598520042, 4, 'escaped_with_tail', 1.875e-13),
        'Gz': (0.39795485849258566, 5, 'budget', 0.15918194339703423),
        'Gf': (0.39795485849258566, 5, 'budget', 0.15918194339703423),
        'Gfa': (0.39795485849258566, 5, 'budget', 0.15918194339703423),
        'label': ('escapes_or_outside', None, False),
    },
    ('case4', 2): {
        'Gp': (-1.151292546497023, 2, 'converged', 0.0),
        'Gza': (-INF, 0, 'hit_zero', 0.0),
        'Gzi': None,
        'Gzap': (0.0, 0, 'hit_zero', 0.0),
        'Gz': (-INF, 0, 'hit_zero', 0.0),
        'Gf': (-1.151292546497023, 2, 'converged', 0.0),
        'Gfa': (-1.151292546497023, 2, 'converged', 0.0),
        'label': ('in_A0_and_Afl', 1, False),
    },
    ('alpha32', 0): {
        'Gp': (-0.8859784209659376, 2, 'converged', 1.1102230246251565e-16),
        'Gza': (0.44434702274537075, 6, 'escaped_with_tail', 4.6875e-14),
        'Gzi': (-0.8846206087035358, 7, 'converged', 0.0),
        'Gzap': (0.44434702274537075, 6, 'escaped_with_tail', 4.6875e-14),
        'Gz': (-0.8846206087035358, 7, 'converged', 0.0),
        'Gf': (-0.8846206087035358, 7, 'converged', 1.1102230246251565e-16),
        'Gfa': (-0.8846206087035358, 7, 'converged', 1.1102230246251565e-16),
        'label': ('in_A0_and_Afl', 2, False),
    },
    ('alpha32', 1): {
        'Gp': (-0.6931471805599453, 2, 'converged', 0.0),
        'Gza': (1.214441279620605, 5, 'escaped_with_tail', 9.375e-14),
        'Gzi': (0.17472050878068704, 5, 'converged', 0.0),
        'Gzap': (1.214441279620605, 5, 'escaped_with_tail', 9.375e-14),
        'Gz': (0.17472050878068704, 5, 'converged', 0.0),
        'Gf': (0.17472050878068704, 5, 'converged', 0.0),
        'Gfa': (0.17472050878068704, 5, 'converged', 0.0),
        'label': ('escapes_or_outside', None, False),
    },
    ('alpha32', 2): {
        'Gp': (-2.180786621117447, 2, 'converged', 0.0),
        # both escape residuals include the switch fold 4 eta / 2^8 = 1.12e-11
        'Gza': (0.08224896059769016, 9, 'escaped_with_tail', 1.121135254375603e-11),
        'Gzi': (-3.188930971078481, 9, 'converged', 1.120549316875603e-11),
        'Gzap': (0.08224896059769016, 9, 'escaped_with_tail', 1.121135254375603e-11),
        'Gz': (-3.188930971078481, 9, 'converged', 1.120549316875603e-11),
        'Gf': (-2.180786621117447, 9, 'converged', 1.120549316875603e-11),
        'Gfa': (-3.188930971078481, 9, 'converged', 1.120549316875603e-11),
        'label': ('in_A0_and_Afl', 1, False),
    },
}


def _close(got: float, want: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return math.isclose(got, want, rel_tol=1e-12)


def _check(got, want, where):
    assert (got.n_used, got.termination) == want[1:3], where
    assert _close(got.value, want[0]), (where, got.value, want[0])
    assert _close(got.residual, want[3]), (where, got.residual, want[3])


@pytest.mark.parametrize("name", list(MAPS))
def test_pinned_estimates(name):
    f = MAPS[name]
    c = classify(f)
    spec = wedge_u_l(c.l1, 0.05)
    for idx, (z, w) in enumerate(POINTS[name]):
        want = PINNED[(name, idx)]
        for key, fn in ESTIMATORS.items():
            where = (name, idx, key)
            if want[key] is None:
                with pytest.raises(ValueError):
                    fn(f, c, z, w, 64, 1e-10)
                continue
            _check(fn(f, c, z, w, 64, 1e-10), want[key], where)
            # the grid entry point, batched or not, gives the same estimate
            _check(fiber_sample(f, c, key, z, [w]).estimates[0], want[key], where)
        lbl = classify_point(f, c, spec, z, w)
        assert (lbl.label, lbl.entry_step, lbl.undecided) == want["label"], (name, idx)
