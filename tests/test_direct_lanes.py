"""The direct-orbit lane kernel against full replays of every vertex.

green._fiber_logs resumes an alternate vertex at the step where the
primary orbit ended 'range' and runs every extended lane in one column
loop.  Here its _LaneLogs must equal, field by field and byte by byte (so
NaN and the sign of zero count), the orbits of a full replay that runs
each vertex from step 0 and takes the longer orbit where one exists:
once with the lane kernel itself, once with the scalar orbit_logs.
"""

import dataclasses
import math

import numpy as np
import pytest

from skewdyn import BiPoly, SkewProduct, UniPoly, classify
from skewdyn import green
from skewdyn.newton import newton_polygon

FIELDS = ("log_z", "log_w", "length", "reason", "switch_step", "switch_eta", "vertex")
REASONS = {"complete": green._COMPLETE, "escaped": green._ESCAPED, "range": green._RANGE}

# (z^2, w^2 - z^3): the fiber_direct map; the vertex (3, 0) takes lanes the
# primary (0, 2) leaves at 'range'
DIRECT = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1.0, (3, 0): -1.0}))
# three Newton vertices, all listed as dominant terms, the weakest first
THREE = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 3): 1.0, (2, 1): -1.0, (6, 0): 0.5}))
# log|w'| = log(1e300) + 2 log|w|: from |w| near 1e-300 the switched lanes
# escape inside the tail, each at its own step, or dive until the
# recursion overflows (n_max past 1000)
ESCAPE = SkewProduct(UniPoly({2: 1.0}), BiPoly({(0, 2): 1e300}))


def _grid(center, width, n):
    return [complex(center.real + width * ((ix + 0.5) / n - 0.5),
                    center.imag + width * ((iy + 0.5) / n - 0.5))
            for iy in range(n) for ix in range(n)]


def _three_vertex_classification():
    c = classify(THREE)
    vertices = newton_polygon(THREE.q).vertices
    order = [(6, 0), (0, 3), (2, 1)]
    assert sorted(order) == sorted(vertices)
    return dataclasses.replace(c, terms=tuple(dataclasses.replace(c.terms[0], vertex=v)
                                              for v in order))


CASES = [
    ("direct", DIRECT, classify(DIRECT), 0.5 + 0.004j, _grid(0.01 - 0.01j, 1.0, 12) + [0j]),
    ("direct_z0", DIRECT, classify(DIRECT), 0j, [0j, 0.2 - 0.1j, 0.5, 1e-200j]),
    ("three", THREE, _three_vertex_classification(), 0.5, _grid(0.01j, 2.0, 12)),
    ("escape", ESCAPE, classify(ESCAPE), 0.5,
     [1e-300 * (1 + 0.1 * k) for k in range(-5, 12)] + [0j]),
]
N_MAXES = (0, 1, 9, 10, 11, 64, 200)


def _stack(orbits, n_max):
    """_LaneLogs of per-lane rows (steps, reason, switch_step, switch_eta, vertex)."""
    lanes, width = len(orbits), n_max + 1
    out = green._LaneLogs(np.full((lanes, width), math.nan), np.full((lanes, width), math.nan),
                          np.ones(lanes, int), np.zeros(lanes, np.int8), np.full(lanes, -1),
                          np.zeros(lanes), np.zeros(lanes, int))
    for k, (steps, reason, switch_step, switch_eta, vertex) in enumerate(orbits):
        out.log_z[k, :len(steps)] = [lz for _, lz, _ in steps]
        out.log_w[k, :len(steps)] = [lw for _, _, lw in steps]
        out.length[k], out.reason[k], out.vertex[k] = len(steps), REASONS[reason], vertex
        out.switch_step[k] = -1 if switch_step is None else switch_step
        out.switch_eta[k] = switch_eta
    return out


def _scalar_replay(f, c, z, ws, n_max):
    """Every vertex's scalar orbit_logs from step 0; the longer wins a 'range' end."""
    orbits = []
    for w in ws:
        best, vertex = green.orbit_logs(f, c.primary.vertex, z, w, n_max), 0
        if best.reason == "range":
            for t, term in enumerate(c.terms[1:], 1):
                other = green.orbit_logs(f, term.vertex, z, w, n_max)
                if len(other.steps) > len(best.steps):
                    best, vertex = other, t
        orbits.append((best.steps, best.reason, best.switch_step, best.switch_eta, vertex))
    return _stack(orbits, n_max)


def _lane_replay(f, c, z, ws, n_max):
    """Every vertex's _lanes_orbit_logs from step 0; the longer wins a 'range' end."""
    parts = []
    for begin in range(0, len(ws), green._CHUNK):
        lanes = np.array(ws[begin:begin + green._CHUNK], dtype=complex)
        best = green._lanes_orbit_logs(f, c.primary.vertex, z, lanes, n_max)
        retry = np.flatnonzero(best.reason == green._RANGE)
        for t in range(1, len(c.terms)):
            other = green._lanes_orbit_logs(f, c.terms[t].vertex, z, lanes[retry], n_max)
            longer = other.length > best.length[retry]
            rows = retry[longer]
            for name in FIELDS[:-1]:
                getattr(best, name)[rows] = getattr(other, name)[longer]
            best.vertex[rows] = t
        parts.append(best)
    return green._LaneLogs(*(np.concatenate([getattr(p, name) for p in parts])
                             for name in FIELDS))


def _kernel(f, c, z, ws, n_max):
    parts = list(green._fiber_logs(f, c, z, ws, n_max))
    return green._LaneLogs(*(np.concatenate([getattr(p, name) for p in parts])
                             for name in FIELDS))


def _assert_same(got, want, where):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), (where, name)
        assert a.tobytes() == b.tobytes(), (where, name)


def test_cases_cover_the_resume_and_the_tail():
    logs = {name: _kernel(f, c, z, ws, 64) for name, f, c, z, ws in CASES}
    alt = logs["direct"].vertex > 0
    assert alt.any() and (logs["direct"].reason == green._RANGE).any()
    three = logs["three"]
    assert set(three.vertex.tolist()) == {0, 1, 2}
    # alternates resume after 'range' ends at different steps
    assert len(set(three.switch_step[three.vertex > 0].tolist())) >= 2
    esc = logs["escape"]
    escaped_in_tail = (esc.reason == green._ESCAPED) & (esc.switch_step >= 0)
    assert len(set(esc.length[escaped_in_tail].tolist())) >= 3
    # z = 0 and w = 0 lanes
    assert (logs["direct_z0"].log_z[:, 0] == -math.inf).all()
    assert (logs["direct"].log_w[:, 0] == -math.inf).any()


@pytest.mark.parametrize("name,f,c,z,ws", CASES, ids=[case[0] for case in CASES])
def test_fiber_logs_equal_full_replays(monkeypatch, name, f, c, z, ws):
    for n_max in N_MAXES:
        lanes, scalar = _lane_replay(f, c, z, ws, n_max), _scalar_replay(f, c, z, ws, n_max)
        for chunk in (1024, 3):
            monkeypatch.setattr(green, "_CHUNK", chunk)
            got = _kernel(f, c, z, ws, n_max)
            _assert_same(got, lanes, (name, n_max, chunk, "lanes"))
            _assert_same(got, scalar, (name, n_max, chunk, "scalar"))
        monkeypatch.undo()


def test_tail_overflow_ends_range_before_the_step():
    # past step ~1020 the diving lanes' log|w| overflows to -inf; that step
    # is not recorded and the orbit ends as 'range' (not an exact zero)
    f, c, ws = ESCAPE, classify(ESCAPE), [1e-300 * (1 + 0.1 * k) for k in range(-5, 12)]
    got = _kernel(f, c, 0.5, ws, 1100)
    _assert_same(got, _scalar_replay(f, c, 0.5, ws, 1100), "overflow")
    dived = got.reason == green._RANGE
    assert dived.any() and (got.switch_step[dived] == 1).all()
    assert not (got.log_w == -math.inf).any()
