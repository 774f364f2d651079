"""The direct-orbit lane kernel against full replays of every vertex.

fiber._LaneOrbits runs a batch of lanes one column of steps at a time:
it resumes an alternate vertex at the step where the primary orbit
ended 'range', and steps every switched lane by its log recursion in the
same loop.  Its column stream, drained with no settle attached and
rebuilt into per-lane rows, must equal, field by field and byte by byte
(so NaN and the sign of zero count), the orbits of a full replay that
runs each vertex from step 0 and takes the longer orbit where one
exists: once with the lane kernel itself, once with the scalar
orbit_logs.
"""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from skewdyn import BiPoly, SkewProduct, UniPoly, classify
from skewdyn import fiber, green
from skewdyn.newton import newton_polygon

FIELDS = ("log_z", "log_w", "length", "reason", "switch_step", "switch_eta", "vertex")
REASONS = {"complete": fiber._COMPLETE, "escaped": fiber._ESCAPED, "range": fiber._RANGE}

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


def _logs(lanes, n_max):
    """Per-lane rows of FIELDS: steps 0..length-1 of log_z and log_w, then NaN."""
    width = n_max + 1
    return SimpleNamespace(log_z=np.full((lanes, width), math.nan),
                           log_w=np.full((lanes, width), math.nan), length=np.ones(lanes, int),
                           reason=np.zeros(lanes, np.int8), switch_step=np.full(lanes, -1),
                           switch_eta=np.zeros(lanes), vertex=np.zeros(lanes, int))


def _stack(orbits, n_max):
    """The rows of per-lane orbits (steps, reason, switch_step, switch_eta, vertex)."""
    out = _logs(len(orbits), n_max)
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


def _drain(orbits, n_max):
    """The rows of a _LaneOrbits batch, its columns read to the end with none retired."""
    out = _logs(orbits.ws.size, n_max)
    with np.errstate(all="ignore"):
        for n, live, lz, lw in orbits:
            out.log_z[live, n], out.log_w[live, n], out.length[live] = lz, lw, n + 1
    for name in FIELDS[3:]:
        setattr(out, name, getattr(orbits, name))
    return out


def _lane_replay(f, c, z, ws, n_max):
    """Every vertex's _LaneOrbits from step 0, alone; the longer wins a 'range' end."""
    lanes = np.array(ws, dtype=complex)
    best = _drain(fiber._LaneOrbits(f, [c.primary.vertex], z, lanes, n_max), n_max)
    retry = np.flatnonzero(best.reason == fiber._RANGE)
    for t in range(1, len(c.terms)):
        other = _drain(fiber._LaneOrbits(f, [c.terms[t].vertex], z, lanes[retry], n_max), n_max)
        longer = other.length > best.length[retry]
        rows = retry[longer]
        for name in FIELDS[:-1]:
            getattr(best, name)[rows] = getattr(other, name)[longer]
        best.vertex[rows] = t
    return best


def _kernel(f, c, z, ws, n_max):
    """The rows of one _LaneOrbits over all lanes with the classification's vertices."""
    vertices = [term.vertex for term in c.terms]
    return _drain(fiber._LaneOrbits(f, vertices, z, np.array(ws, dtype=complex), n_max), n_max)


def _assert_same(got, want, where):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), (where, name)
        assert a.tobytes() == b.tobytes(), (where, name)


def test_cases_cover_the_resume_and_the_tail():
    logs = {name: _kernel(f, c, z, ws, 64) for name, f, c, z, ws in CASES}
    alt = logs["direct"].vertex > 0
    assert alt.any() and (logs["direct"].reason == fiber._RANGE).any()
    three = logs["three"]
    assert set(three.vertex.tolist()) == {0, 1, 2}
    # alternates resume after 'range' ends at different steps
    assert len(set(three.switch_step[three.vertex > 0].tolist())) >= 2
    esc = logs["escape"]
    escaped_in_tail = (esc.reason == fiber._ESCAPED) & (esc.switch_step >= 0)
    assert len(set(esc.length[escaped_in_tail].tolist())) >= 3
    # z = 0 and w = 0 lanes
    assert (logs["direct_z0"].log_z[:, 0] == -math.inf).all()
    assert (logs["direct"].log_w[:, 0] == -math.inf).any()


@pytest.mark.parametrize("name,f,c,z,ws", CASES, ids=[case[0] for case in CASES])
def test_fiber_logs_equal_full_replays(name, f, c, z, ws):
    for n_max in N_MAXES:
        lanes, scalar = _lane_replay(f, c, z, ws, n_max), _scalar_replay(f, c, z, ws, n_max)
        got = _kernel(f, c, z, ws, n_max)
        _assert_same(got, lanes, (name, n_max, "lanes"))
        _assert_same(got, scalar, (name, n_max, "scalar"))


def test_tail_overflow_ends_range_before_the_step():
    # past step ~1020 the diving lanes' log|w| overflows to -inf; that step
    # is not recorded and the orbit ends as 'range' (not an exact zero)
    f, c, ws = ESCAPE, classify(ESCAPE), [1e-300 * (1 + 0.1 * k) for k in range(-5, 12)]
    got = _kernel(f, c, 0.5, ws, 1100)
    _assert_same(got, _scalar_replay(f, c, 0.5, ws, 1100), "overflow")
    dived = got.reason == fiber._RANGE
    assert dived.any() and (got.switch_step[dived] == 1).all()
    assert not (got.log_w == -math.inf).any()


# the fiber_direct render: a 24 x 24 window of width 1 around w = 0 over z near 0.5
FIBER_Z, FIBER_WS = 0.5 + 0.004j, _grid(0.01 - 0.01j, 1.0, 24)


@pytest.fixture
def columns(monkeypatch):
    """The number of columns each _LaneOrbits batch yields, in batch order."""
    counts = []
    iterate = fiber._LaneOrbits.__iter__

    def counted(self):
        counts.append(0)
        for column in iterate(self):
            counts[-1] += 1
            yield column

    monkeypatch.setattr(fiber._LaneOrbits, "__iter__", counted)
    return counts


@pytest.mark.parametrize("key", ["Gza", "Gzi", "Gz"])
def test_lanes_compute_no_step_past_their_last_settled_pixel(columns, key):
    # the lane twin of test_estimator_computes_no_step_past_its_exit: lanes
    # retire once settled, and the loop stops when none is left
    c = classify(DIRECT)
    used = fiber.fiber_sample(DIRECT, c, key, FIBER_Z, FIBER_WS, 64).columns[1]
    assert columns == [used.max() + 1], key
    assert used.max() < 20   # of the 65 columns at n_max 64


def test_lane_memory_does_not_grow_with_the_budget():
    # no step history: a G_f render peaks alike at n_max 64 and 3000
    c = classify(DIRECT)
    fiber.fiber_sample(DIRECT, c, "Gf", FIBER_Z, FIBER_WS, 64)   # loads what a first call loads
    peaks = []
    for n_max in (64, 3000):
        tracemalloc.start()
        try:
            fiber.fiber_sample(DIRECT, c, "Gf", FIBER_Z, FIBER_WS, n_max)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks
