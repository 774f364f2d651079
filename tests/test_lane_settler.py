"""fiber._LaneSettler against the scalar green._Settler, push for push.

The lanes of one _LaneSettler receive their partials in lockstep.  After
every push each lane must be decided exactly where a _Settler fed the same
partials returns an estimate, with the same tag, value and residual, and
its finish must equal that _Settler's finish.  The sequences sit on the
edges of the rule: increments exactly at tol, decay ratios exactly 0.9,
runs of four, sign flips, NaN and infinite partials.
"""

import math
import random

import numpy as np
import pytest

from skewdyn import fiber, green

TOL = 2.0**-20   # increments built from it are exact, so ties at tol are real ties
NAN, INF = math.nan, math.inf


def _partials(start, incs):
    out = [start]
    for inc in incs:
        out.append(out[-1] + inc)
    return out


# each entry: partials, as lists of equal length after _pad
HAND = [
    _partials(1.0, [TOL, TOL / 2, TOL / 4]),            # a tie at tol, then converged
    _partials(1.0, [TOL, TOL, TOL, TOL]),               # ties only: never converged
    _partials(1.0, [TOL / 2, TOL, TOL / 2, TOL / 4]),
    _partials(0.0, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),     # divergent at the fifth increment
    _partials(0.0, [-10.0, -9.0, -10.0, -9.0, -10.0]),  # decay ratio exactly 0.9: divergent
    _partials(0.0, [10.0, 8.5, 10.0, 8.5, 10.0, 8.5, 10.0]),   # decays at 0.85: not divergent
    _partials(0.0, [1.0, 1.0, 1.0, 1.0, TOL / 2, TOL / 4]),   # a run of four
    _partials(0.0, [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]),   # sign flips
    _partials(0.0, [TOL] * 7),                          # at floor: no run either
    _partials(0.0, [1.0] * 9),                          # the run goes on past its decision
    [0.0, 1.0, NAN, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
    [NAN, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    [NAN, NAN, NAN],
    [0.0, 1.0, INF, INF, 1.0, 1.0 + TOL / 4, 1.0 + TOL / 2],
    [0.0, -INF, -INF, -INF],
    [INF, INF, INF, INF, INF, INF, INF],
    [0.0, 1.0, 2.0, 3.0, 4.0, INF],
    [0.0, INF],
    [5.0],
]


def _fuzzed(seed, count, length):
    """Partials whose increments mix the edges of the rule at random."""
    rng = random.Random(seed)
    seqs = []
    for _ in range(count):
        g, inc, seq = rng.choice([0.0, 1.0, -3.0]), 1.0, []
        for _ in range(length):
            kind = rng.randrange(12)
            if kind == 0:
                g = rng.choice([NAN, INF, -INF])
            elif kind == 1 and math.isfinite(g):
                inc = rng.choice([TOL, -TOL, TOL / 2, 0.0, 1e-14, 2e-14])
                g += inc
            else:
                inc = rng.choice([1.0, -1.0, 0.9, 0.85, 1.1, -0.9]) * (inc or 1.0)
                g = (g + inc) if math.isfinite(g) else rng.choice([0.0, 2.0])
            seq.append(g)
        seqs.append(seq)
    return seqs


def _pad(seqs):
    """Equal lengths for lockstep lanes: repeat each sequence's last partial."""
    length = max(len(s) for s in seqs)
    return [s + [s[-1]] * (length - len(s)) for s in seqs]


def _key(tag, value, residual):
    return tag, repr(float(value)), repr(float(residual))


def _est_key(est):
    return _key(est.termination, est.value, est.residual)


def _lane_keys(triple):
    tags, values, residuals = triple
    return [_key(fiber._TAGS[t], v, r) for t, v, r in zip(tags, values, residuals)]


def _check(seqs, tol, retire):
    """Push every sequence into its own _Settler and into one _LaneSettler, column by column.

    With retire, a lane leaves the _LaneSettler (keep) at its first
    decision, as the batched settles retire it; otherwise it goes on
    pushing as a lane whose decision is not read.
    """
    scalars = [green._Settler(tol) for _ in seqs]
    lanes = fiber._LaneSettler(len(seqs), tol)
    live = list(range(len(seqs)))
    for n in range(len(seqs[0])):
        with np.errstate(invalid="ignore"):   # inf - inf, as the batched settles allow
            decided = lanes.push(np.array([seqs[k][n] for k in live]), n)
            finals, finishes = _lane_keys(lanes.final()), _lane_keys(lanes.finish())
        for i, k in enumerate(live):
            est = scalars[k].push(seqs[k][n], n)
            where = f"sequence {seqs[k]!r}, push {n}, tol {tol!r}"
            assert bool(decided[i]) == (est is not None), where
            assert finishes[i] == _est_key(scalars[k].finish()), where
            # final is the decision where push decided, the finish elsewhere
            assert finals[i] == (finishes[i] if est is None else _est_key(est)), where
        if retire and decided.any():
            live = [k for k, x in zip(live, decided) if not x]
            lanes.keep(~decided)


@pytest.mark.parametrize("retire", [False, True])
@pytest.mark.parametrize("tol", [TOL, 1e-20])   # 1e-20 puts the run's floor at 1e-14, above tol
def test_hand_sequences(tol, retire):
    _check(_pad(HAND), tol, retire)
    for seq in HAND:
        _check([seq], tol, retire)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fuzzed_sequences(seed):
    seqs = _fuzzed(seed, 100, 14)
    for tol in (TOL, 1e-20):
        _check(seqs, tol, retire=False)
        _check(seqs, tol, retire=True)


def test_finish_without_partials():
    want = _est_key(green._Settler(TOL).finish())
    assert _lane_keys(fiber._LaneSettler(3, TOL).finish()) == [want] * 3
    assert want == ("budget", "nan", "inf")


@pytest.mark.parametrize("seed", [4, 5])
def test_masked_pushes_skip_their_lanes(seed):
    # a lane that a push leaves out (a transient zero w_n = 0) keeps its
    # state, as a _Settler that is not pushed; the first partial a lane
    # takes, at whatever step, makes no increment
    rng = random.Random(seed)
    seqs = _fuzzed(seed, 60, 14)
    takes = [[rng.random() < 0.7 for _ in seq] for seq in seqs]
    for tol in (TOL, 1e-20):
        scalars = [green._Settler(tol) for _ in seqs]
        lanes = fiber._LaneSettler(len(seqs), tol)
        for n in range(14):
            take = np.array([t[n] for t in takes])
            with np.errstate(invalid="ignore"):
                decided = lanes.push(np.array([s[n] for s in seqs]), n, take)
                finishes = _lane_keys(lanes.finish())
            for k, seq in enumerate(seqs):
                est = scalars[k].push(seq[n], n) if take[k] else None
                assert bool(decided[k]) == (est is not None), (seq, takes[k], n)
                assert finishes[k] == _est_key(scalars[k].finish()), (seq, takes[k], n)
                assert lanes.n[k] == (-1 if scalars[k].g is None else scalars[k].n)
