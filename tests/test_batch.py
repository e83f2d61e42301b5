"""The column path (``model.ArrayOps``) against the float path (``model.FLOAT_OPS``).

Every lane a column op or kernel leaves unmarked must carry the float
path's result bit for bit, and every lane where the float path raises must
be marked suspect.  Checked op by op on edge values, and for every search
objective on seeded and adversarial search vectors.
"""

import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import odd_squares, random_gains
from coopic import frontier, model, rxcoop
from coopic.model import FLOAT_OPS, ArrayOps, ChannelGains, EvaluatorError, PowerBudget

SQRT2 = math.sqrt(2.0)
EDGES = (0.0, -0.0, 5e-324, 1e-300, 1e-13, -1e-13, -1e-11, -1.0, 0.25, 1.0, 2.5, 512.0,
         512.5, 710.0, 1e100, 1e101, 1e200, 1e308, math.inf, -math.inf, math.nan)


def _bits(value) -> str:
    return float(value).hex()


def _check_op(name, *columns):
    """Column op ``name`` over the lanes of ``columns`` against the float op per lane."""
    size = len(columns[0])
    ops = ArrayOps(size)
    with np.errstate(all="ignore"):
        got = getattr(ops, name)(*(np.array(c, dtype=float) for c in columns))
    for i in range(size):
        try:
            want = getattr(FLOAT_OPS, name)(*(c[i] for c in columns))
        except Exception:  # noqa: BLE001 -- any raise of the float op must be marked
            assert ops.suspect[i], (name, [c[i] for c in columns])
            continue
        if ops.suspect[i]:
            continue
        pairs = zip(got, want) if isinstance(want, tuple) else [(got, want)]
        for column, value in pairs:
            assert _bits(np.broadcast_to(column, (size,))[i]) == _bits(value), \
                (name, [c[i] for c in columns])


def test_array_ops_match_float_ops():
    for name in ("cap", "log2", "exp2m1", "sqrt"):
        _check_op(name, EDGES)
    pairs = list(itertools.product(EDGES, repeat=2))
    a, b = [p[0] for p in pairs], [p[1] for p in pairs]
    for name in ("minimum", "maximum", "divide", "checked_pair"):
        _check_op(name, a, b)
    triples = list(itertools.product((0.0, 0.25, 1.0, 1e308, math.inf, -math.inf, math.nan),
                                     repeat=3))
    triples += list(itertools.product((0.0, -0.0, 0.25, -0.25), repeat=3))  # signed zeros
    triples += list(itertools.product((5e-324, -5e-324, 1e-310, -2.2250738585072014e-308),
                                      repeat=3))  # subnormals
    # half-ulp ties that a later or an earlier tiny term breaks, and magnitudes far apart
    for triple in ((1.0, 2.0 ** -53, 2.0 ** -106), (1.0, 2.0 ** -53, -2.0 ** -106),
                   (1.0, -2.0 ** -120, 3.0 * 2.0 ** -53), (1e300, 1.0, 1e-300),
                   (-1e300, 1.0, 1e-300), (1e300, -1e300, 1e-300)):
        triples += list(itertools.permutations(triple))
    _check_op("fsum3", *zip(*triples))
    for total in (0.0, 5.0, 1e8):
        ops = ArrayOps(len(pairs))
        with np.errstate(all="ignore"):
            got = ops.phase_power(np.array(a), total, np.array(b), "share")
        for i, (share, duration) in enumerate(pairs):
            try:
                want = FLOAT_OPS.phase_power(share, total, duration, "share")
            except EvaluatorError:
                assert ops.suspect[i]
                continue
            assert ops.suspect[i] or _bits(got[i]) == _bits(want)
    rng = np.random.default_rng(3)
    _check_fsum3_of_normalized_squares(*rng.standard_normal((3, 10 ** 5)) ** 2)
    entries = rng.standard_normal((3, 200)) * 10.0 ** rng.integers(-12, 3, (3, 200))
    for v0, v1 in ((1.0, 1.4), (0.0, 2.0), (1e8, 1e-8)):
        ops = ArrayOps(200)
        got = ops.quad(v0, v1, *entries)
        assert not ops.suspect.any()
        for i in range(200):
            assert _bits(got[i]) == _bits(FLOAT_OPS.quad(v0, v1, *entries[:, i]))


def test_array_ops_take_a_float_as_a_value_shared_by_every_lane(ref_gains, ref_powers):
    # A float argument is one value for every lane: the column op of a float
    # is the float op on each lane, and the marking ops mark as they do for
    # the same value in every lane (``~`` of a float comparison is ~True == -2)
    for name in ("cap", "log2", "exp2m1"):
        for x in EDGES:
            ops = ArrayOps(3)
            with np.errstate(all="ignore"):
                got = getattr(ops, name)(x)
            try:
                want = getattr(FLOAT_OPS, name)(x)
            except (EvaluatorError, ValueError):  # math.log2 raises ValueError
                assert ops.suspect.all(), (name, x)
                continue
            assert ops.suspect.tolist() in ([False] * 3, [True] * 3), (name, x)
            assert ops.suspect.all() or [_bits(v) for v in got.tolist()] == [_bits(want)] * 3, \
                (name, x)
    rng = np.random.default_rng(8)
    points = _vectors(frontier._SPACES["RC"], rng)
    with np.errstate(all="ignore"):
        a = frontier._decode(points.T, frontier._SPACES["RC"].blocks, ArrayOps(len(points)))
    c, pw = model.kernel_args(ref_gains, ref_powers)
    for w in (0.0, 0.5, 1.0, 2.0, math.inf, math.nan, -1.0):
        got, want = ArrayOps(len(points)), ArrayOps(len(points))
        with np.errstate(all="ignore"):
            pair = rxcoop.rc_kernel(c, pw, a, w, got)
            pair_want = rxcoop.rc_kernel(c, pw, a, np.full(len(points), w), want)
        assert got.suspect.tolist() == want.suspect.tolist(), w
        assert [r.tobytes() for r in pair] == [r.tobytes() for r in pair_want], w
        assert got.suspect.all() == (math.isnan(w) or w < 0.0), w


def _check_fsum3_of_normalized_squares(a, b, c):
    """fsum3 of 10^5 squares a, b, c normalized as ``_decode`` normalizes them,
    as columns and as (blocks, lanes) matrices: fsum's bits, no lane marked,
    and one NaN entry marks only its lane."""
    total = a + b + c
    a, b, c = a / total, b / total, c / total
    want = np.array([math.fsum(t) for t in zip(a.tolist(), b.tolist(), c.tolist())])
    ops = ArrayOps(10 ** 5)
    assert ops.fsum3(a, b, c).tobytes() == want.tobytes()
    assert not ops.suspect.any()
    ops = ArrayOps(25_000)
    c[2 * 25_000 + 7] = math.nan  # block 2 of lane 7
    with np.errstate(invalid="ignore"):
        got = ops.fsum3(*(v.reshape(4, 25_000) for v in (a, b, c)))
    assert ops.suspect.tolist() == [lane == 7 for lane in range(25_000)]
    got = got.ravel()
    assert got[:50_007].tobytes() == want[:50_007].tobytes()
    assert got[50_008:].tobytes() == want[50_008:].tobytes()


def _near_vertex_squares(rng, lanes):
    """(3, lanes) squares of search vectors near a simplex vertex: one entry 1
    and two from 1e-20 to 1e-8, in random positions; lane 0 is the block
    (3.1e-17, 0.99999999699, 3e-9), decoded by a TC-limit search."""
    squares = np.vstack([np.ones(lanes), 10.0 ** rng.uniform(-20.0, -8.0, (2, lanes))])
    squares = np.take_along_axis(squares, rng.permuted(np.tile(np.arange(3), (lanes, 1)),
                                                       axis=1).T, axis=0)
    squares[:, 0] = (3.1e-17, 0.99999999699, 3e-9)
    return squares


def test_column_decode_of_near_vertex_blocks_marks_no_lane():
    # A search that converges to a simplex vertex decodes blocks whose three
    # normalized squares sum with an inexact error term; fsum3 rounds that
    # term to odd, so the sum is still fsum's and no lane goes to the float
    # path.  Decoded as the TC limit's two 3-blocks, (blocks, lanes) matrices.
    rng = np.random.default_rng(41)
    squares = _near_vertex_squares(rng, 10 ** 5)
    _check_fsum3_of_normalized_squares(*squares)
    coords = np.sqrt(squares) * rng.choice((-1.0, 1.0), squares.shape)
    points = coords.T.reshape(-1, 6)
    ops = ArrayOps(len(points))
    got = frontier._decode(points.T, frontier._LIMIT.blocks, ops)
    assert not ops.suspect.any()
    want = [frontier._decode(x, frontier._LIMIT.blocks) for x in points.tolist()]
    for k, block in enumerate(got):
        assert np.array(block).T.tobytes() == np.array([w[k] for w in want]).tobytes()


def test_array_ops_branch_keeps_every_mark_and_rare_marks_only_its_lanes():
    ops = ArrayOps(5)
    cond = np.array([True, False, True, False, False])
    x = np.array([0.0, 0.0, 4.0, 1.0, 3.0])
    assert ops.rare(np.array([False, False, False, True, False])) is False
    bodies = (lambda v, o: (o.log2(v),), lambda v, o: (v * 2.0,))
    got = ops.branch(cond, *bodies)(x, ops)
    # both bodies run on every lane and every mark stays: lane 0 takes the
    # body whose log2(0) the float path raises on, and lane 1 does not take
    # it, yet is marked by it too (the float path re-scores it exactly)
    assert ops.suspect.tolist() == [True, True, False, True, False]
    # every unmarked lane carries the value of the body it takes
    for i in np.flatnonzero(~ops.suspect).tolist():
        want, = FLOAT_OPS.branch(bool(cond[i]), *bodies)(float(x[i]), FLOAT_OPS)
        assert _bits(got[0][i]) == _bits(want)
    assert FLOAT_OPS.branch(False, None, abs)(-3.0) == 3.0
    # rare_unless marks where its condition fails, a NaN comparison included
    ops = ArrayOps(3)
    with np.errstate(invalid="ignore"):
        assert ops.rare_unless(np.array([0.5, math.nan, 2.0]) <= 1.0) is False
    assert ops.suspect.tolist() == [False, True, True]
    assert FLOAT_OPS.rare_unless(math.nan <= 1.0) and not FLOAT_OPS.rare_unless(0.5 <= 1.0)
    # a (blocks, lanes) condition marks a lane where any block's holds (fails)
    ops = ArrayOps(3)
    ops.rare(np.array([[False, True, False], [False, False, False]]))
    assert ops.suspect.tolist() == [False, True, False]
    ops.rare_unless(np.array([[True, True, True], [True, True, False]]))
    assert ops.suspect.tolist() == [False, True, True]


def test_array_ops_select_picks_lanes_through_nested_tuples():
    ops = ArrayOps(4)
    cond = np.array([True, False, True, False])
    gains = np.array([1.5, 2.0, -0.0, 1.5])
    shared = np.ones(4)
    picked = ops.select(cond, ((gains, 7.0), shared, 2.0), ((3.0, shared), shared, 2.0))
    assert [[_bits(v) for v in column.tolist()] for column in picked[0]] == [
        [_bits(v) for v in (1.5, 3.0, -0.0, 3.0)], [_bits(v) for v in (7.0, 1.0, 7.0, 1.0)]]
    # an entry both sides share comes back as it is
    assert picked[1] is shared and picked[2] == 2.0
    assert ops.select(cond, gains, gains) is gains
    # a bool condition takes one side, as the float op does
    assert ops.select(False, 1.0, 2.0) == FLOAT_OPS.select(False, 1.0, 2.0) == 2.0
    assert ops.select(True, (gains,), (shared,))[0] is gains
    assert ops.branch(True, abs, None) is abs


# ---------------------------------------------------------------------------
# search objectives

WEIGHTS = (0.0, 0.5, 1.0, 2.0, math.inf)


def _vectors(space, rng) -> np.ndarray:
    """Seeded and adversarial search vectors of ``space``, one per row: draws
    at five scales, the corner starts, every block all zero, tiny, huge, NaN
    or infinite, and every coordinate alone zero (a zero-duration phase that
    may still carry power, or a silent share)."""
    blocks = space.blocks
    n = sum(blocks)
    rows = [rng.standard_normal(n) * scale for scale in (1e-3, 0.3, 1.0, 3.0, 1e3)
            for _ in range(24)]
    rows += [frontier._start_vector(0, 0, k, space) for k in range(len(space.corners))]
    lo = 0
    for size in blocks:
        for fill in (0.0, -0.0, 1e-160, 1e155, 1e200, math.nan, math.inf):
            x = rng.standard_normal(n)
            x[lo:lo + size] = fill
            rows.append(x)
        lo += size
    for i in range(n):
        x = rng.standard_normal(n)
        x[i] = 0.0
        rows.append(x)
        rows.append(np.where(np.arange(n) == i, 1.0, 0.0))
    return np.array(rows)


def _channels(scheme, ref_gains, ref_powers, rng):
    channels = [(ref_gains, ref_powers), (random_gains(rng), PowerBudget(3.0, 0.5, 0.0, 0.0)),
                (ChannelGains(0.0, 1.0, 0.0, 0.0, 1e8, 0.0), PowerBudget(1e8, 1e-9, 1e8, 0.0))]
    if scheme == "TC_inf":
        return [(dataclasses.replace(g, c12=math.inf), p) for g, p in channels]
    return channels


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_column_scores_match_float_scores(scheme, ref_gains, ref_powers):
    # Each unmarked lane of the column score has the float score's bits; the
    # float score raises only on marked lanes (TC_inf: both encoding orders).
    rng = np.random.default_rng(5)
    for g, p in _channels(scheme, ref_gains, ref_powers, rng):
        for space, score, _ in frontier._searches(scheme, g, p):
            points = _vectors(space, rng)
            for w in WEIGHTS:
                ops = ArrayOps(len(points))
                with np.errstate(all="ignore"):
                    r1, r2 = score(points.T, np.full(len(points), w), ops)
                for i, x in enumerate(points.tolist()):
                    try:
                        want = score(x, w)
                    except EvaluatorError:
                        assert ops.suspect[i], x
                        continue
                    if not ops.suspect[i]:
                        assert (_bits(r1[i]), _bits(r2[i])) == tuple(map(_bits, want)), x
                # seeded draws are rarely suspect: the column path does the work
                assert np.count_nonzero(ops.suspect[:120]) <= 12


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_batch_objective_matches_scalar_objective(scheme, ref_gains, ref_powers):
    # What the search sees: the same objective bits row by row (re-scored
    # suspects included) and the same penalties by error type.
    rng = np.random.default_rng(8)
    for g, p in _channels(scheme, ref_gains, ref_powers, rng):
        for space, score, _ in frontier._searches(scheme, g, p):
            points = _vectors(space, rng)
            runs = np.arange(len(points)) % len(WEIGHTS)
            batched, alone = Counter(), Counter()
            got = frontier._batch_objective([score] * len(WEIGHTS), WEIGHTS,
                                            [batched] * len(WEIGHTS))(runs, points)
            want = [frontier._neg_objective(score, WEIGHTS[k], alone)(x)
                    for k, x in zip(runs.tolist(), points.tolist())]
            assert got.tobytes() == np.array(want).tobytes()
            assert batched == alone and sum(alone.values()) > 0


@pytest.mark.parametrize("scheme", ["TC", "RC", "TC_inf"])
def test_batch_objective_counts_a_quiet_row_only_when_taken(scheme, ref_gains, ref_powers):
    # The last ``quiet`` rows give their objective bits but hold their
    # penalties; ``count(taken)`` counts those of the rows it marks, the
    # others never.  Over columns and, at 12 rows, on floats.
    rng = np.random.default_rng(9)
    g, p = _channels(scheme, ref_gains, ref_powers, rng)[0]
    space, score, _ = frontier._searches(scheme, g, p)[0]
    points = _vectors(space, rng)
    raises = np.array([frontier._neg_objective(score, 1.0, Counter())(x) == frontier._PENALTY
                       for x in points.tolist()])
    # 12 rows, alternately penalized and not, so both halves have penalties
    few = np.stack((points[raises][:6], points[~raises][:6]), axis=1).reshape(12, -1)
    for points in (points, few):
        runs = np.arange(len(points)) % len(WEIGHTS)
        quiet = len(points) // 2
        taken = rng.random(quiet) < 0.5
        counted = np.concatenate((np.ones(len(points) - quiet, dtype=bool), taken))
        batched, alone = Counter(), Counter()
        f = frontier._batch_objective([score] * len(WEIGHTS), WEIGHTS, [batched] * len(WEIGHTS))
        got = f(runs, points, quiet)
        f.count(taken)
        want = [frontier._neg_objective(score, WEIGHTS[k], alone if counted[i] else Counter())(x)
                for i, (k, x) in enumerate(zip(runs.tolist(), points.tolist()))]
        assert got.tobytes() == np.array(want).tobytes()
        assert batched == alone and sum(alone.values()) > 0
        skipped = Counter()
        for i, (k, x) in enumerate(zip(runs.tolist(), points.tolist())):
            if not counted[i]:
                frontier._neg_objective(score, WEIGHTS[k], skipped)(x)
        assert sum(skipped.values()) > 0  # some held penalty is never counted


def _lane_searches(scheme, rng):
    """Searches of one space on channels that together take both outcomes of
    every gain comparison the kernels select on: own > cross in each
    exchange phase, the user whose stream is clean in phase 3, and for TC
    the covariance rule (TC and RDPC lanes); one gain's ``x ** 2`` is not
    ``x * x`` (``odd_squares``)."""
    odd, = odd_squares(rng, 1)
    channels = [  # (c12, c13, c14, c23, c24, c34)
        (ChannelGains(10.0, 1.0, SQRT2, SQRT2, 1.0, 10.0), PowerBudget(5.0, 5.0, 5.0, 5.0)),
        (ChannelGains(3.0, 2.0, 0.5, 0.3, odd, 4.0), PowerBudget(3.0, 0.5, 2.0, 1.0)),
        (ChannelGains(odd, 0.4, 1.3, 0.7, 2.0, 0.2), PowerBudget(0.7, 9.0, 0.0, 4.0)),
        (random_gains(rng), PowerBudget(3.0, 0.5, 0.0, 0.0)),
    ]
    gains = [g for g, _ in channels]
    assert {g.c13 > g.c14 for g in gains} == {g.c24 > g.c23 for g in gains} == {True, False}
    assert {g.c13 + g.c23 > g.c14 + g.c24 for g in gains} == {True, False}
    if scheme == "TC_inf":
        channels = [(dataclasses.replace(g, c12=math.inf), p) for g, p in channels]
    schemes = ("TC", "RDPC") if scheme == "TC" else (scheme,)
    return [search for g, p in channels for s in schemes for search in frontier._searches(s, g, p)]


def _column_call(searches, points):
    """One column kernel call over the rows of ``points``, lane i scored by
    search i mod len(searches) at WEIGHTS[i mod len(WEIGHTS)], whose gains
    and powers are lane columns: (ops, r1, r2, lane scores, lane weights)."""
    space = searches[0][0]
    scores = [score for _, score, _ in searches]
    index = np.arange(len(points)) % len(scores)
    weights = np.array(WEIGHTS)[np.arange(len(points)) % len(WEIGHTS)]
    c, pw, variant = frontier._lane_inputs(scores)(index)
    assert all(isinstance(v, np.ndarray) for v in (*c[1:5], *pw[:2]))
    ops = ArrayOps(len(points))
    with np.errstate(all="ignore"):
        r1, r2 = space.kernel(c, pw, frontier._decode(points.T, space.blocks, ops), variant,
                              weights, ops)
    return ops, r1, r2, [scores[k] for k in index.tolist()], weights


@pytest.mark.parametrize("scheme", ["TC", "RC", "TC_inf"])
def test_lanes_from_different_channels_match_float_scores(scheme):
    # One column call over lanes of several channels (and TC/RDPC rules, or
    # both encoding orders): each unmarked lane has its own float score's
    # bits, and the float score raises only on marked lanes.
    rng = np.random.default_rng(21)
    searches = _lane_searches(scheme, rng)
    points = _vectors(searches[0][0], rng)
    ops, r1, r2, scores, weights = _column_call(searches, points)
    for i, x in enumerate(points.tolist()):
        try:
            want = scores[i](x, weights[i])
        except EvaluatorError:
            assert ops.suspect[i], (i, x)
            continue
        if not ops.suspect[i]:
            assert (_bits(r1[i]), _bits(r2[i])) == tuple(map(_bits, want)), (i, x)
    assert np.count_nonzero(ops.suspect[:120]) <= 12


@pytest.mark.parametrize("scheme", ["TC", "RC", "TC_inf"])
def test_column_kernels_mark_no_interior_lane(scheme):
    # A column ``ops.branch`` runs both bodies on every lane and keeps their
    # marks, so a body that marked lanes it does not serve would send them
    # to the float path.  On interior search vectors (every share well away
    # from zero) of mixed channels and variants, at every weight, one column
    # kernel call marks no lane.
    rng = np.random.default_rng(23)
    searches = _lane_searches(scheme, rng)
    shape = (600 * len(WEIGHTS), sum(searches[0][0].blocks))
    points = rng.uniform(0.5, 2.0, shape) * rng.choice((-1.0, 1.0), shape)
    ops = _column_call(searches, points)[0]
    assert np.count_nonzero(ops.suspect) == 0


@pytest.mark.parametrize("scheme", ["TC", "RC", "TC_inf"])
def test_batch_objective_over_several_searches_matches_scalar_objective(scheme):
    # Runs of several searches in one batch: each row's objective bits, and
    # each search's penalty counts, equal its own scalar objective's.
    rng = np.random.default_rng(22)
    searches = _lane_searches(scheme, rng)
    runs_of = list(itertools.product(range(len(searches)), WEIGHTS))
    points = _vectors(searches[0][0], rng)
    runs = np.arange(len(points)) % len(runs_of)
    batched = [Counter() for _ in searches]
    alone = [Counter() for _ in searches]
    f = frontier._batch_objective([searches[k][1] for k, _ in runs_of], [w for _, w in runs_of],
                                  [batched[k] for k, _ in runs_of])
    got = f(runs, points)
    want = [frontier._neg_objective(searches[runs_of[r][0]][1], runs_of[r][1],
                                    alone[runs_of[r][0]])(x)
            for r, x in zip(runs.tolist(), points.tolist())]
    assert got.tobytes() == np.array(want).tobytes()
    assert batched == alone and sum(sum(c.values()) for c in alone) > 0


def test_batch_objective_first_simplex_stays_lean_in_memory(ref_gains, ref_powers):
    # The first batch of a region trace's TC and RDPC lockstep: 176 runs (11
    # weights x 8 restarts x 2 searches) x 18 initial vertices = 3,168 lanes.
    # The decode gathers the batch once and works in place on that copy, so
    # it peaks under 1 MB and one call (decode and kernel) under 1.25 MB.
    weights = frontier.default_weights(9)
    runs_of = [(score, w, frontier._start_vector(0, k, r, space))
               for scheme in ("TC", "RDPC")
               for space, score, _ in frontier._searches(scheme, ref_gains, ref_powers)
               for k, w in enumerate(weights) for r in range(8)]
    scores, run_weights, x0 = zip(*runs_of)
    points = np.concatenate([frontier._initial_simplex(x) for x in x0])
    assert points.shape == (3168, 17)
    runs = np.repeat(np.arange(len(runs_of)), 18)
    f = frontier._batch_objective(scores, run_weights, [Counter() for _ in runs_of])
    want = f(runs, points)

    def peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ops = ArrayOps(len(points))
    assert peak(lambda: frontier._decode(points.T, frontier._TC.blocks, ops))[1] < 2 ** 20
    got, call_peak = peak(lambda: f(runs, points))
    assert got.tobytes() == want.tobytes()
    assert call_peak < 1.25 * 2 ** 20


def _column_decode_digest() -> str:
    """SHA-256 of every search space's column decode of ``_vectors`` and of
    ``fsum3`` over edge triples and near-vertex blocks (whose error terms
    are rounded to odd): the marks and each unmarked lane's bytes (a marked
    lane's value is arbitrary, and a NaN's sign bit may differ)."""
    digest = hashlib.sha256()
    rng = np.random.default_rng(31)
    values = (0.0, -0.0, 5e-324, 1e-310, 2.0 ** -106, 2.0 ** -53, 0.25, 1.0, 1e300, math.nan)
    triples = np.array(list(itertools.product(values + tuple(-v for v in values), repeat=3)))
    near = _near_vertex_squares(np.random.default_rng(41), 2000)
    triples = np.vstack([triples, (near / near.sum(axis=0)).T])
    for space in (frontier._TC, frontier._RC, frontier._LIMIT, None):
        points = triples if space is None else _vectors(space, rng)
        ops = ArrayOps(len(points))
        with np.errstate(all="ignore"):
            columns = ([[ops.fsum3(*points.T)]] if space is None
                       else frontier._decode(points.T, space.blocks, ops))
        digest.update(ops.suspect.tobytes())
        for weights in itertools.chain.from_iterable(columns):
            digest.update(np.where(ops.suspect, 0.0, weights).tobytes())
    return digest.hexdigest()


_DECODE_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import test_batch
print(test_batch._column_decode_digest())
"""


def test_column_decode_does_not_depend_on_numpy_cpu_dispatch():
    # The column decode and fsum3 use only correctly rounded arithmetic,
    # comparisons, reductions and integer steps of a float's bits (fsum3's
    # rounding to odd), so they give the same bytes with every SIMD
    # target numpy dispatches on this host switched off (in the child only).
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    present = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not present:
        pytest.skip("numpy dispatches no CPU feature on this host")
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(frontier.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    plain = subprocess.run([sys.executable, "-c", _DECODE_PROBE, tests], env=env,
                           capture_output=True, text=True, check=True)
    lowered = subprocess.run([sys.executable, "-c", _DECODE_PROBE, tests], capture_output=True,
                             text=True, env={**env, "NPY_DISABLE_CPU_FEATURES": " ".join(present)})
    if lowered.returncode != 0:
        pytest.skip(f"the interpreter with {present} disabled cannot start: {lowered.stderr}")
    assert plain.stdout == lowered.stdout == _column_decode_digest() + "\n"
