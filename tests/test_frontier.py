"""Frontier tracing, hull geometry, region comparison."""

import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import re
import signal
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import odd_squares, random_gains, random_powers, tie_heavy_points
from coopic.model import (ChannelGains, EvaluatorError, InfiniteGain, InvalidAllocation,
                          NotInfinite, PowerBudget)
from coopic import frontier, model, txcoop, rxcoop

SQRT2 = math.sqrt(2.0)

FAST = frontier.TraceOptions(weights=frontier.default_weights(5),
                             restarts=3, max_iter=120, seed=0)


# ---------------------------------------------------------------------------
# hull


def test_hull_segment_endpoints():
    assert frontier.hull([(1.0, 0.0), (0.0, 1.0)]) == [(1.0, 0.0), (0.0, 1.0)]


def test_hull_drops_timeshared_interior():
    verts = frontier.hull([(1.0, 0.0), (0.0, 1.0), (0.4, 0.4)])
    assert verts == [(1.0, 0.0), (0.0, 1.0)]
    kept = frontier.hull([(1.0, 0.0), (0.0, 1.0), (0.8, 0.8)])
    assert (0.8, 0.8) in kept


def test_hull_collinear_and_duplicates_removed():
    pts = [(2.0, 0.0), (1.0, 1.0), (0.0, 2.0), (1.0, 1.0), (0.5, 1.5)]
    assert frontier.hull(pts) == [(2.0, 0.0), (0.0, 2.0)]


def test_hull_dominated_points_removed():
    assert frontier.hull([(1.0, 1.0), (0.5, 0.5), (1.0, 0.2)]) == [(1.0, 1.0)]


def test_hull_permutation_stable_and_idempotent():
    rng = np.random.default_rng(3)
    pts = [(float(x), float(y)) for x, y in rng.uniform(0, 5, size=(60, 2))]
    base = frontier.hull(pts)
    for _ in range(5):
        rng.shuffle(pts)
        assert frontier.hull(pts) == base
    assert frontier.hull(base) == base


def test_hull_vertices_dominate_themselves():
    # A region contains its own vertices exactly: the ceiling at a vertex
    # abscissa is that vertex's ordinate, not an interpolation rounded below.
    rng = np.random.default_rng(12)
    for _ in range(2000):
        h = frontier.hull([tuple(q) for q in rng.uniform(0.0, 5.0, size=(30, 2))])
        assert frontier.dominates(h, h, 0.0)


def test_hull_degenerate_single_point():
    assert frontier.hull([(0.0, 0.0), (0.0, 0.0)]) == [(0.0, 0.0)]
    assert frontier.hull([(2.0, 3.0)]) == [(2.0, 3.0)]


def _dict_hull(points):
    """``hull`` as it was written on floats, the reference for its array form:
    a dict of the largest ordinate per abscissa, a strictly rising scan from
    the largest abscissa, and the monotone chain."""
    points = list(points)
    for x, y in points:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite rate point ({x}, {y})")
    best_y = {}
    for x, y in points:
        x, y = max(float(x), 0.0), max(float(y), 0.0)
        if x not in best_y or y > best_y[x]:
            best_y[x] = y
    if not best_y:
        return [(0.0, 0.0)]
    pareto, top = [], -math.inf
    for x in sorted(best_y, reverse=True):
        if best_y[x] > top:
            pareto.append((x, best_y[x]))
            top = best_y[x]
    pareto.reverse()
    if len(pareto) <= 2:
        return pareto[::-1]
    span_x = pareto[-1][0] - pareto[0][0]
    span_y = pareto[0][1] - pareto[-1][1]
    cross_tol = 1e-9 * max(1e-30, span_x * span_y)
    chain = []
    for pt in pareto:
        chain.append(pt)
        while len(chain) >= 3:
            (xa, ya), (xb, yb), (xc, yc) = chain[-3], chain[-2], chain[-1]
            if (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa) >= -cross_tol:
                chain.pop(-2)
            else:
                break
    chain.reverse()
    return chain


@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 100, 1000, 5000])
def test_hull_equals_the_dict_hull(n):
    # The array Pareto stage keeps the dict's choices: a +-0.0 abscissa keeps
    # its first key, an abscissa its first largest ordinate, and the chain
    # pops the same collinear points.  Compared by repr, so -0.0 counts.
    rng = np.random.default_rng(n)
    for points in (tie_heavy_points(rng, n),
                   [tuple(q) for q in rng.uniform(0.0, 5.0, size=(n, 2)).tolist()],
                   [tuple(q) for q in (rng.integers(-2, 6, size=(n, 2)) / 2.0).tolist()]):
        want = repr(_dict_hull(points))
        assert repr(frontier.hull(points)) == want
        assert repr(frontier.hull(np.array(points).reshape(-1, 2))) == want
    assert repr(frontier.hull([(-0.0, 1.0), (0.0, 2.0)])) == "[(-0.0, 2.0)]"
    assert repr(frontier.hull([(1.0, 0.0), (2.0, -0.0)])) == "[(2.0, -0.0)]"


_COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.0, 2.0]),
                         st.floats(-1.0, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_COORDINATES, _COORDINATES), max_size=60))
def test_hull_equals_the_dict_hull_on_any_points(points):
    assert repr(frontier.hull(points)) == repr(_dict_hull(points))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hull_names_the_first_non_finite_point(bad):
    points = [(1.0, 0.0), (0.5, bad), (bad, 2.0), (0.0, 1.0)]
    with pytest.raises(ValueError) as want:
        _dict_hull(points)
    with pytest.raises(ValueError, match="non-finite rate point") as got:
        frontier.hull(points)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as got:
        frontier.hull(np.array(points))
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# region predicates


def test_dominates_basic():
    a = [(2.0, 1.0)]
    assert frontier.dominates(a, a, 0.0)
    assert frontier.dominates(a, [(1.0, 1.0)], 0.0)
    assert not frontier.dominates([(0.0, 0.0)], [(1.0, 0.0)], 0.0)
    assert frontier.dominates([(0.0, 0.0)], [(1.0, 0.0)], 1.0)
    # a vertical frontier edge at r1 = 2 holds its top point
    assert frontier.dominates([(2.0, 0.0), (2.0, 1.0), (0.0, 1.0)], [(2.0, 1.0)])
    assert not frontier.dominates([(1.0, 1.0)], [(-1.0, 0.5)])


def test_dominates_interpolates_chain():
    chain = [(2.0, 0.0), (1.0, 1.5), (0.0, 2.0)]
    assert frontier.dominates(chain, [(1.5, 0.7)], 0.0)
    assert not frontier.dominates(chain, [(1.5, 0.8)], 0.0)


def test_region_deviation_and_hausdorff():
    a = [(2.0, 2.0)]  # square region
    b = [(3.0, 2.0)]  # wider rectangle
    assert frontier.region_deviation(a, b) == 0.0
    assert frontier.region_deviation(b, a) == pytest.approx(1.0, rel=1e-12)
    assert frontier.hausdorff(a, b) == pytest.approx(1.0, rel=1e-12)
    assert frontier.hausdorff(a, a) == 0.0
    # the one-point region (0, 0) has a polygon edge of zero length
    assert frontier.region_deviation([(3.0, 4.0)], [(0.0, 0.0)]) == 5.0


def test_equal_rate_value():
    assert frontier.equal_rate_value([(2.0, 0.0), (0.0, 2.0)]) == pytest.approx(1.0, abs=1e-9)
    assert frontier.equal_rate_value([(3.0, 1.0)]) == pytest.approx(1.0, abs=1e-9)


def _random_hulls(seed, count):
    """``count`` seeded random hulls of 1 to 40 vertices: uniform points, points
    on an arc (every one a vertex) and points crowded toward the axes."""
    rng = np.random.default_rng(seed)
    hulls = []
    for k in range(count):
        n = int(rng.integers(1, 41))
        if k % 3 == 0:
            pts = rng.uniform(0.0, 5.0, size=(n, 2))
        elif k % 3 == 1:
            t = rng.uniform(0.0, math.pi / 2, size=n)
            pts = np.c_[rng.uniform(0.5, 5.0) * np.cos(t), rng.uniform(0.5, 5.0) * np.sin(t)]
        else:
            pts = rng.uniform(0.0, 5.0, size=(n, 2)) ** 2 / 5.0
        hulls.append(frontier.hull([(float(x), float(y)) for x, y in pts]))
    return hulls


def _polygon(vertices_desc):
    """The region's boundary, counterclockwise: origin, reach, frontier, top."""
    (x0, _), (_, yk) = vertices_desc[0], vertices_desc[-1]
    return [(0.0, 0.0), (x0, 0.0), *vertices_desc, (0.0, yk)]


def _segment_distance(p, a, b):
    (px, py), (ax, ay), (bx, by) = p, a, b
    dx, dy = bx - ax, by - ay
    norm2 = dx * dx + dy * dy
    t = 0.0 if norm2 == 0.0 else min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / norm2))
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def _reference_distance(p, vertices_desc):
    """Distance from p to the region: 0 inside its polygon (every edge turns
    left to p), else the nearest of its edges' projections."""
    poly = _polygon(vertices_desc)
    edges = list(zip(poly, poly[1:] + poly[:1]))
    area = sum(ax * by - bx * ay for (ax, ay), (bx, by) in edges)
    if area > 0.0 and all((bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) >= 0.0
                          for (ax, ay), (bx, by) in edges):
        return 0.0
    return min(_segment_distance(p, a, b) for a, b in edges)


def _reference_deviation(va, vb):
    # the distance to a convex region is convex, so its maximum is at a vertex
    return max(_reference_distance(p, vb) for p in _polygon(va))


def _reference_equal_rate(vertices_desc):
    """Where the diagonal r1 = r2 crosses the boundary from the reach to the top."""
    chain = _polygon(vertices_desc)[1:]
    for (xa, ya), (xb, yb) in zip(chain, chain[1:]):
        fa, fb = xa - ya, xb - yb
        if fa >= 0.0 >= fb:
            return xa if fa == fb else xa + fa / (fa - fb) * (xb - xa)
    raise AssertionError("the boundary runs from r1 >= r2 to r1 <= r2")


def test_region_geometry_matches_reference():
    hulls = _random_hulls(26, 400)
    for a, b in zip(hulls[::2], hulls[1::2]):
        for x, y in ((a, b), (b, a)):
            assert frontier.region_deviation(x, y) == pytest.approx(
                _reference_deviation(x, y), rel=0.0, abs=1e-12)
        assert frontier.equal_rate_value(a) == pytest.approx(
            _reference_equal_rate(a), rel=0.0, abs=1e-12)


def test_region_deviation_is_exactly_zero_on_shared_vertices():
    rng = np.random.default_rng(27)
    for b in _random_hulls(28, 300):
        a = [v for v in b if rng.random() < 0.5] or b[:1]
        assert frontier.region_deviation(b, b) == 0.0
        assert frontier.hausdorff(b, b) == 0.0
        assert frontier.region_deviation(a, b) == 0.0


def test_region_geometry_is_order_free():
    rng = np.random.default_rng(29)
    hulls = _random_hulls(30, 60)
    points = [(float(x), float(y)) for x, y in rng.uniform(-0.5, 5.5, size=(40, 2))]
    for a, b in zip(hulls[::2], hulls[1::2]):
        shuffled = list(a)
        rng.shuffle(shuffled)
        for other in (a[::-1], shuffled):
            assert frontier.region_deviation(other, b) == frontier.region_deviation(a, b)
            assert frontier.region_deviation(b, other) == frontier.region_deviation(b, a)
            assert frontier.hausdorff(other, b) == frontier.hausdorff(a, b)
            assert frontier.equal_rate_value(other) == frontier.equal_rate_value(a)
            assert frontier.dominates(other, a)
            assert [frontier.dominates(other, [p]) for p in points] == \
                [frontier.dominates(a, [p]) for p in points]
    # a frontier given r1 ascending used to have equal-rate value 0
    assert frontier.equal_rate_value([(0.0, 2.0), (1.5, 1.5), (2.0, 0.0)]) == 1.5


def test_empty_region_is_the_origin():
    a = [(3.0, 0.0), (2.0, 2.0), (0.0, 3.0)]
    assert frontier.region_deviation([], a) == 0.0  # used to raise IndexError
    assert frontier.region_deviation(a, []) == frontier.region_deviation(a, [(0.0, 0.0)]) == 3.0
    assert frontier.hausdorff([], a) == 3.0
    assert frontier.equal_rate_value([]) == 0.0
    assert frontier.dominates([], [(0.0, 0.0)]) and frontier.dominates(a, [])
    assert not frontier.dominates([], [(0.1, 0.0)])


def test_region_geometry_rejects_non_finite_vertices():
    # NaN fails every comparison: unchecked, a NaN vertex would pass as inside, at distance 0
    tc = [(3.0, 0.0), (2.0, 2.0), (0.0, 3.0)]
    for call in (lambda: frontier.dominates(tc, [(math.nan, 0.0)]),
                 lambda: frontier.region_deviation([(math.nan, 1.0)], tc),
                 lambda: frontier.region_deviation(tc, [(math.nan, 1.0)]),
                 lambda: frontier.hausdorff([(math.nan, math.nan)], tc),
                 lambda: frontier.equal_rate_value([(math.nan, 1.0)])):
        with pytest.raises(ValueError, match="^non-finite rate point"):
            call()


# ---------------------------------------------------------------------------
# reparameterization


def test_allocation_from_vector_blocks():
    x = [1.0] * 17
    a = frontier.tc_allocation_from_vector(x)
    assert tuple(a.lam) == pytest.approx((1 / 3, 1 / 3, 1 / 3), rel=1e-12)
    assert tuple(a.kappa) == pytest.approx((0.5, 0.5), rel=1e-12)
    corner = frontier.tc_allocation_from_vector(
        (0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
    assert tuple(corner.lam) == (0.0, 0.0, 1.0)
    assert tuple(corner.kappa) == (0.0, 1.0)
    rc = frontier.rc_allocation_from_vector([2.0] * 13)
    assert tuple(rc.alpha) == pytest.approx((0.5, 0.5), rel=1e-12)
    with pytest.raises(ValueError):
        frontier.tc_allocation_from_vector([1.0] * 5)


def test_zero_vector_maps_to_uniform_simplexes():
    a = frontier.tc_allocation_from_vector([0.0] * 17)
    assert tuple(a.lam) == pytest.approx((1 / 3, 1 / 3, 1 / 3), rel=1e-12)
    assert tuple(a.alpha) == pytest.approx((0.5, 0.5), rel=1e-12)


def test_random_vectors_yield_valid_allocations():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a = frontier.tc_allocation_from_vector(rng.standard_normal(17))
        for block in (a.lam, a.kappa, a.gamma, a.alpha, a.beta, a.mu, a.eta):
            weights = list(block)
            assert all(w >= 0 for w in weights)
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)


def _outcome(fn):
    """(r1, r2), or the EvaluatorError subclass that fn raised."""
    try:
        r1, r2 = fn()
    except EvaluatorError as exc:
        return type(exc)
    return (r1, r2)


def _search_vector(rng, dim):
    x = rng.standard_normal(dim)
    x[rng.random(dim) < 0.15] = 0.0  # zero blocks and zero-duration phases
    return x


# Search vectors are also scaled to extremes: at 1e-150 a block's squares can
# sum below the 1e-300 floor (the uniform block), at 1e-160 they underflow,
# and at 1e160 they overflow, which the decoders reject as InvalidAllocation.
_SCALES = (1.0, 1e150, 1e-150, 1e160, 1e-160)


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_search_objective_matches_public_rate_pair(scheme):
    # Each search scores its evaluations with a float kernel; its revalidate,
    # the public decode plus rate pair that the trace calls, must give exactly
    # the same floats, or raise the same EvaluatorError subclass.
    rng = np.random.default_rng(55)
    outcomes = {scale: set() for scale in _SCALES}
    weights = (0.0, 1.0, 2.5, math.inf) if scheme == "RC" else (1.0,)  # only RC reads it
    for _ in range(1500):
        g, p = random_gains(rng), random_powers(rng)
        if scheme == "TC_inf":
            g = dataclasses.replace(g, c12=math.inf)
        searches = frontier._searches(scheme, g, p)
        x0 = _search_vector(rng, sum(searches[0][0].blocks))
        for (_, score, revalidate), scale, w in itertools.product(searches, _SCALES, weights):
            x = x0 * scale
            want = _outcome(lambda: revalidate(x, w)[:2])
            assert _outcome(lambda: score(x.tolist(), w)) == want
            outcomes[scale].add(want if isinstance(want, type) else tuple)
    assert tuple in outcomes[1.0]
    if scheme != "TC_inf":  # zeroed coordinates reach the error paths
        assert len(outcomes[1.0]) >= 2
    assert tuple in outcomes[1e-160]  # underflowed blocks decode to uniform shares
    assert outcomes[1e160] == {InvalidAllocation}  # overflowed squares


def _decoded(decode):
    """The hex of each decoded weight, block by block, or InvalidAllocation."""
    try:
        return [[w.hex() for w in block] for block in decode()]
    except InvalidAllocation:
        return InvalidAllocation


def _constructed(x, space):
    """The simplices the constructors build from each block's squares,
    x_i^2 / sum(x^2) (uniform when the squares sum below 1e-300)."""
    out, i = [], 0
    for simplex, n in zip(space.simplices, space.blocks):
        squares = [v * v for v in x[i:i + n]]
        total = 0.0
        for w in squares:  # left to right, as the decode adds them
            total += w
        out.append(simplex(*([1.0 / n] * n if total < 1e-300
                             else [w / total for w in squares])))
        i += n
    return out


@pytest.mark.parametrize("space", ["_TC", "_RC", "_LIMIT"])
def test_decode_matches_public_simplices(space):
    # The one decode gives bit for bit the weights that Simplex2/Simplex3
    # store when built from each block's squares, and raises where they
    # reject a block; the public decoder stores exactly those weights.
    space = getattr(frontier, space)
    blocks, dim = space.blocks, sum(space.blocks)
    rng = np.random.default_rng(18)
    vectors = [_search_vector(rng, dim) * scale
               for scale in (1.0, 1e-160, 1e160) for _ in range(300)]
    raising = []
    i = 0
    for n in blocks:
        x = rng.standard_normal(dim)
        zero = x.copy()
        zero[i:i + n] = 0.0  # the uniform block
        overflow = x.copy()
        overflow[i:i + 2] = 1e154  # finite squares whose total overflows
        nan = x.copy()
        nan[i + n - 1] = math.nan
        vectors.append(zero)
        raising += [overflow, nan]
        i += n
    outcomes = set()
    ops = model.ArrayOps(len(vectors + raising))
    with np.errstate(all="ignore"):
        columns = frontier._decode(np.array(vectors + raising).T, blocks, ops)
    for lane, x in enumerate(vectors + raising):
        want = _decoded(lambda: [list(s) for s in _constructed(x.tolist(), space)])
        assert _decoded(lambda: frontier._decode(x.tolist(), blocks)) == want
        assert _decoded(lambda: [list(s) for s in frontier._simplices(x, space)]) == want
        outcomes.add(want is InvalidAllocation)
        # over columns (every block of one size at once), a lane the float
        # decode rejects is marked, and an unmarked one has its bits
        if want is InvalidAllocation or ops.suspect[lane]:
            assert ops.suspect[lane]
            continue
        assert [[float(w[lane]).hex() for w in block] for block in columns] == want
    assert outcomes == {False, True}
    # at unit scale only a lane with an all-zero (uniform) block is marked
    starts = np.cumsum((0,) + blocks[:-1])
    assert ops.suspect[:300].tolist() == [
        any(not x[i:i + n].any() for i, n in zip(starts, blocks)) for x in vectors[:300]]
    for x in raising:
        with pytest.raises(InvalidAllocation):
            frontier._decode(x.tolist(), blocks)


def test_stored_simplices_match_constructed():
    # A decoded allocation cannot be told apart from one built through the
    # constructors from the same weights.
    rng = np.random.default_rng(19)
    for decode, space in ((frontier.tc_allocation_from_vector, frontier._TC),
                          (frontier.rc_allocation_from_vector, frontier._RC)):
        x = _search_vector(rng, sum(space.blocks))
        stored = decode(x)
        built = type(stored)(*_constructed(x.tolist(), space))
        for got, want in itertools.chain(zip(stored, built), [(stored, built)]):
            assert got == want and hash(got) == hash(want)
            assert repr(got) == repr(want)
            assert dataclasses.asdict(got) == dataclasses.asdict(want)
            assert pickle.loads(pickle.dumps(got)) == want
            assert pickle.dumps(got) == pickle.dumps(want)


@pytest.mark.parametrize("scheme", ["TC", "RC", "TC_inf"])
def test_search_score_builds_no_simplex(scheme, ref_gains, ref_powers, monkeypatch):
    # A search evaluation decodes its vertex in one pass: it neither
    # re-validates a block through simplex_weights nor builds a simplex.
    calls = Counter()
    weights, post_init = model.simplex_weights, model._Simplex.__post_init__

    def counting_weights(block):
        calls["simplex_weights"] += 1
        return weights(block)

    def counting_post_init(self):
        calls["simplex"] += 1
        post_init(self)

    for module in (model, frontier):
        monkeypatch.setattr(module, "simplex_weights", counting_weights)
    monkeypatch.setattr(model._Simplex, "__post_init__", counting_post_init)
    g = dataclasses.replace(ref_gains, c12=math.inf) if scheme == "TC_inf" else ref_gains
    space, score, _ = frontier._searches(scheme, g, ref_powers)[0]
    x = np.random.default_rng(3).standard_normal(sum(space.blocks))
    r1, r2 = score(x.tolist(), 1.0)
    assert r1 >= 0.0 and r2 >= 0.0
    assert calls == Counter()
    # nor does the public decoder, which stores _decode's weights as they are
    frontier._simplices(x, space)
    assert calls == Counter()


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_every_corner_start_evaluates_cleanly(scheme, ref_gains, ref_powers):
    # Each corner start has one block per simplex of its space, each with one
    # coordinate per simplex weight, and its start vector decodes through the
    # public decoder and rate pair with no EvaluatorError (TC_inf in both
    # encoding orders).
    g = dataclasses.replace(ref_gains, c12=math.inf) if scheme == "TC_inf" else ref_gains
    weights = (0.0, 1.0, math.inf) if scheme == "RC" else (1.0,)
    for space, _, revalidate in frontier._searches(scheme, g, ref_powers):
        for k, corner in enumerate(space.corners):
            assert tuple(len(block) for block in corner) == space.blocks
            for w in weights:
                revalidate(frontier._start_vector(0, 0, k, space), w)


# ---------------------------------------------------------------------------
# direct search


def _scipy_nelder_mead(f, x0, max_iter):
    """scipy's Nelder-Mead with the options frontier.minimize reproduces."""
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.minimize(
        lambda x: f(x.tolist()), x0, method="Nelder-Mead",
        options={"maxiter": max_iter, "maxfev": 2 * max_iter, "fatol": frontier._FATOL,
                 "xatol": frontier._XATOL, "adaptive": False,
                 "initial_simplex": frontier._initial_simplex(x0)})


def _one_by_one(f):
    """The batch objective that scores each row with the scalar objective ``f``."""
    return lambda runs, points: np.array([f(x) for x in points.tolist()], dtype=float)


def _single_run(f, x0, max_iter):
    """frontier.minimize of one run from ``x0``: a one-row batch scored by ``f``."""
    return frontier.minimize(_one_by_one(f), np.asarray(x0, dtype=float)[None], max_iter)


def _same_run(f, x0, max_iter):
    """frontier.minimize's run, checked step for step against scipy's."""
    ours = _single_run(f, x0, max_iter)
    theirs = _scipy_nelder_mead(f, x0, max_iter)
    assert ours.x[0].tobytes() == theirs.x.tobytes()
    assert (int(ours.nfev[0]), ours.success) == (theirs.nfev, theirs.success)
    return ours


def _same_final_simplex(f, x0, max_iter):
    """The whole final simplex of one lockstep run, and its values, equal
    scipy's: a partly applied shrink and an expansion cut by the budget show
    there even when the best vertex does not move."""
    sim, fsim, _, _ = frontier._lockstep(_one_by_one(f), x0[None], max_iter)
    final, values = _scipy_nelder_mead(f, x0, max_iter).final_simplex
    assert sim[0].tobytes() == final.tobytes() and fsim[0].tobytes() == values.tobytes()


def _steps_on_search_objectives(scheme, ref_gains, ref_powers, objective):
    """``_same_run`` on ``objective(score, w)`` of each search of ``scheme``,
    from two corner and two random starts at four weights and three budgets."""
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(12)
    early = 0
    for g in (ref_gains, random_gains(rng)):
        if scheme == "TC_inf":
            g = dataclasses.replace(g, c12=math.inf)
        searches = frontier._searches(scheme, g, ref_powers)
        space = searches[0][0]
        dim = sum(space.blocks)
        starts = [frontier._start_vector(0, 0, k, space) for k in (1, 2)]
        starts += [rng.standard_normal(dim) for _ in range(2)]
        for (_, score, _), (x0, w) in itertools.product(
                searches, zip(starts, (0.0, 1.0, 2.5, math.inf))):
            for max_iter in (3, 25, 250):  # 6 evaluations cannot finish the first simplex
                run = _same_run(objective(score, w), x0, max_iter)
                early += run.nfev[0] < dim + 1
    assert early == 8 * len(searches)


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_minimize_takes_scipys_steps_on_search_objectives(scheme, ref_gains, ref_powers):
    _steps_on_search_objectives(scheme, ref_gains, ref_powers,
                                lambda score, w: frontier._neg_objective(score, w, Counter()))


def _tie_free(f, tables):
    """``f`` without ties, where any ranking rule gives scipy's order: each
    value gets a deterministic offset below 1e-6 (1 + |value|), drawn from
    the bytes of its point, so that distinct points, penalized ones
    included, score apart.  Each point's value is kept in a new table in
    ``tables``, for the caller to check that no two tie."""
    values = {}
    tables.append(values)

    def g(xs):
        key = np.array(xs, dtype=float).tobytes()
        u = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") / 2.0 ** 64
        value = f(xs)
        values[key] = value + 1e-6 * u * (1.0 + abs(value))
        return values[key]

    return g


def _no_ties(tables):
    return all(len(set(values.values())) == len(values) for values in tables)


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_minimize_takes_scipys_steps_on_tie_free_search_objectives(scheme, ref_gains,
                                                                   ref_powers):
    # The same runs on objectives without ties (``_tie_free``).
    tables = []
    _steps_on_search_objectives(
        scheme, ref_gains, ref_powers,
        lambda score, w: _tie_free(frontier._neg_objective(score, w, Counter()), tables))
    assert _no_ties(tables)


def test_ranked_orders_ties_as_numpy_argsort():
    # Tied values rank in np.argsort's order, scipy's, which depends on
    # numpy's CPU dispatch (ROADMAP defect 11): vertex-major simplices of 7,
    # 14 and 18 vertices (the limit, RC and TC spaces) of 40 and 176 runs
    # (ref-region's TC and RDPC chunk), whose value rows hold three values,
    # the penalty among them.
    rng = np.random.default_rng(31)
    for n, runs in itertools.product((7, 14, 18), (40, 176)):
        fsim = rng.choice((-2.5, -1.0, frontier._PENALTY), (runs, n))
        sim = rng.standard_normal((n, runs, n - 1))
        order = np.argsort(fsim, axis=1)
        rows = np.arange(runs)
        ranked_sim, ranked_fsim = frontier._ranked(sim, fsim)
        assert ranked_sim.tobytes() == sim[order.T, rows].tobytes()
        assert ranked_fsim.tobytes() == fsim[rows[:, None], order].tobytes()


def test_first_simplex_broadcast_equals_each_starts_simplex():
    # The lockstep's first simplices, one broadcast over the starts (rows),
    # are byte for byte the one-start simplex of each start, the one the
    # scipy tests pass to scipy: on every space's corner starts, on their
    # negatives and on random starts with -0.0 coordinates, which the step's
    # add turns into +0.0 in every vertex but the start itself.
    rng = np.random.default_rng(23)
    for space in (frontier._TC, frontier._RC, frontier._LIMIT):
        n = sum(space.blocks)
        corners = np.array([frontier._start_vector(0, 0, k, space)
                            for k in range(len(space.corners))])
        signed = np.where(rng.random((9, n)) < 0.4, -0.0, rng.standard_normal((9, n)))
        for x0 in (corners, -corners, signed):
            sim = frontier._initial_simplex(x0)
            assert sim.shape == (len(x0), n + 1, n)
            for k, x in enumerate(x0):
                one = frontier._initial_simplex(x)
                assert one.tobytes() == np.vstack(
                    [x, x + frontier._SIMPLEX_STEP * np.eye(n)]).tobytes()
                assert sim[k].tobytes() == one.tobytes()
            zero = x0 == 0.0
            assert np.signbit(x0[zero]).any() == (x0 is not corners)
            assert np.signbit(sim[:, 0][zero]).tobytes() == np.signbit(x0[zero]).tobytes()
            assert not np.signbit(sim[:, 1:].swapaxes(0, 1)[:, zero]).any()


def _toy_bowl(xs):  # convex in xs[0] and xs[1]; the rest is ignored, so values tie
    return (xs[0] - 0.3) ** 2 + 2.0 * (xs[1] + 1.0) ** 2


def _toy_tilted(xs):  # a slope, so runs expand again and again
    return -xs[0] - 0.5 * xs[1]


def test_minimize_takes_scipys_steps_on_toy_objectives():
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    runs = [_same_run(_toy_bowl, rng.standard_normal(5), max_iter)
            for max_iter in (5, 60, 2000)]
    assert [run.success for run in runs] == [False, False, True]
    # A constant makes every iteration a reflection, an inside contraction and
    # a shrink of all n other vertices, n + 2 evaluations after the n + 1 of
    # the first simplex; so a budget of 2m runs out inside a shrink when
    # (2m - n - 1) mod (n + 2) is 3 to n + 1, as for m = 4, 5, 7 and 8.
    n = 4
    for max_iter in range(1, 40):
        _same_run(lambda xs: 0.0, rng.standard_normal(n), max_iter)
    # The same runs on tie-free objectives (``_tie_free``), where scipy's
    # steps do not depend on how a sort orders ties.
    tables = []
    for max_iter in (5, 60, 2000):
        _same_run(_tie_free(_toy_bowl, tables), rng.standard_normal(5), max_iter)
    for max_iter in range(1, 40):
        _same_run(_tie_free(lambda xs: 0.0, tables), rng.standard_normal(n), max_iter)
    assert _no_ties(tables)


def test_lockstep_final_simplex_is_scipys():
    # Every budget from 2 to 120 evaluations: some end inside the first
    # simplex, some on an expansion's or contraction's second point, some
    # inside a shrink (the constant objective shrinks every iteration).
    # Each objective also on its tie-free form (``_tie_free``).
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    tables = []
    x0 = rng.standard_normal(5)
    for max_iter in range(1, 61):
        for f in (_toy_bowl, _toy_tilted, lambda xs: 0.0):
            _same_final_simplex(f, x0, max_iter)
            _same_final_simplex(_tie_free(f, tables), x0, max_iter)
    # 18 vertices, 15 of them tied: ranking runs numpy's sort past its
    # small-array insertion sort, and the first simplex is ranked twice
    wide = rng.standard_normal(17)
    for max_iter in (5, 9, 40):
        _same_final_simplex(_toy_bowl, wide, max_iter)
        _same_final_simplex(_tie_free(_toy_bowl, tables), wide, max_iter)
    assert _no_ties(tables)


def _same_as_single_runs(batch, single, starts, max_iter):
    """The lockstep runs of ``starts`` (rows) under the batch objective equal
    one single ``minimize`` run per start under its scalar objective."""
    runs = frontier.minimize(batch, np.array(starts), max_iter)
    assert runs.x.shape == (len(starts), len(starts[0]))
    for k, x0 in enumerate(starts):
        alone = _single_run(single(k), x0, max_iter)
        assert runs.x[k].tobytes() == alone.x[0].tobytes()
        assert (int(runs.nfev[k]), bool(runs.converged[k])) == (int(alone.nfev[0]), alone.success)
    assert runs.success == all(runs.converged)
    return runs


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_lockstep_runs_equal_single_runs_on_search_objectives(scheme, ref_gains, ref_powers,
                                                             monkeypatch):
    # The scipy step tests' starts and weights, stacked into one lockstep
    # batch scored by the column kernels (however few rows), each inside
    # contraction in the call of its reflection (4 runs, within the paired
    # range at _COLUMN_ROWS = 1): each run takes the steps (and the penalties)
    # of its single run, with budgets that end inside the first simplex (3),
    # mid-search (25) and near convergence (250).
    monkeypatch.setattr(frontier, "_COLUMN_ROWS", 1)
    assert 4 <= frontier._PAIRED_RUNS
    rng = np.random.default_rng(12)
    for g in (ref_gains, random_gains(rng)):
        if scheme == "TC_inf":
            g = dataclasses.replace(g, c12=math.inf)
        searches = frontier._searches(scheme, g, ref_powers)
        space = searches[0][0]
        starts = [frontier._start_vector(0, 0, k, space) for k in (1, 2)]
        starts += [rng.standard_normal(sum(space.blocks)) for _ in range(2)]
        weights = (0.0, 1.0, 2.5, math.inf)
        for (_, score, _), max_iter in itertools.product(searches, (3, 25, 250)):
            batched, alone = Counter(), Counter()
            _same_as_single_runs(
                frontier._batch_objective([score] * len(weights), weights,
                                          [batched] * len(weights)),
                lambda k: frontier._neg_objective(score, weights[k], alone), starts, max_iter)
            assert batched == alone


def test_lockstep_runs_equal_single_runs_on_toy_objectives():
    # Budgets that end inside the first simplex and inside a shrink (the
    # constant objective shrinks every iteration), several runs at once.
    rng = np.random.default_rng(7)
    starts = [rng.standard_normal(5) for _ in range(4)]
    for max_iter in (2, 5, 60, 2000):
        _same_as_single_runs(_one_by_one(_toy_bowl), lambda k: _toy_bowl, starts, max_iter)
    starts = [rng.standard_normal(4) for _ in range(3)]
    for max_iter in range(1, 40):
        _same_as_single_runs(_one_by_one(lambda xs: 0.0), lambda k: (lambda xs: 0.0), starts,
                             max_iter)


def _toy_plateau(xs):  # a bowl with a flat floor, where runs shrink once they reach it
    return max(_toy_bowl(xs), 0.5)


# Toy objectives whose runs end at different times: constants shrink every
# step and end first, steep and flat bowls converge at their own pace, a
# slope expands until the budget ends it, and on a plateau a run shrinks
# only after reaching the floor.
_TOY_KINDS = (lambda xs: 0.0, lambda xs: 1e3 * _toy_bowl(xs), lambda xs: 1e-3 * _toy_bowl(xs),
              _toy_tilted, _toy_plateau)


def test_lockstep_runs_that_end_at_different_times_equal_single_runs(monkeypatch):
    # One chunk mixes constant objectives, which shrink every step and end
    # first, steep and flat bowls, which converge at their own pace, a
    # slope, which expands until the budget ends it, and plateaus, where
    # runs shrink only after reaching the floor, so after runs of lower rows
    # have left the working set.  Budgets of 2 and 4 evaluations end every
    # run in the first simplex, and 8, 10, 14 and 16 end the constant runs
    # inside a shrink (see test_minimize_takes_scipys_steps_on_toy_objectives).
    # Then again from 2 live runs up: a batch with a ``count`` method gets
    # each inside contraction in the call of its reflection, a batch without
    # one never does, and the single runs (one live run) take the unpaired,
    # scipy-equal path.
    rng = np.random.default_rng(13)
    objectives = [_TOY_KINDS[k % len(_TOY_KINDS)] for k in range(15)]
    starts = [rng.standard_normal(4) * 3.0 for _ in objectives]

    calls = [0]

    def plain(runs, points):
        calls[0] += 1
        return np.array([objectives[k](x) for k, x in zip(runs.tolist(), points.tolist())])

    def counting(runs, points, quiet=0):  # no toy objective raises, so none is held
        return plain(runs, points)

    counting.count = lambda taken: None
    made = []
    for rows, batch in ((frontier._COLUMN_ROWS, counting), (2, counting), (2, plain)):
        monkeypatch.setattr(frontier, "_COLUMN_ROWS", rows)
        calls[0] = 0
        for max_iter in (1, 2, 4, 5, 7, 8, 60, 2000):
            runs = _same_as_single_runs(batch, lambda k: objectives[k], starts, max_iter)
        assert len(set(runs.nfev.tolist())) >= 10 and 0 < np.count_nonzero(runs.converged) < 15
        made.append(calls[0])
    # Paired calls leave some iterations no second-point call; without count, no pairing.
    assert made[1] < made[0] == made[2]


def test_lockstep_of_40_runs_that_end_at_different_times_equals_single_runs():
    # 40 runs of the toy kinds, a chunk wide enough that the ranking's flat
    # gather (vertex v of run r at row v*runs + r) runs at many widths after
    # runs leave the working set, paired (a batch with ``count``, from 20
    # live runs up) and unpaired: each run is its single, scipy-equal run.
    rng = np.random.default_rng(29)
    objectives = [_TOY_KINDS[k % len(_TOY_KINDS)] for k in range(40)]
    starts = [rng.standard_normal(6) * 3.0 for _ in objectives]

    def plain(runs, points):
        return np.array([objectives[k](x) for k, x in zip(runs.tolist(), points.tolist())])

    def counting(runs, points, quiet=0):  # no toy objective raises, so none is held
        return plain(runs, points)

    counting.count = lambda taken: None
    for batch, max_iter in itertools.product((plain, counting), (9, 60, 2000)):
        runs = _same_as_single_runs(batch, lambda k: objectives[k], starts, max_iter)
    assert len(set(runs.nfev.tolist())) >= 20 and 0 < np.count_nonzero(runs.converged) < 40


def test_lockstep_counts_a_paired_point_only_when_its_run_takes_it(monkeypatch):
    # A bowl with a penalized half-plane, scored by a batch that holds the
    # penalties of its quiet rows as ``_batch_objective`` does: the paired
    # lockstep counts the penalties each single run counts, while paired
    # points no run takes (a reflection taken, the budget spent) raise too.
    monkeypatch.setattr(frontier, "_COLUMN_ROWS", 2)

    def walled(xs, penalized):
        if xs[1] > -0.5:
            penalized["Wall"] += 1
            return frontier._PENALTY
        return _toy_bowl(xs)

    batched, held, raised = Counter(), {}, [0]

    def batch(runs, points, quiet=0):
        held.clear()
        counted = len(points) - quiet
        values = []
        for i, x in enumerate(points.tolist()):
            tally = batched if i < counted else Counter()
            values.append(walled(x, tally))
            raised[0] += values[-1] == frontier._PENALTY
            if i >= counted and tally:
                held[i - counted] = tally
        return np.array(values)

    def count(taken):
        for i, tally in held.items():
            if taken[i]:
                batched.update(tally)

    batch.count = count
    rng = np.random.default_rng(19)
    starts = [rng.standard_normal(3) - (0.0, 1.0, 0.0) for _ in range(12)]
    untaken = 0
    for max_iter in (3, 4, 7, 10, 25, 60):
        batched.clear()
        raised[0] = 0
        alone = Counter()
        _same_as_single_runs(batch, lambda k: lambda xs: walled(xs, alone), starts, max_iter)
        assert batched == alone and alone["Wall"] > 0
        untaken += raised[0] - alone["Wall"]
    assert untaken > 0


def test_lockstep_centroid_adds_the_kept_vertices_row_by_row():
    # The lockstep's one reduction gives the centroid scipy's row-by-row sum
    # gives, on each space's vertex-major simplex shape (the TC limit's 7
    # vertices, RC's 14, TC's 18) and on chunks of 1 to 256 runs (176:
    # ref-region's TC and RDPC chunk), with coordinates whose sum depends on
    # the order of its terms.
    rng = np.random.default_rng(17)
    for n in (6, 13, 17):
        for count in (1, 7, 176, 256):
            sim = rng.standard_normal((n + 1, count, n)) * 10.0 ** rng.integers(
                -12, 12, (n + 1, count, n))
            sim, _ = frontier._ranked(sim, rng.standard_normal((count, n + 1)))
            want = sim[0].copy()
            for k in range(1, n):
                want += sim[k]
            want /= n
            assert frontier._centroid(sim).tobytes() == want.tobytes()


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError inside the block once ``seconds`` have passed, so a
    search that never ends fails the test instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_minimize_ends_at_once_without_runs_and_rejects_starts_that_are_not_rows():
    # No start row is no run: an empty result, with no call of f (no run
    # could ever end a lockstep of none).  A start array that is not 2-D
    # raises a ValueError that names its shape.
    calls = []

    def f(runs, points):
        calls.append(len(points))
        return np.zeros(len(points))

    with _deadline(10):
        for n in (5, 0):
            empty = frontier.minimize(f, np.empty((0, n)), 100)
            assert empty.x.shape == (0, n) and empty.nfev.shape == empty.converged.shape == (0,)
            assert empty.success and not calls
        for x0 in (np.zeros(5), [[[0.0] * 3] * 2], 1.0, []):
            with pytest.raises(ValueError, match=re.escape(f"shape {np.shape(x0)}")):
                frontier.minimize(f, x0, 100)
    assert not calls


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_trace_does_not_depend_on_batch_size(scheme, ref_gains, ref_powers, monkeypatch):
    # At most _BATCH runs advance together; chunks of 3 (scored on floats,
    # below _COLUMN_ROWS) give the same trace as one chunk (over columns).
    g = dataclasses.replace(ref_gains, c12=math.inf) if scheme == "TC_inf" else ref_gains
    traced = "TC" if scheme == "TC_inf" else scheme
    opts = frontier.TraceOptions(weights=frontier.default_weights(3), restarts=4,
                                 max_iter=60, seed=2)
    whole = frontier.trace(traced, g, ref_powers, opts)
    monkeypatch.setattr(frontier, "_BATCH", 3)
    calls = []
    minimize = frontier.minimize
    monkeypatch.setattr(frontier, "minimize", lambda *a: calls.append(1) or minimize(*a))
    _same_frontier(frontier.trace(traced, g, ref_powers, opts), whole)
    searches = 2 if scheme == "TC_inf" else 1  # the limit's two orders share one lockstep
    assert len(calls) == math.ceil(searches * len(opts.weights) * opts.restarts / 3)


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_trace_does_not_depend_on_pairing(scheme, ref_gains, ref_powers, monkeypatch):
    # 5 weights x 6 restarts (both encoding orders for the limit: 60 runs)
    # are inside the paired range: the trace whose every inside contraction
    # is scored in the call of its reflection (bound _BATCH) is the one that
    # scores none so (bound 0), points, options and stats, penalties included.
    g = dataclasses.replace(ref_gains, c12=math.inf) if scheme == "TC_inf" else ref_gains
    traced = "TC" if scheme == "TC_inf" else scheme
    opts = frontier.TraceOptions(weights=frontier.default_weights(3), restarts=6, max_iter=40,
                                 seed=1)
    batch, quiet = frontier._batch_objective, []

    def watched(*args):
        f = batch(*args)

        def seen(runs, points, *held):
            quiet.extend(held)
            return f(runs, points, *held)

        seen.count = f.count
        return seen

    monkeypatch.setattr(frontier, "_batch_objective", watched)
    frontiers = []
    for bound in (0, frontier._BATCH):
        monkeypatch.setattr(frontier, "_PAIRED_RUNS", bound)
        frontiers.append(frontier.trace(traced, g, ref_powers, opts))
        assert bool(quiet) == bool(bound)
    never, always = frontiers
    assert repr(always) == repr(never)
    assert scheme == "TC_inf" or sum(never.stats.penalized.values()) > 0  # the limit raises none


def test_trace_many_matches_trace(ref_gains, ref_powers, monkeypatch):
    # Each job's frontier is its lone trace's, byte for byte and stats alike:
    # TC, RDPC and RC on three channels (TC and RDPC share a lockstep; every
    # gain of the third has an x ** 2 that is not x * x), each channel's TC
    # limit (two encoding orders each, one lockstep), RC at c34 = +inf (no
    # search, so trace_many hands it to frontier.trace) and a repeated job;
    # chunks of 5 runs straddle searches and jobs.
    rng = np.random.default_rng(31)
    channels = [(ref_gains, ref_powers), (random_gains(rng), random_powers(rng)),
                (ChannelGains(*odd_squares(rng, 6)), random_powers(rng))]
    jobs = [(scheme, g, p) for g, p in channels for scheme in ("TC", "RDPC", "RC")]
    jobs += [("TC", dataclasses.replace(g, c12=math.inf), p) for g, p in channels]
    jobs += [("rc", dataclasses.replace(ref_gains, c34=math.inf), ref_powers), jobs[0]]
    opts = frontier.TraceOptions(weights=frontier.default_weights(3), restarts=3,
                                 max_iter=40, seed=4)
    alone = [frontier.trace(*job, opts) for job in jobs]
    trace = frontier.trace
    for batch in (frontier._BATCH, 5):
        monkeypatch.setattr(frontier, "_BATCH", batch)
        handed = []
        monkeypatch.setattr(frontier, "trace", lambda *job: handed.append(job[0]) or trace(*job))
        many = frontier.trace_many(jobs, opts)
        monkeypatch.setattr(frontier, "trace", trace)
        assert handed == ["rc"]
        assert len(many) == len(jobs)
        for got, want in zip(many, alone):
            assert repr(got) == repr(want) and repr(got.stats) == repr(want.stats)
        assert all(fr.stats.runs > 0 for fr in many if fr.scheme != "RC_inf")


def test_trace_many_checks_every_job_before_tracing(ref_gains, ref_powers, monkeypatch):
    # A bad job anywhere in the list raises before any search runs.
    def no_search(*args):
        raise AssertionError("searched before checking every job")

    monkeypatch.setattr(frontier, "minimize", no_search)
    g12 = dataclasses.replace(ref_gains, c12=math.inf)
    with pytest.raises(ValueError, match="unknown scheme"):
        frontier.trace_many([("TC", ref_gains, ref_powers), ("XX", ref_gains, ref_powers)], FAST)
    with pytest.raises(InfiniteGain):
        frontier.trace_many([("RC", ref_gains, ref_powers), ("RDPC", g12, ref_powers)], FAST)
    assert frontier.trace_many([], FAST) == []


# ---------------------------------------------------------------------------
# tracing


def test_trace_zero_powers(ref_gains):
    fr = frontier.trace("TC", ref_gains, PowerBudget(0.0, 0.0), FAST)
    assert fr.vertices() == [(0.0, 0.0)]


def _same_frontier(a, b):
    assert a.scheme == b.scheme and a.options == b.options and a.stats == b.stats
    assert [(pt.r1, pt.r2, pt.weight, pt.allocation) for pt in a.points] == \
        [(pt.r1, pt.r2, pt.weight, pt.allocation) for pt in b.points]


def test_default_weights_counts_the_log_spaced_weights():
    # n log-spaced weights between the two axes: 0 used to give (0, 1, inf), as 1 does
    assert frontier.default_weights(0) == (0.0, math.inf)
    assert frontier.default_weights(1) == (0.0, 1.0, math.inf)
    assert frontier.default_weights(3) == (0.0, 2.0 ** -6, 1.0, 2.0 ** 6, math.inf)
    assert [len(frontier.default_weights(n)) for n in range(6)] == [2, 3, 4, 5, 6, 7]
    assert len(frontier.default_weights(frontier.MAX_WEIGHTS)) == frontier.MAX_WEIGHTS + 2


@pytest.mark.parametrize("n", [10 ** 300, frontier.MAX_WEIGHTS + 1, -1, 3.0, True, "3", None])
def test_default_weights_rejects_non_counts_and_huge_counts(n):
    # 10**300 used to be built as a tuple, eagerly, until memory ran out
    with pytest.raises(ValueError, match=r"^count .* is not an integer in \[0, 10000\]$"):
        frontier.default_weights(n)


def test_trace_options_reject_empty_weights():
    # An empty weight tuple used to pass, and the trace returned the origin alone.
    with pytest.raises(ValueError, match="weights"):
        frontier.TraceOptions(weights=())
    # A NaN weight makes every objective NaN; a negative one rewards a lower rate.
    # A bool is no weight: True was stored and written to the sidecar as "1".
    for weights in ((-1.0, math.nan), (1.0, math.nan), (-1.0,), (0.5, -0.0 - 1e-300),
                    (True,), (0.5, False), (np.True_,)):
        with pytest.raises(ValueError, match="weights"):
            frontier.TraceOptions(weights=weights)
    assert frontier.TraceOptions(weights=(0.0, -0.0, math.inf)).weights[-1] == math.inf


def test_trace_options_freeze_weights(ref_gains, ref_powers):
    # A generator used to be consumed by the check, so the trace ran no search;
    # a list left the frozen options unhashable; a string weight raised TypeError.
    opts = frontier.TraceOptions(weights=(w for w in (1.0,)), restarts=1, max_iter=20)
    assert opts.weights == (1.0,)
    assert frontier.trace("TC", ref_gains, ref_powers, opts).stats.evaluations > 0
    listed = frontier.TraceOptions(weights=[1.0, 2.0])
    assert listed == frontier.TraceOptions(weights=(1.0, 2.0))
    assert hash(listed) == hash(frontier.TraceOptions(weights=(1.0, 2.0)))
    with pytest.raises(ValueError, match="weights"):
        frontier.TraceOptions(weights=(1.0, "2"))


@pytest.mark.parametrize("field, value", [
    ("restarts", 7.5), ("restarts", 0), ("max_iter", 2.0), ("max_iter", "3"),
    ("seed", -1), ("seed", 1.5), ("seed", None),
    ("restarts", True), ("max_iter", True), ("seed", False), ("seed", True),
    ("restarts", frontier.MAX_RESTARTS + 1), ("restarts", 10 ** 300),
    ("max_iter", frontier.MAX_ITER + 1), ("max_iter", 10 ** 300)])
def test_trace_options_reject_bad_counts(field, value):
    # A float count used to pass and the trace raised TypeError; a negative
    # seed raised numpy's ValueError only at the first random start; a bool
    # passed as the integer it stands for (restarts=True traced one restart).
    with pytest.raises(ValueError, match=f"{field} {value!r}"):
        frontier.TraceOptions(**{field: value})
    assert frontier.TraceOptions(restarts=np.int64(2), seed=np.uint8(0)).restarts == 2
    at_caps = frontier.TraceOptions(restarts=frontier.MAX_RESTARTS, max_iter=frontier.MAX_ITER)
    assert (at_caps.restarts, at_caps.max_iter) == (frontier.MAX_RESTARTS, frontier.MAX_ITER)


def test_trace_rejects_unknown_scheme_and_infinite_gain(ref_gains, ref_powers, monkeypatch):
    for scheme in ("XX", None, 3):  # a non-string raised AttributeError
        with pytest.raises(ValueError, match="unknown scheme"):
            frontier.trace(scheme, ref_gains, ref_powers, FAST)
    # trace routes an infinite conferencing gain to the limit tracer
    g12 = ChannelGains(c12=math.inf, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0)
    g34 = ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=math.inf)
    _same_frontier(frontier.trace("TC", g12, ref_powers, FAST),
                   frontier.trace_tc_limit(g12, ref_powers, FAST))
    _same_frontier(frontier.trace("rc", g34, ref_powers, FAST),
                   frontier.trace_rc_limit(g34, ref_powers, FAST))
    # RDPC has no limit mode
    with pytest.raises(InfiniteGain, match="frontier.trace"):
        frontier.trace("RDPC", g12, ref_powers, FAST)
    # without options the limits keep their own defaults, not TraceOptions()
    limit_defaults = frontier._limit_options(None)
    assert limit_defaults != frontier.TraceOptions()
    assert frontier.trace("RC", g34, ref_powers).options == limit_defaults
    monkeypatch.setattr(frontier, "_sweep",
                        lambda jobs, opts: [([], frontier.TraceStats())] * len(jobs))
    assert frontier.trace("TC", g12, ref_powers).options == limit_defaults


def test_trace_stats_count_every_evaluation(ref_gains, ref_powers, monkeypatch):
    # Count the rows the lockstep search evaluates at its batch boundary
    # inside Nelder-Mead runs (not the one re-validation per run), and the
    # kernel's raises (the float path, which re-scores suspect rows),
    # independently of the trace.  With pairing off: a paired inside
    # contraction that no run takes is a row and may raise, but is no
    # evaluation, so the same trace with pairing on must give the same stats.
    monkeypatch.setattr(frontier, "_PAIRED_RUNS", 0)
    searching, rows, raised = [False], [0], {}
    kernel, minimize, batch = txcoop.tc_kernel, frontier.minimize, frontier._batch_objective

    def counting_kernel(c, pw, s, rdpc=False, ops=model.FLOAT_OPS):
        try:
            return kernel(c, pw, s, rdpc, ops)
        except EvaluatorError as exc:
            if searching[0]:
                raised[type(exc).__name__] = raised.get(type(exc).__name__, 0) + 1
            raise

    def counting_batch(*args):
        f = batch(*args)

        def counted(runs, points, *quiet):
            rows[0] += searching[0] * len(points)
            return f(runs, points, *quiet)

        counted.count = f.count
        return counted

    def flagged_minimize(*args, **kwargs):
        searching[0] = True
        try:
            return minimize(*args, **kwargs)
        finally:
            searching[0] = False

    monkeypatch.setattr(txcoop, "tc_kernel", counting_kernel)
    monkeypatch.setattr(frontier, "minimize", flagged_minimize)
    monkeypatch.setattr(frontier, "_batch_objective", counting_batch)
    opts = frontier.TraceOptions(weights=frontier.default_weights(3), restarts=8,
                                 max_iter=40, seed=0)
    stats = frontier.trace("TC", ref_gains, ref_powers, opts).stats
    assert stats.runs == len(opts.weights) * opts.restarts
    assert stats.evaluations == rows[0]
    assert stats.penalized == raised and sum(raised.values()) > 0  # corner starts hit faces
    assert stats.unconverged == stats.runs  # 40 iterations never meet the tolerances
    monkeypatch.setattr(frontier, "_PAIRED_RUNS", frontier._BATCH)
    assert frontier.trace("TC", ref_gains, ref_powers, opts).stats == stats
    assert rows[0] > 2 * stats.evaluations  # the paired trace ran, its rows counted too


def test_trace_whose_every_evaluation_raises(ref_gains, ref_powers, monkeypatch):
    # No run re-validates, so the sweep keeps no candidate and the frontier
    # is the origin alone; every evaluation is counted as penalized (the
    # column call raises too, so every row is re-scored through the float
    # path), and every run is counted as dropped.
    def raising_kernel(c, pw, s, rdpc=False, ops=model.FLOAT_OPS):
        raise InvalidAllocation("every allocation is rejected")

    monkeypatch.setattr(txcoop, "tc_kernel", raising_kernel)
    opts = frontier.TraceOptions(weights=frontier.default_weights(1), restarts=2,
                                 max_iter=20, seed=0)
    fr = frontier.trace("TC", ref_gains, ref_powers, opts)
    assert fr.points == (frontier.FrontierPoint(0.0, 0.0),)
    assert fr.stats.runs == len(opts.weights) * opts.restarts
    assert fr.stats.penalized == {"InvalidAllocation": fr.stats.evaluations} \
        and fr.stats.evaluations > 0
    assert fr.stats.dropped == fr.stats.runs == 6


def test_limit_trace_stats(ref_powers):
    opts = frontier.TraceOptions(weights=frontier.default_weights(3), restarts=2,
                                 max_iter=30, seed=0)
    g12 = ChannelGains(c12=math.inf, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0)
    stats = frontier.trace_tc_limit(g12, ref_powers, opts).stats
    assert stats.runs == 2 * len(opts.weights) * opts.restarts  # both encoding orders
    assert stats.evaluations >= stats.runs * 7  # each run evaluates its initial simplex
    g34 = ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=math.inf)
    assert frontier.trace_rc_limit(g34, ref_powers, opts).stats == frontier.TraceStats()
    with pytest.raises(NotInfinite):
        frontier.trace_tc_limit(ChannelGains(10.0, 1.0, SQRT2, SQRT2, 1.0, 10.0),
                                ref_powers, opts)


def test_trace_deterministic(ref_gains, ref_powers):
    a = frontier.trace("TC", ref_gains, ref_powers, FAST)
    b = frontier.trace("TC", ref_gains, ref_powers, FAST)
    assert a.vertices() == b.vertices()  # bit-identical
    ra = frontier.trace("RC", ref_gains, ref_powers, FAST)
    rb = frontier.trace("RC", ref_gains, ref_powers, FAST)
    assert ra.vertices() == rb.vertices()


_DISPATCH_PROBE = """
import dataclasses, math
from coopic import frontier
from coopic.model import ChannelGains, PowerBudget
g = ChannelGains(c12=10.0, c13=1.0, c14=math.sqrt(2.0), c23=math.sqrt(2.0), c24=1.0, c34=10.0)
p = PowerBudget(5.0, 5.0, 5.0, 5.0)
opts = frontier.TraceOptions(weights=frontier.default_weights(3), restarts=2, max_iter=100)
# TC and RDPC trace as one lockstep; RC and TC at c12 = +inf each alone
limit = dataclasses.replace(g, c12=math.inf)
jobs = [("TC", g, p), ("RDPC", g, p), ("RC", g, p), ("TC", limit, p)]
for fr in frontier.trace_many(jobs, opts):
    print(repr(fr))  # points, options and stats
"""


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP defect 11: Nelder-Mead ranks tied vertices with np.argsort, "
                          "whose SIMD sorts order ties differently from the baseline sort")
def test_trace_does_not_depend_on_numpy_cpu_dispatch():
    # Determinism must hold on every CPU: the same traces of every search
    # space with every SIMD target numpy dispatches on this host switched off
    # (in the child only).
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    present = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not present:
        pytest.skip("numpy dispatches no CPU feature on this host")
    src = str(Path(frontier.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    plain = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE], env=env,
                           capture_output=True, text=True, check=True)
    lowered = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE], capture_output=True,
                             text=True, env={**env, "NPY_DISABLE_CPU_FEATURES": " ".join(present)})
    if lowered.returncode != 0:
        pytest.skip(f"the interpreter with {present} disabled cannot start: {lowered.stderr}")
    assert lowered.stdout == plain.stdout


def test_trace_restart_prefix_monotone(ref_gains, ref_powers):
    small = frontier.TraceOptions(weights=frontier.default_weights(3),
                                  restarts=3, max_iter=100, seed=1)
    large = frontier.TraceOptions(weights=frontier.default_weights(3),
                                  restarts=6, max_iter=100, seed=1)
    f_small = frontier.trace("TC", ref_gains, ref_powers, small)
    f_large = frontier.trace("TC", ref_gains, ref_powers, large)
    assert frontier.dominates(f_large, f_small, tol=0.0)


def test_trace_points_revalidate_through_evaluator(ref_gains, ref_powers):
    fr = frontier.trace("TC", ref_gains, ref_powers, FAST)
    for pt in fr.points:
        pair = txcoop.tc_rate_pair(ref_gains, ref_powers, pt.allocation)
        assert (pair.r1, pair.r2) == (pt.r1, pt.r2)
    rc = frontier.trace("RC", ref_gains, ref_powers, FAST)
    for pt in rc.points:
        pair = rxcoop.rc_rate_pair(ref_gains, ref_powers, pt.allocation, weight=pt.weight)
        assert (pair.r1, pair.r2) == (pt.r1, pt.r2)


def test_trace_points_pass_power_audit(ref_gains, ref_powers):
    # every returned transmitter-cooperation vertex keeps each source within
    # its phase-3 allotment
    rng = np.random.default_rng(2026)
    configs = [(ref_gains, ref_powers)]
    configs += [(ChannelGains(*rng.uniform(0.1, 10.0, size=6)),
                 PowerBudget(*rng.uniform(0.1, 20.0, size=4))) for _ in range(3)]
    for g, p in configs:
        for pt in frontier.trace("TC", g, p, FAST).points:
            audit = txcoop.phase3_power_audit(g, p, pt.allocation)
            assert audit.passes(), (g, p, audit)


def test_trace_points_are_pareto_ordered(ref_gains, ref_powers):
    fr = frontier.trace("RDPC", ref_gains, ref_powers, FAST)
    xs = [pt.r1 for pt in fr.points]
    ys = [pt.r2 for pt in fr.points]
    assert xs == sorted(xs, reverse=True)
    assert ys == sorted(ys)


def test_limit_traces(ref_powers):
    g12 = ChannelGains(c12=math.inf, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0)
    opts = frontier.TraceOptions(weights=frontier.default_weights(9),
                                 restarts=4, max_iter=150, seed=0)
    tc_inf = frontier.trace("TC", g12, ref_powers, opts)
    assert tc_inf.scheme == "TC_inf"
    assert tc_inf.points[0].r1 == pytest.approx(math.log2(31.0), rel=1e-6)
    g34 = ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=math.inf)
    rc_inf = frontier.trace("RC", g34, ref_powers, opts)
    assert rc_inf.scheme == "RC_inf"
    assert rc_inf.points[0].r1 == pytest.approx(4.0, rel=1e-12)
    assert max(x + y for x, y in rc_inf.vertices()) == pytest.approx(
        math.log2(56.0), rel=1e-12)
    for pt in rc_inf.points:
        assert pt.weight in (0.0, math.inf)
        pair = rxcoop.rc_limit_rate_pair(g34, ref_powers, weight=pt.weight)
        assert (pair.r1, pair.r2) == (pt.r1, pt.r2)
