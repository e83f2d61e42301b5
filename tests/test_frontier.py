"""Frontier tracing, hull geometry, region comparison."""

import dataclasses
import itertools
import math
import pickle
from collections import Counter

import numpy as np
import pytest

from conftest import random_gains, random_powers
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


# ---------------------------------------------------------------------------
# region predicates


def test_dominates_basic():
    a = [(2.0, 1.0)]
    assert frontier.dominates(a, a, 0.0)
    assert frontier.dominates(a, [(1.0, 1.0)], 0.0)
    assert not frontier.dominates([(0.0, 0.0)], [(1.0, 0.0)], 0.0)
    assert frontier.dominates([(0.0, 0.0)], [(1.0, 0.0)], 1.0)


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


def test_equal_rate_value():
    assert frontier.equal_rate_value([(2.0, 0.0), (0.0, 2.0)]) == pytest.approx(1.0, abs=1e-9)
    assert frontier.equal_rate_value([(3.0, 1.0)]) == pytest.approx(1.0, abs=1e-9)


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
    for x in vectors + raising:
        want = _decoded(lambda: [list(s) for s in _constructed(x.tolist(), space)])
        assert _decoded(lambda: frontier._decode(x.tolist(), blocks)) == want
        assert _decoded(lambda: [list(s) for s in frontier._simplices(x, space)]) == want
        outcomes.add(want is InvalidAllocation)
    assert outcomes == {False, True}
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


def _same_run(f, x0, max_iter):
    """frontier.minimize's run, checked step for step against scipy's."""
    ours = frontier.minimize(f, x0, max_iter)
    theirs = _scipy_nelder_mead(f, x0, max_iter)
    assert np.asarray(ours.x).tobytes() == theirs.x.tobytes()
    assert (ours.nfev, ours.success) == (theirs.nfev, theirs.success)
    return ours


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC", "TC_inf"])
def test_minimize_takes_scipys_steps_on_search_objectives(scheme, ref_gains, ref_powers):
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
                run = _same_run(frontier._neg_objective(score, w, Counter()), x0, max_iter)
                early += run.nfev < dim + 1
    assert early == 8 * len(searches)


def test_minimize_takes_scipys_steps_on_toy_objectives():
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)

    def bowl(xs):  # convex in xs[0] and xs[1]; the rest is ignored, so values tie
        return (xs[0] - 0.3) ** 2 + 2.0 * (xs[1] + 1.0) ** 2

    runs = [_same_run(bowl, rng.standard_normal(5), max_iter) for max_iter in (5, 60, 2000)]
    assert [run.success for run in runs] == [False, False, True]
    # A constant makes every iteration a reflection, an inside contraction and
    # a shrink of all n other vertices, n + 2 evaluations after the n + 1 of
    # the first simplex; so a budget of 2m runs out inside a shrink when
    # (2m - n - 1) mod (n + 2) is 3 to n + 1, as for m = 4, 5, 7 and 8.
    n = 4
    for max_iter in range(1, 40):
        _same_run(lambda xs: 0.0, rng.standard_normal(n), max_iter)


# ---------------------------------------------------------------------------
# tracing


def test_trace_zero_powers(ref_gains):
    fr = frontier.trace("TC", ref_gains, PowerBudget(0.0, 0.0), FAST)
    assert fr.vertices() == [(0.0, 0.0)]


def _same_frontier(a, b):
    assert a.scheme == b.scheme and a.options == b.options and a.stats == b.stats
    assert [(pt.r1, pt.r2, pt.weight, pt.allocation) for pt in a.points] == \
        [(pt.r1, pt.r2, pt.weight, pt.allocation) for pt in b.points]


def test_trace_options_reject_empty_weights():
    # An empty weight tuple used to pass, and the trace returned the origin alone.
    with pytest.raises(ValueError, match="weights"):
        frontier.TraceOptions(weights=())
    # A NaN weight makes every objective NaN; a negative one rewards a lower rate.
    for weights in ((-1.0, math.nan), (1.0, math.nan), (-1.0,), (0.5, -0.0 - 1e-300)):
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
    ("seed", -1), ("seed", 1.5), ("seed", None)])
def test_trace_options_reject_bad_counts(field, value):
    # A float count used to pass and the trace raised TypeError; a negative
    # seed raised numpy's ValueError only at the first random start.
    with pytest.raises(ValueError, match=f"{field} {value!r}"):
        frontier.TraceOptions(**{field: value})
    assert frontier.TraceOptions(restarts=np.int64(2), seed=np.uint8(0)).restarts == 2


def test_trace_rejects_unknown_scheme_and_infinite_gain(ref_gains, ref_powers, monkeypatch):
    with pytest.raises(ValueError):
        frontier.trace("XX", ref_gains, ref_powers, FAST)
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
    monkeypatch.setattr(frontier, "_sweep", lambda *args: ([], frontier.TraceStats()))
    assert frontier.trace("TC", g12, ref_powers).options == limit_defaults


def test_trace_stats_count_every_evaluation(ref_gains, ref_powers, monkeypatch):
    # Count the kernel calls made inside Nelder-Mead runs (not the one
    # re-validation per run), and their raises, independently of the trace.
    searching, calls, raised = [False], [0], {}
    kernel, minimize = txcoop.tc_kernel, frontier.minimize

    def counting_kernel(c, pw, s):
        calls[0] += searching[0]
        try:
            return kernel(c, pw, s)
        except EvaluatorError as exc:
            if searching[0]:
                raised[type(exc).__name__] = raised.get(type(exc).__name__, 0) + 1
            raise

    def flagged_minimize(*args, **kwargs):
        searching[0] = True
        try:
            return minimize(*args, **kwargs)
        finally:
            searching[0] = False

    monkeypatch.setattr(txcoop, "tc_kernel", counting_kernel)
    monkeypatch.setattr(frontier, "minimize", flagged_minimize)
    opts = frontier.TraceOptions(weights=frontier.default_weights(3), restarts=8,
                                 max_iter=40, seed=0)
    stats = frontier.trace("TC", ref_gains, ref_powers, opts).stats
    assert stats.runs == len(opts.weights) * opts.restarts
    assert stats.evaluations == calls[0]
    assert stats.penalized == raised and sum(raised.values()) > 0  # corner starts hit faces
    assert stats.unconverged == stats.runs  # 40 iterations never meet the tolerances


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
