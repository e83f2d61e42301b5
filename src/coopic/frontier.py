"""Pareto-frontier tracing and rate-region comparison.

Frontiers are traced by weighted-sum scalarization: for each weight w in a
log-spaced grid (plus the two axis directions) the objective R1 + w*R2 is
maximized over the scheme's allocation simplices by multi-start Nelder-Mead
direct search on an unconstrained reparameterization (normalized squares per
simplex block), and the upper-right convex hull of all maximizers is
returned.  Each search starts from a simplex at the reparameterization's
unit scale, so it can leave the face of a corner start.  The hull is the
time-shared closure of the achievable set only when every weight's search
finds the global maximizer; otherwise it is an inner approximation.
``trace`` also routes infinite conferencing gains to the limit tracers.

The search is this module's ``minimize``, which takes exactly the steps of
scipy's Nelder-Mead, so the package needs numpy alone.  The order of tied
vertices (penalties, coordinates the objective ignores) is the one
``np.argsort`` gives.  Each search space (``_TC``, ``_RC``, ``_LIMIT``) is
one ``_Space``: the simplex type of each block of its search vector, read
from the allocation's field annotations, and its corner starts.
``_searches`` lists what a trace runs, one (space, score, revalidate) search
for TC, RDPC and RC and one per encoding order for TC at c12 = +inf, and
``_sweep`` runs each search over every weight and restart.
``_decode`` is the one map from a search vector to simplex weights: per
block it squares, normalizes, checks and renormalizes, giving the weights
``Simplex2``/``Simplex3`` would store for the block's squares.  ``score``
passes its blocks to the scheme's float kernel (``txcoop.tc_kernel``,
``rxcoop.rc_kernel``, ...) and builds no dataclass per evaluation.
``revalidate`` passes each Nelder-Mead result through the public decoder
(``tc_/rc_allocation_from_vector``, ``_simplices`` for the limit), which
stores ``_decode``'s weights as they are (``_Simplex._stored``), and the
rate pair, which gives the same floats.  ``model.simplex_weights`` stays
the rule for every simplex a user builds and ``_decode``'s raise path.
``Frontier.stats`` counts the evaluations, the penalized ones by error
type, and the runs that did not converge.

Everything is deterministic for a fixed seed: start k of weight j is a pure
function of (seed, j, k), so growing the restart budget only appends starts.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, get_type_hints

import numpy as np

from .model import (
    ChannelGains,
    EvaluatorError,
    InfiniteGain,
    NotInfinite,
    PowerBudget,
    RcAllocation,
    Simplex3,
    TcAllocation,
    _SIMPLEX_SUM_TOL,
    kernel_args,
    simplex_weights,
)
from . import rxcoop, txcoop

__all__ = [
    "TraceOptions",
    "TraceStats",
    "FrontierPoint",
    "Frontier",
    "default_weights",
    "trace",
    "trace_tc_limit",
    "trace_rc_limit",
    "hull",
    "dominates",
    "region_deviation",
    "hausdorff",
    "equal_rate_value",
    "tc_allocation_from_vector",
    "rc_allocation_from_vector",
]

_PENALTY = 1e9
# Edge length of each run's initial Nelder-Mead simplex.  The squared-block
# reparameterization works at unit scale, so the default simplex (5 % of each
# nonzero coordinate, 0.00025 for a zero one) barely moves the allocation and
# cannot leave a corner start's face.
_SIMPLEX_STEP = 0.5
# Nelder-Mead stopping tolerances on the objective and on the vertices.
_FATOL = 1e-9
_XATOL = 1e-8


def default_weights(n: int = 33) -> tuple[float, ...]:
    """Log-spaced scalarization weights 2**[-6, 6] plus the two axes."""
    if n < 2:
        grid = (1.0,)
    else:
        grid = tuple(2.0 ** (-6.0 + 12.0 * i / (n - 1)) for i in range(n))
    return (0.0,) + grid + (math.inf,)


@dataclass(frozen=True)
class TraceOptions:
    """Optimizer budget and reproducibility knobs; at least one weight, each
    in [0, +inf], integer restarts and max_iter at least 1, and an integer
    seed at least 0."""

    weights: tuple[float, ...] = field(default_factory=default_weights)
    restarts: int = 32
    max_iter: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        # A tuple, so that a generator is not consumed by the check and the
        # options stay hashable.  No weight would return the origin alone; a
        # NaN one, NaN objectives.
        object.__setattr__(self, "weights", tuple(self.weights))
        try:
            valid = bool(self.weights) and all(w >= 0.0 for w in self.weights)
        except TypeError:  # a non-numeric weight
            valid = False
        if not valid:
            raise ValueError(f"weights {self.weights}: need at least one, each >= 0 or inf")
        try:
            valid = (operator.index(self.restarts) >= 1 and operator.index(self.max_iter) >= 1
                     and operator.index(self.seed) >= 0)
        except TypeError:  # a float or other non-integer count
            valid = False
        if not valid:
            raise ValueError(f"restarts {self.restarts!r}, max_iter {self.max_iter!r}, seed "
                             f"{self.seed!r}: need integers, counts >= 1 and seed >= 0")


@dataclass(frozen=True)
class TraceStats:
    """How a trace got its answer.

    evaluations -- objective evaluations over all ``minimize`` runs (sum of nfev)
    penalized   -- evaluations that raised, by EvaluatorError subclass name
    runs        -- ``minimize`` runs
    unconverged -- runs that ended with success=False (evaluation budget or
                   iteration cap reached before the tolerances were met)
    """

    evaluations: int = 0
    penalized: dict[str, int] = field(default_factory=dict)
    runs: int = 0
    unconverged: int = 0


@dataclass(frozen=True)
class FrontierPoint:
    """One frontier vertex with the allocation and weight that produced it."""

    r1: float
    r2: float
    weight: float | None = None
    allocation: object | None = None


@dataclass(frozen=True)
class Frontier:
    """Pareto vertices (r1 descending, r2 ascending) of a traced region."""

    points: tuple[FrontierPoint, ...]
    scheme: str
    options: TraceOptions | None = None
    stats: TraceStats = field(default_factory=TraceStats, compare=False)

    def vertices(self) -> list[tuple[float, float]]:
        return [(pt.r1, pt.r2) for pt in self.points]


# ---------------------------------------------------------------------------
# Simplex reparameterization (unconstrained vector -> allocation)


def _decode(xs: list[float], blocks) -> list[list[float]]:
    """The weights each simplex of the decoded allocation stores, one list per block.

    The package's one decode of a search vector: per block, x_i^2 / sum(x^2)
    (uniform when the block is all (near) zero), then ``simplex_weights``'
    checks (every weight >= 0, sum within ``_SIMPLEX_SUM_TOL`` of 1) and its
    division by the ``math.fsum`` of the weights (for two floats, their
    sum); so each list is bit for bit what ``Simplex2``/``Simplex3`` built
    from the block's squares would store.  One pass per block, unrolled for
    the two block sizes, with no helper call.  A block that fails a check (a
    NaN coordinate, an overflowed square or total) goes to
    ``simplex_weights``, which raises its InvalidAllocation.
    """
    out = []
    i = 0
    for n in blocks:
        if n == 2:
            a, b = xs[i], xs[i + 1]
            a *= a
            b *= b
            total = a + b
            if total < 1e-300:
                a = b = 0.5
            else:
                a /= total
                b /= total
            total = a + b
            if a >= 0.0 and b >= 0.0 and abs(total - 1.0) <= _SIMPLEX_SUM_TOL:
                out.append([a / total, b / total])
            else:
                out.append(simplex_weights([a, b]))
        else:
            a, b, c = xs[i], xs[i + 1], xs[i + 2]
            a *= a
            b *= b
            c *= c
            total = a + b + c
            if total < 1e-300:
                a = b = c = 1.0 / 3
            else:
                a /= total
                b /= total
                c /= total
            total = math.fsum((a, b, c))
            if a >= 0.0 and b >= 0.0 and c >= 0.0 and abs(total - 1.0) <= _SIMPLEX_SUM_TOL:
                out.append([a / total, b / total, c / total])
            else:
                out.append(simplex_weights([a, b, c]))
        i += n
    return out


def _simplices(x, space: _Space) -> list:
    """The simplices of search vector ``x``: ``_decode``'s weights, stored as they are."""
    blocks = space.blocks
    if len(x) != sum(blocks):
        raise ValueError(f"expected {sum(blocks)} coordinates, got {len(x)}")
    return [simplex._stored(weights) for simplex, weights
            in zip(space.simplices, _decode([float(v) for v in x], blocks))]


class _Space(NamedTuple):
    """A search space: the simplex type of each block of its search vector,
    in allocation field order, and the explicit starts of each weight's
    first restarts, block by block."""

    simplices: tuple[type, ...]
    corners: tuple[tuple[tuple[float, ...], ...], ...]

    @property
    def blocks(self) -> tuple[int, ...]:
        """The size of each block, the number of its simplex's weights."""
        return tuple(len(simplex.__dataclass_fields__) for simplex in self.simplices)


# The corner starts pair zero-duration phases with zero power mass, so every
# start evaluates cleanly.
_TC = _Space(tuple(get_type_hints(TcAllocation).values()), (
    ((1, 1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1, 1), (1, 1, 1)),
    ((0, 0, 1), (0, 1), (0, 1), (1, 1), (1, 1), (1, 1, 1), (1, 1, 1)),
    ((1, 0, 1.4), (1, 1), (0, 1), (1, 0), (1, 1), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 1.4), (0, 1), (1, 1), (1, 1), (1, 0), (0, 0, 1), (0, 1, 0)),
    ((1, 1, 1.4), (1, 1), (1, 1), (1, 0.5), (1, 0.5), (1, 2, 1), (1, 2, 1)),
    ((0, 0, 1), (0, 1), (0, 1), (1, 1), (1, 1), (1, 0, 0), (1, 0, 0)),
))
_RC = _Space(tuple(get_type_hints(RcAllocation).values()), (
    ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1), (1, 1)),
    ((1.4, 1, 1), (1.4, 1, 1), (1.4, 1, 1), (1, 1), (1, 1)),
    ((1, 1, 0.3), (1, 1, 0), (0, 0, 1), (1, 0), (1, 1)),
    ((1, 0.3, 1), (0, 1, 0), (1, 0, 1), (1, 1), (1, 0)),
    ((0, 1, 1), (0, 1, 1), (0, 1, 1), (1, 1), (1, 1)),
))
# The two joint-phase power splits (mu, eta) of TC at c12 = +inf.
_LIMIT = _Space((Simplex3, Simplex3), (
    ((1, 1, 1), (1, 1, 1)),
    ((0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (0, 1, 0)),
    ((1, 0, 0), (1, 0, 0)),
    ((0, 1, 1), (0, 1, 1)),
))


def tc_allocation_from_vector(x) -> TcAllocation:
    """Map an unconstrained 17-vector to a transmitter-cooperation allocation."""
    return TcAllocation(*_simplices(x, _TC))


def rc_allocation_from_vector(x) -> RcAllocation:
    """Map an unconstrained 13-vector to a receiver-cooperation allocation."""
    return RcAllocation(*_simplices(x, _RC))


def _start_vector(seed: int, weight_index: int, restart_index: int,
                  space: _Space) -> np.ndarray:
    if restart_index < len(space.corners):
        return np.asarray([w for block in space.corners[restart_index] for w in block],
                          dtype=float)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(seed, weight_index, restart_index)))
    return rng.standard_normal(sum(space.blocks))


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    """x0 plus one vertex a fixed step along each axis (a function of x0 alone)."""
    return np.vstack([x0, x0 + _SIMPLEX_STEP * np.eye(len(x0))])


class SearchResult(NamedTuple):
    """How one ``minimize`` run ended."""

    x: np.ndarray  # the best vertex
    nfev: int  # objective evaluations made
    success: bool  # False when the evaluation budget or the iteration cap ended the run


class _BudgetSpent(Exception):
    """The next evaluation would exceed the run's budget."""


def minimize(f, x0, max_iter: int) -> SearchResult:
    """Nelder-Mead minimization of ``f`` from the simplex ``_initial_simplex(x0)``.

    Takes exactly the steps of scipy's Nelder-Mead (1.17, ``adaptive=False``,
    no bounds) with ``maxiter=max_iter``, ``maxfev=2*max_iter``,
    ``fatol=_FATOL`` and ``xatol=_XATOL``, so a run gives the same bytes:
    reflection 1, expansion 2, contraction and shrink 1/2; the centroid adds
    the kept rows in rank order (``np.add.reduce``); vertices are ranked by
    ``np.argsort``, whose order of tied values (penalties, coordinates the
    objective ignores) is numpy's unstable sort's.  ``f`` gets each vertex as
    a list of floats.  The evaluation that would exceed the budget is not
    made and ends the run; a shrink already partly applied stays applied.
    """
    max_fev = 2 * max_iter
    sim = _initial_simplex(np.asarray(x0, dtype=float))
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def evaluate(x):
        nonlocal nfev
        if nfev >= max_fev:
            raise _BudgetSpent
        nfev += 1
        return f(x.tolist())

    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # scipy ranks the first simplex twice; the second sort may move ties
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    iterations = 1
    while nfev < max_fev and iterations < max_iter:
        try:
            # fsim is ranked, so its last minus its first is the largest spread.
            if fsim[-1] - fsim[0] <= _FATOL and np.max(np.abs(sim[1:] - sim[0])) <= _XATOL:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            worst = sim[-1]
            xr = 2.0 * xbar - worst
            fxr = evaluate(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = 3.0 * xbar - 2.0 * worst
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * worst
                fxc = evaluate(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = 0.5 * xbar + 0.5 * worst
                fxcc = evaluate(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = evaluate(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return SearchResult(sim[0], nfev, nfev < max_fev and iterations < max_iter)


def _neg_objective(score, weight: float, penalized: Counter):
    """The function a search minimizes: -(r1 + weight*r2) of a search vector,
    or _PENALTY, counted in ``penalized`` by error type, when ``score`` raises.
    At weight +inf it is -r2; the factors (0, 1) and (1, weight) are exact,
    so each objective is the float of its formula."""
    k1, k2 = (0.0, 1.0) if math.isinf(weight) else (1.0, weight)

    def f(xs):
        try:
            r1, r2 = score(xs, weight)
        except EvaluatorError as exc:
            penalized[type(exc).__name__] += 1
            return _PENALTY
        return -(k1 * r1 + k2 * r2)

    return f


def _sweep(searches, opts: TraceOptions):
    """Multi-start direct search: each search, then each weight, then each restart.

    ``searches`` are (space, score, revalidate) triples (see ``_searches``).
    Each start is one ``minimize`` run with ``max_iter=opts.max_iter`` (at
    most twice as many evaluations); tied vertices rank in ``np.argsort``'s
    order, so the runs are those scipy's Nelder-Mead would make.
    ``score(xs, weight)`` maps the coordinates of a search vector (a list of
    floats) to (r1, r2) or raises EvaluatorError; ``revalidate(x, weight)``
    maps a search result to (r1, r2, allocation) through the public API.
    Returns the re-validated maximizers and the trace's ``TraceStats``.
    """
    candidates: list[tuple[float, float, float, object]] = []
    penalized: Counter = Counter()
    evaluations = runs = unconverged = 0
    for space, score, revalidate in searches:
        for widx, w in enumerate(opts.weights):
            objective = _neg_objective(score, w, penalized)
            for ridx in range(opts.restarts):
                x0 = _start_vector(opts.seed, widx, ridx, space)
                result = minimize(objective, x0, opts.max_iter)
                evaluations += result.nfev
                runs += 1
                unconverged += not result.success
                try:
                    r1, r2, alloc = revalidate(result.x, w)
                except EvaluatorError:
                    continue
                candidates.append((r1, r2, w, alloc))
    stats = TraceStats(evaluations, dict(sorted(penalized.items())), runs, unconverged)
    return candidates, stats


def _build_frontier(candidates, stats: TraceStats, scheme: str,
                    opts: TraceOptions) -> Frontier:
    by_vertex: dict[tuple[float, float], tuple[float, object]] = {}
    for r1, r2, w, alloc in candidates:
        by_vertex.setdefault((r1, r2), (w, alloc))
    vertices = hull([(r1, r2) for r1, r2, _, _ in candidates])
    points = []
    for v in vertices:
        w, alloc = by_vertex.get(v, (None, None))
        points.append(FrontierPoint(r1=v[0], r2=v[1], weight=w, allocation=alloc))
    return Frontier(points=tuple(points), scheme=scheme, options=opts, stats=stats)


def _searches(scheme: str, g: ChannelGains, p: PowerBudget) -> list:
    """The (space, score, revalidate) searches of a "TC", "RDPC", "RC" or
    "TC_inf" trace, in sweep order (see ``_sweep``).  TC_inf has one search
    per encoding order, user 1's first.  Kernels are looked up here and rate
    pairs and decoders at each call, never at import."""
    c, pw = kernel_args(g, p)
    if scheme == "RC":
        kernel, blocks = rxcoop.rc_kernel, _RC.blocks

        def score(xs, w):
            return kernel(c, pw, _decode(xs, blocks), w)

        def revalidate(x, w):
            alloc = rc_allocation_from_vector(x)
            pair = rxcoop.rc_rate_pair(g, p, alloc, weight=w)
            return pair.r1, pair.r2, alloc

        return [(_RC, score, revalidate)]
    if scheme == "TC_inf":
        kernel, blocks = txcoop.tc_limit_kernel, _LIMIT.blocks

        def in_order(user1_clean):
            def score(xs, _w):
                return kernel(c, pw, _decode(xs, blocks), user1_clean)

            def revalidate(x, _w):
                mu, eta = _simplices(x, _LIMIT)
                pair = txcoop.tc_limit_rate_pair(g, p, mu, eta, user1_clean)
                return pair.r1, pair.r2, (mu, eta, user1_clean)

            return _LIMIT, score, revalidate

        return [in_order(True), in_order(False)]
    kernel, blocks = (txcoop.tc_kernel if scheme == "TC" else txcoop.rdpc_kernel), _TC.blocks

    def score(xs, _w):
        return kernel(c, pw, _decode(xs, blocks))

    def revalidate(x, _w):
        alloc = tc_allocation_from_vector(x)
        pair_fn = txcoop.tc_rate_pair if scheme == "TC" else txcoop.rdpc_rate_pair
        pair = pair_fn(g, p, alloc)
        return pair.r1, pair.r2, alloc

    return [(_TC, score, revalidate)]


def trace(scheme: str, g: ChannelGains, p: PowerBudget,
          opts: TraceOptions | None = None) -> Frontier:
    """Trace the Pareto frontier of an achievable scheme.

    ``scheme`` is "TC", "RDPC" (transmitter cooperation and its
    no-coherent-combining baseline) or "RC" (receiver cooperation).
    This is the one place that routes infinite conferencing gains: TC at
    c12 = +inf goes to ``trace_tc_limit`` and RC at c34 = +inf to
    ``trace_rc_limit``, each with its own defaults when ``opts`` is None.
    RDPC has no limit mode and raises InfiniteGain at c12 = +inf.
    """
    scheme = scheme.upper()
    if scheme == "TC" and math.isinf(g.c12):
        return trace_tc_limit(g, p, opts)
    if scheme == "RC" and math.isinf(g.c34):
        return trace_rc_limit(g, p, opts)
    if scheme not in ("TC", "RDPC", "RC"):
        raise ValueError(f"unknown scheme {scheme!r}; expected TC, RDPC or RC")
    if scheme == "RDPC" and math.isinf(g.c12):
        raise InfiniteGain("c12 is infinite: frontier.trace has a limit for TC, not RDPC")
    opts = opts or TraceOptions()
    return _build_frontier(*_sweep(_searches(scheme, g, p), opts), scheme, opts)


def _limit_options(opts: TraceOptions | None) -> TraceOptions:
    if opts is not None:
        return opts
    # The limit sweeps are low-dimensional; spend the budget on weights so
    # the polygonal frontier tracks the smooth region boundary closely.
    return TraceOptions(weights=default_weights(65), restarts=6, max_iter=250)


def trace_tc_limit(g: ChannelGains, p: PowerBudget,
                   opts: TraceOptions | None = None) -> Frontier:
    """Frontier of transmitter cooperation at c12 = +inf.

    Sweeps the joint-phase power splits under both encoding orders (the two
    sources act as one two-antenna transmitter, so the order is free).
    Raises NotInfinite when c12 is finite.
    """
    if not math.isinf(g.c12):
        raise NotInfinite("c12 is finite; use frontier.trace")
    opts = _limit_options(opts)
    return _build_frontier(*_sweep(_searches("TC_inf", g, p), opts), "TC_inf", opts)


def trace_rc_limit(g: ChannelGains, p: PowerBudget,
                   opts: TraceOptions | None = None) -> Frontier:
    """Frontier of receiver cooperation at c34 = +inf.

    The limit region is the fixed two-antenna multiple-access pentagon, so
    its frontier is the pentagon's two corners, taken at weights 0 and +inf
    (one vertex when they coincide); no search is needed and the weights of
    ``opts`` are not used.
    """
    candidates = []
    for w in (0.0, math.inf):
        pair = rxcoop.rc_limit_rate_pair(g, p, weight=w)
        candidates.append((pair.r1, pair.r2, w, None))
    return _build_frontier(candidates, TraceStats(), "RC_inf", _limit_options(opts))


# ---------------------------------------------------------------------------
# Hull and region geometry


def hull(points) -> list[tuple[float, float]]:
    """Upper-right convex (Pareto) hull of nonnegative rate pairs.

    Returns the Pareto vertices ordered by r1 descending.  Dominated,
    duplicate and chord-collinear points are removed (collinearity measured
    against 1e-9 times the bounding box, so vertices are stable under
    small perturbations such as 12-digit rounding).  Input order never
    matters.  Idempotent.
    """
    best_y: dict[float, float] = {}
    for x, y in points:
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite rate point ({x}, {y})")
        x, y = max(x, 0.0), max(y, 0.0)
        if x not in best_y or y > best_y[x]:
            best_y[x] = y
    if not best_y:
        return [(0.0, 0.0)]
    # Pareto filter: scan x descending, keep strictly rising y.
    pareto: list[tuple[float, float]] = []
    top = -math.inf
    for x in sorted(best_y, reverse=True):
        y = best_y[x]
        if y > top:
            pareto.append((x, y))
            top = y
    pareto.reverse()  # x ascending, y descending
    if len(pareto) <= 2:
        return pareto[::-1]
    span_x = pareto[-1][0] - pareto[0][0]
    span_y = pareto[0][1] - pareto[-1][1]
    cross_tol = 1e-9 * max(1e-30, span_x * span_y)
    chain: list[tuple[float, float]] = []
    for pt in pareto:
        chain.append(pt)
        while len(chain) >= 3:
            (xa, ya), (xb, yb), (xc, yc) = chain[-3], chain[-2], chain[-1]
            cross = (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa)
            if cross >= -cross_tol:  # middle point on/below the chord
                chain.pop(-2)
            else:
                break
    chain.reverse()
    return chain


def _ceiling(vertices_desc, x: float) -> float:
    """Max r2 of the region at abscissa x, which is at most its r1 reach."""
    v = vertices_desc
    if x <= v[-1][0]:
        return v[-1][1]
    for i in range(len(v) - 1):
        xa, ya = v[i]
        xb, yb = v[i + 1]
        if xb <= x <= xa:
            if xa == xb:
                return max(ya, yb)
            # Exact at the vertices: yb + 1*(ya - yb) can round below ya.
            if x == xa:
                return ya
            if x == xb:
                return yb
            t = (x - xb) / (xa - xb)
            return yb + t * (ya - yb)
    return v[-1][1]


def _vertices_of(region) -> list[tuple[float, float]]:
    if hasattr(region, "vertices"):
        return list(region.vertices())
    return list(region)


def _inside(vertices_desc, x: float, y: float, tol: float) -> bool:
    if x < -tol or y < -tol:
        return False
    if x > vertices_desc[0][0] + tol:
        return False
    return y <= _ceiling(vertices_desc, min(x, vertices_desc[0][0])) + tol


def _region_polygon(vertices_desc) -> list[tuple[float, float]]:
    """Closed boundary of the region (origin, bottom edge, frontier, left edge)."""
    x0 = vertices_desc[0][0]
    yk = vertices_desc[-1][1]
    poly: list[tuple[float, float]] = [(0.0, 0.0)]
    if x0 > 0.0:
        poly.append((x0, 0.0))
    for pt in vertices_desc:
        if pt != poly[-1]:
            poly.append(pt)
    if yk > 0.0 and poly[-1] != (0.0, yk):
        poly.append((0.0, yk))
    return poly


def _segment_distance(p, a, b) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    norm2 = dx * dx + dy * dy
    if norm2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / norm2))
    return math.hypot(px - ax - t * dx, py - ay - t * dy)


def region_deviation(region_a, region_b) -> float:
    """How far region_a sticks out of region_b, in bits (0 when contained).

    Exact for convex regions: the maximum of the distance-to-b over a's
    boundary is attained at a's polygon vertices.
    """
    va, vb = _vertices_of(region_a), _vertices_of(region_b)
    poly_b = _region_polygon(vb)
    edges = list(zip(poly_b, poly_b[1:] + poly_b[:1]))
    worst = 0.0
    for pt in _region_polygon(va):
        if _inside(vb, pt[0], pt[1], 0.0):
            continue
        worst = max(worst, min(_segment_distance(pt, a, b) for a, b in edges))
    return worst


def hausdorff(region_a, region_b) -> float:
    """Hausdorff distance between two rate regions (as filled sets)."""
    return max(region_deviation(region_a, region_b),
               region_deviation(region_b, region_a))


def dominates(region_a, region_b, tol: float = 0.0) -> bool:
    """True iff every point of region_b lies inside region_a expanded by tol."""
    va, vb = _vertices_of(region_a), _vertices_of(region_b)
    return all(_inside(va, x, y, tol) for x, y in vb)


def equal_rate_value(region) -> float:
    """Largest t with (t, t) inside the region (the symmetric-rate point)."""
    v = _vertices_of(region)
    lo, hi = 0.0, max(v[0][0], v[-1][1]) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _inside(v, mid, mid, 0.0):
            lo = mid
        else:
            hi = mid
    return lo
