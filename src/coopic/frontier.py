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

Each evaluation of the search decodes the vector once (``x.tolist()``) into
the shares the allocation's simplices would store and scores them with the
scheme's float kernel (``txcoop.tc_kernel``, ``rxcoop.rc_kernel``, ...);
no dataclass is built per evaluation.  Each Nelder-Mead result is then
re-validated through the public decoder and rate pair, which build the
returned allocation and give the same floats.  ``Frontier.stats`` counts
the evaluations, the penalized ones by error type, and the runs that did not
converge.

Everything is deterministic for a fixed seed: start k of weight j is a pure
function of (seed, j, k), so growing the restart budget only appends starts.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .model import (
    ChannelGains,
    EvaluatorError,
    InfiniteGain,
    NotInfinite,
    PowerBudget,
    RcAllocation,
    Simplex2,
    Simplex3,
    TcAllocation,
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
# Simplex block sizes of each search vector, in allocation field order.
_TC_BLOCKS = (3, 2, 2, 2, 2, 3, 3)
_RC_BLOCKS = (3, 3, 3, 2, 2)
_LIMIT_BLOCKS = (3, 3)
_TC_DIM = sum(_TC_BLOCKS)
_RC_DIM = sum(_RC_BLOCKS)
_LIMIT_DIM = sum(_LIMIT_BLOCKS)


def default_weights(n: int = 33, span: float = 6.0) -> tuple[float, ...]:
    """Log-spaced scalarization weights 2**[-span, span] plus the two axes."""
    if n < 2:
        grid = (1.0,)
    else:
        grid = tuple(2.0 ** (-span + 2.0 * span * i / (n - 1)) for i in range(n))
    return (0.0,) + grid + (math.inf,)


@dataclass(frozen=True)
class TraceOptions:
    """Optimizer budget and reproducibility knobs for a frontier trace."""

    weights: tuple[float, ...] = field(default_factory=default_weights)
    restarts: int = 32
    max_iter: int = 400
    seed: int = 0


@dataclass(frozen=True)
class TraceStats:
    """How a trace got its answer.

    evaluations -- objective evaluations over all Nelder-Mead runs (sum of nfev)
    penalized   -- evaluations that raised, by EvaluatorError subclass name
    runs        -- Nelder-Mead runs
    unconverged -- runs that ended with success=False (evaluation budget spent)
    """

    evaluations: int = 0
    penalized: dict[str, int] = field(default_factory=dict)
    runs: int = 0
    unconverged: int = 0

    def __add__(self, other: "TraceStats") -> "TraceStats":
        penalized = Counter(self.penalized) + Counter(other.penalized)
        return TraceStats(self.evaluations + other.evaluations, dict(sorted(penalized.items())),
                          self.runs + other.runs, self.unconverged + other.unconverged)


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


def _squares(xs: list[float], blocks) -> list[list[float]]:
    """Per block, x_i^2 / sum(x^2); uniform when the block is all (near) zero."""
    out = []
    start = 0
    for n in blocks:
        block = xs[start:start + n]
        start += n
        total = 0.0
        for x in block:
            total += x * x
        out.append([1.0 / n] * n if total < 1e-300 else [x * x / total for x in block])
    return out


def _decode(xs: list[float], blocks) -> list[float]:
    """The shares the decoded allocation's simplices store, flat in field order."""
    shares = []
    for block in _squares(xs, blocks):
        shares += simplex_weights(block)
    return shares


def _simplices(x, blocks) -> list:
    return [(Simplex2 if len(block) == 2 else Simplex3)(*block)
            for block in _squares([float(v) for v in x], blocks)]


def tc_allocation_from_vector(x) -> TcAllocation:
    """Map an unconstrained 17-vector to a transmitter-cooperation allocation."""
    if len(x) != _TC_DIM:
        raise ValueError(f"expected {_TC_DIM} coordinates, got {len(x)}")
    return TcAllocation(*_simplices(x, _TC_BLOCKS))


def rc_allocation_from_vector(x) -> RcAllocation:
    """Map an unconstrained 13-vector to a receiver-cooperation allocation."""
    if len(x) != _RC_DIM:
        raise ValueError(f"expected {_RC_DIM} coordinates, got {len(x)}")
    return RcAllocation(*_simplices(x, _RC_BLOCKS))


def _limit_splits_from_vector(x) -> tuple[Simplex3, Simplex3]:
    mu, eta = _simplices(x, _LIMIT_BLOCKS)
    return mu, eta


# Explicit boundary starts: zero-duration phases always paired with zero
# power mass so every start evaluates cleanly.
_TC_CORNER_STARTS = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1, 0, 1.4, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 1),
    (0, 1, 1.4, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0),
    (1, 1, 1.4, 1, 1, 1, 1, 1, 0.5, 1, 0.5, 1, 2, 1, 1, 2, 1),
    (0, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0),
)

_RC_CORNER_STARTS = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (1.4, 1, 1, 1.4, 1, 1, 1.4, 1, 1, 1, 1, 1, 1),
    (1, 1, 0.3, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1),
    (1, 0.3, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0),
    (0, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1),
)

_LIMIT_CORNER_STARTS = (
    (1, 1, 1, 1, 1, 1),
    (0, 1, 0, 0, 0, 1),
    (0, 0, 1, 0, 1, 0),
    (0, 1, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 0),
    (0, 1, 1, 0, 1, 1),
)


def _start_vector(seed: int, weight_index: int, restart_index: int, dim: int,
                  corners) -> np.ndarray:
    if restart_index < len(corners):
        return np.asarray(corners[restart_index], dtype=float)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(seed, weight_index, restart_index)))
    return rng.standard_normal(dim)


def _initial_simplex(x0: np.ndarray) -> np.ndarray:
    """x0 plus one vertex a fixed step along each axis (a function of x0 alone)."""
    return np.vstack([x0, x0 + _SIMPLEX_STEP * np.eye(len(x0))])


def _scalarize(r1: float, r2: float, weight: float) -> float:
    if math.isinf(weight):
        return r2
    return r1 + weight * r2


def _sweep(score, revalidate, dim: int, corners, opts: TraceOptions):
    """Multi-start direct search per weight.

    ``score(xs, weight)`` maps the coordinates of a search vector (a list of
    floats) to (r1, r2) or raises EvaluatorError; ``revalidate(x, weight)``
    maps a search result to (r1, r2, allocation) through the public API.
    Returns the re-validated maximizers and the search's ``TraceStats``.
    """
    candidates: list[tuple[float, float, float, object]] = []
    penalized: Counter = Counter()
    evaluations = runs = unconverged = 0
    for widx, w in enumerate(opts.weights):

        def neg_objective(x, _w=w):
            try:
                r1, r2 = score(x.tolist(), _w)
            except EvaluatorError as exc:
                penalized[type(exc).__name__] += 1
                return _PENALTY
            return -_scalarize(r1, r2, _w)

        for ridx in range(opts.restarts):
            x0 = _start_vector(opts.seed, widx, ridx, dim, corners)
            result = minimize(
                neg_objective, x0, method="Nelder-Mead",
                options={"maxiter": opts.max_iter, "maxfev": 2 * opts.max_iter,
                         "fatol": _FATOL, "xatol": _XATOL, "adaptive": False,
                         "initial_simplex": _initial_simplex(x0)})
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


def _build_frontier(candidates, scheme: str, opts: TraceOptions,
                    stats: TraceStats) -> Frontier:
    by_vertex: dict[tuple[float, float], tuple[float, object]] = {}
    for r1, r2, w, alloc in candidates:
        by_vertex.setdefault((r1, r2), (w, alloc))
    vertices = hull([(r1, r2) for r1, r2, _, _ in candidates])
    points = []
    for v in vertices:
        w, alloc = by_vertex.get(v, (None, None))
        points.append(FrontierPoint(r1=v[0], r2=v[1], weight=w, allocation=alloc))
    return Frontier(points=tuple(points), scheme=scheme, options=opts, stats=stats)


def _tc_search(scheme: str, g: ChannelGains, p: PowerBudget):
    """(score, revalidate) of a TC or RDPC search (see ``_sweep``)."""
    c, pw = txcoop.kernel_args(g, p)
    kernel = txcoop.tc_kernel if scheme == "TC" else txcoop.rdpc_kernel

    def score(xs, _w):
        return kernel(c, pw, _decode(xs, _TC_BLOCKS))

    def revalidate(x, _w):
        alloc = tc_allocation_from_vector(x)
        pair_fn = txcoop.tc_rate_pair if scheme == "TC" else txcoop.rdpc_rate_pair
        pair = pair_fn(g, p, alloc)
        return pair.r1, pair.r2, alloc

    return score, revalidate


def _rc_search(g: ChannelGains, p: PowerBudget):
    """(score, revalidate) of an RC search (see ``_sweep``)."""
    c, pw = rxcoop.kernel_args(g, p)
    kernel = rxcoop.rc_kernel

    def score(xs, w):
        return kernel(c, pw, _decode(xs, _RC_BLOCKS), w)

    def revalidate(x, w):
        alloc = rc_allocation_from_vector(x)
        pair = rxcoop.rc_rate_pair(g, p, alloc, weight=w)
        return pair.r1, pair.r2, alloc

    return score, revalidate


def _tc_limit_search(g: ChannelGains, p: PowerBudget, user1_clean: bool):
    """(score, revalidate) of a c12 = +inf search in one encoding order."""
    c, pw = txcoop.kernel_args(g, p)
    kernel = txcoop.tc_limit_kernel

    def score(xs, _w):
        return kernel(c, pw, _decode(xs, _LIMIT_BLOCKS), user1_clean)

    def revalidate(x, _w):
        mu, eta = _limit_splits_from_vector(x)
        pair = txcoop.tc_limit_rate_pair(g, p, mu, eta, user1_clean)
        return pair.r1, pair.r2, (mu, eta, user1_clean)

    return score, revalidate


def trace(scheme: str, g: ChannelGains, p: PowerBudget,
          opts: TraceOptions | None = None) -> Frontier:
    """Trace the Pareto frontier of an achievable scheme at finite gains.

    ``scheme`` is "TC", "RDPC" (transmitter cooperation and its
    no-coherent-combining baseline) or "RC" (receiver cooperation).
    Infinite conferencing gains must go through the limit-mode tracers.
    """
    opts = opts or TraceOptions()
    scheme = scheme.upper()
    if scheme in ("TC", "RDPC"):
        if math.isinf(g.c12):
            raise InfiniteGain("c12 is infinite; use tc_limit_region")
        candidates, stats = _sweep(*_tc_search(scheme, g, p), _TC_DIM, _TC_CORNER_STARTS, opts)
    elif scheme == "RC":
        if math.isinf(g.c34):
            raise InfiniteGain("c34 is infinite; use rc_limit_region")
        candidates, stats = _sweep(*_rc_search(g, p), _RC_DIM, _RC_CORNER_STARTS, opts)
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected TC, RDPC or RC")
    return _build_frontier(candidates, scheme, opts, stats)


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
    candidates, stats = [], TraceStats()
    for user1_clean in (True, False):
        found, order_stats = _sweep(*_tc_limit_search(g, p, user1_clean), _LIMIT_DIM,
                                    _LIMIT_CORNER_STARTS, opts)
        candidates += found
        stats += order_stats
    return _build_frontier(candidates, "TC_inf", opts, stats)


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
    return _build_frontier(candidates, "RC_inf", _limit_options(opts), TraceStats())


# ---------------------------------------------------------------------------
# Hull and region geometry


def hull(points, tol: float = 1e-9) -> list[tuple[float, float]]:
    """Upper-right convex (Pareto) hull of nonnegative rate pairs.

    Returns the Pareto vertices ordered by r1 descending.  Dominated,
    duplicate and chord-collinear points are removed (collinearity measured
    against ``tol`` scaled by the bounding box, so vertices are stable under
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
    cross_tol = tol * max(1e-30, span_x * span_y)
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
    """Max r2 of the region at abscissa x; -inf beyond the region's r1 reach."""
    v = vertices_desc
    if x > v[0][0]:
        return -math.inf
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
    if isinstance(region, Frontier):
        return region.vertices()
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
