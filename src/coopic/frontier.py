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

The search is this module's ``minimize``: one Nelder-Mead run per row of
its start array, each taking exactly the steps of scipy's Nelder-Mead, so
the package needs numpy alone.  The order of tied vertices (penalties,
coordinates the objective ignores) is the one ``np.argsort`` gives.  Each
search space (``_TC``, ``_RC``, ``_LIMIT``) is one ``_Space``: the simplex
type of each block of its search vector, read from the allocation's field
annotations, its corner starts and its objective kernel.  ``_searches``
lists what a trace runs, one (space, score, revalidate) search for TC,
RDPC and RC and one per encoding order for TC at c12 = +inf.

Jobs, groups and chunks.  ``trace_many`` takes jobs, (scheme, g, p)
triples; ``trace`` is its one-job case.  Jobs whose searches share a space
and options form a group (TC and RDPC on any channels, RC, or TC at
c12 = +inf), and ``_sweep`` runs every run of a group (job, search, weight,
restart) as one lockstep, in chunks of at most ``_BATCH`` runs, which may
straddle searches and jobs.  ``minimize`` holds a chunk's simplices as one
vertex-major (n + 1, runs, n) array, and each lockstep iteration scores the
reflections of every live run as one batch ``f(runs, X)``, then their
expansions and contractions, then their shrinks; a run that ends leaves
that array, so each iteration works on whole arrays of live runs.  While
``_COLUMN_ROWS`` to ``_PAIRED_RUNS`` runs are live, the reflections' batch
also holds each run's inside contraction, 0.5 xbar + 0.5 worst, which is
known before the reflection is scored, so the second batch carries only
expansions and outside contractions; a paired point counts (in ``nfev``
and in the penalties) only where its run takes it.  A run's steps depend
on its own values alone, so each job gets the runs, counts and
candidates, in order, of its lone trace.  What differs between the
searches of a batch, gains ``c``, powers ``pw`` and the scheme variant
(TC's covariance rule, the TC limit's encoding order), the kernels read
as lane columns (``_lane_inputs``); what they share stays a float, so a
lone trace makes exactly the operations it always made.  A batch's kernel
call has a fixed cost plus a small one per lane, so one lockstep over
several jobs costs much less than one per job.
``_decode`` is the one map from a search vector to simplex weights: per
block it squares, normalizes, checks and renormalizes, giving the weights
``Simplex2``/``Simplex3`` would store for the block's squares; over columns
it takes every block of one size at once (``ops.grouped``).  ``score``
passes its blocks to the scheme's kernel (``txcoop.tc_kernel``,
``rxcoop.rc_kernel``, ...) and builds no dataclass per evaluation.  Decode
and kernels are written once over ``model``'s ``ops``: a batch is scored
over a ``model.ArrayOps`` (one column per coordinate, one lane per point),
and the few lanes it marks suspect are re-scored on floats, which gives
each lane the float path's bits or its error (``_batch_objective``).
``revalidate`` passes each Nelder-Mead result through the public decoder
(``tc_/rc_allocation_from_vector``, ``_simplices`` for the limit), which
stores ``_decode``'s weights as they are (``_Simplex._stored``), and the
rate pair, which gives the same floats.  ``model.simplex_weights`` stays
the rule for every simplex a user builds and ``_decode``'s raise path.
``Frontier.stats`` counts the evaluations, the penalized ones by error
type, the runs that did not converge and the runs dropped by re-validation.

Region geometry: a region is convex and down-closed in the quadrant, given
as a ``Frontier``, an ``OuterBound`` or rate points in any order, and each
geometry function takes it through ``hull`` (an empty region is the
origin).  As u >= 0 turns from (1, 0) to (0, 1), the region's support
point (the maximizer of u.r) steps from hull vertex to hull vertex at each
frontier edge's normal.  ``region_deviation`` walks both regions' steps at
once, and ``equal_rate_value`` is the least h(u)/(u1 + u2) over the edge
normals.  ``dominates`` tests points against the ceiling, per axis.

Everything is deterministic for a fixed seed: start k of weight j is a pure
function of (seed, j, k), so growing the restart budget only appends starts.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import (
    FLOAT_OPS,
    ArrayOps,
    ChannelGains,
    EvaluatorError,
    InfiniteGain,
    PowerBudget,
    RcAllocation,
    Simplex3,
    TcAllocation,
    _SIMPLEX_SUM_TOL,
    _conferencing_args,
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
    "trace_many",
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
# Most Nelder-Mead runs one ``minimize`` call advances in lockstep, so the
# memory of a trace does not grow with its weights times restarts.
_BATCH = 256
# Fewest points scored over columns in one call: below it the column ops'
# fixed cost per call outweighs what they save per point (the break-even is
# 16 to 24 points for the TC, RC and TC-limit scores), so they are scored on
# floats, with the same bits.
_COLUMN_ROWS = 20
# Most live runs whose inside contractions the lockstep scores in the call of
# their reflections (from _COLUMN_ROWS runs on): the second-point call it
# saves costs more than the points it adds up to about 69 live runs for TC,
# 73 for RC and 90 for the TC limit (an iteration's time by its live runs,
# lone traces), so TC's bound, rounded down, serves every space.
_PAIRED_RUNS = 64
# Most weights ``default_weights`` builds, restarts per weight and iterations
# per run that ``TraceOptions`` takes (a trace runs weights x restarts runs of
# up to 2 x max_iter evaluations), so no count that passes validation makes
# a trace that never ends.
MAX_WEIGHTS = 10_000
MAX_RESTARTS = 10_000
MAX_ITER = 100_000


def default_weights(n: int = 33) -> tuple[float, ...]:
    """``n`` log-spaced scalarization weights 2**[-6, 6] (1 if n = 1) plus both axes;
    ValueError unless n is an integer in [0, ``MAX_WEIGHTS``]."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 0 <= n <= MAX_WEIGHTS:
        raise ValueError(f"count {n!r} is not an integer in [0, {MAX_WEIGHTS}]")
    if n == 1:
        grid = (1.0,)
    else:
        grid = tuple(2.0 ** (-6.0 + 12.0 * i / (n - 1)) for i in range(n))
    return (0.0,) + grid + (math.inf,)


@dataclass(frozen=True)
class TraceOptions:
    """Optimizer budget and reproducibility knobs; at least one weight, each
    in [0, +inf], integer restarts in [1, ``MAX_RESTARTS``] and max_iter in
    [1, ``MAX_ITER``], and an integer seed at least 0 (no bool is a weight,
    count or seed)."""

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
            valid = bool(self.weights) and all(
                w >= 0.0 and not isinstance(w, (bool, np.bool_)) for w in self.weights)
        except TypeError:  # a non-numeric weight
            valid = False
        if not valid:
            raise ValueError(f"weights {self.weights}: need at least one, each >= 0 or inf")
        counts = (self.restarts, self.max_iter, self.seed)
        try:
            valid = (not any(isinstance(n, bool) for n in counts)
                     and 1 <= operator.index(self.restarts) <= MAX_RESTARTS
                     and 1 <= operator.index(self.max_iter) <= MAX_ITER
                     and operator.index(self.seed) >= 0)
        except TypeError:  # a float or other non-integer count
            valid = False
        if not valid:
            raise ValueError(f"restarts {self.restarts!r}, max_iter {self.max_iter!r}, seed "
                             f"{self.seed!r}: need integers, restarts in [1, {MAX_RESTARTS}], "
                             f"max_iter in [1, {MAX_ITER}] and seed >= 0")


@dataclass(frozen=True)
class TraceStats:
    """How a trace got its answer.

    evaluations -- objective evaluations over all ``minimize`` runs (sum of
                   nfev); an inside contraction scored with its reflection
                   but not taken is none
    penalized   -- evaluations that raised, by EvaluatorError subclass name
    runs        -- Nelder-Mead runs, one per (search, weight, restart)
    unconverged -- runs that did not converge (evaluation budget or
                   iteration cap reached before the tolerances were met)
    dropped     -- runs whose result failed re-validation, so it is no candidate
    """

    evaluations: int = 0
    penalized: dict[str, int] = field(default_factory=dict)
    runs: int = 0
    unconverged: int = 0
    dropped: int = 0


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


def _decode(xs, blocks, ops=FLOAT_OPS) -> list[list[float]]:
    """The weights each simplex of the decoded allocation stores, one list per block.

    The package's one decode of a search vector: per block, x_i^2 / sum(x^2)
    (uniform when the block is all (near) zero), then ``simplex_weights``'
    check (sum within ``_SIMPLEX_SUM_TOL`` of 1; the weights are squares
    over their total, so only a NaN one can fail to be >= 0, and it makes
    the sum NaN) and its division by the ``math.fsum`` of the weights (for
    two floats, their sum); so each list is bit for bit what
    ``Simplex2``/``Simplex3`` built from the block's squares would store.
    A block that fails the check (a NaN coordinate, an overflowed square or
    total) goes to ``simplex_weights``, which raises its InvalidAllocation.
    The formula, unrolled for the two block sizes, runs once per block of
    ``ops.grouped``: each block of the floats ``xs``, or over an
    ``ArrayOps`` (``xs`` one row per coordinate, one column per lane) all
    blocks of one size as one, in place on one gathered copy; an all-zero
    block and a failed check are then rare lanes.
    """
    out = []
    i = 0
    xs, groups = ops.grouped(xs, blocks)
    for n in groups:
        if n == 2:
            a, b = xs[i], xs[i + 1]
            a *= a
            b *= b
            total = a + b
            if ops.rare(total < 1e-300):
                a = b = 0.5
            else:
                a /= total
                b /= total
            total = a + b
            if ops.rare_unless(abs(total - 1.0) <= _SIMPLEX_SUM_TOL):  # a NaN sum fails
                out.append(simplex_weights([a, b]))
            else:
                out.append([a / total, b / total])
        else:
            a, b, c = xs[i], xs[i + 1], xs[i + 2]
            a *= a
            b *= b
            c *= c
            total = a + b + c
            if ops.rare(total < 1e-300):
                a = b = c = 1.0 / 3
            else:
                a /= total
                b /= total
                c /= total
            total = ops.fsum3(a, b, c)
            if ops.rare_unless(abs(total - 1.0) <= _SIMPLEX_SUM_TOL):
                out.append(simplex_weights([a, b, c]))
            else:
                out.append([a / total, b / total, c / total])
        i += n
    return ops.ungrouped(out, blocks)


def _simplices(x, space: _Space) -> list:
    """The simplices of search vector ``x``: ``_decode``'s weights, stored as they are."""
    blocks = space.blocks
    if len(x) != sum(blocks):
        raise ValueError(f"expected {sum(blocks)} coordinates, got {len(x)}")
    return [simplex._stored(weights) for simplex, weights
            in zip(space.simplices, _decode([float(v) for v in x], blocks))]


class _Space(NamedTuple):
    """A search space: the simplex type of each block of its search vector,
    in allocation field order, the explicit starts of each weight's first
    restarts, block by block, and the objective ``kernel(c, pw, a, variant,
    weight, ops)`` of its decoded blocks ``a`` (see ``_Score``)."""

    simplices: tuple[type, ...]
    corners: tuple[tuple[tuple[float, ...], ...], ...]
    kernel: object

    @property
    def blocks(self) -> tuple[int, ...]:
        """The size of each block, the number of its simplex's weights."""
        return tuple(len(simplex.__dataclass_fields__) for simplex in self.simplices)


# The spaces' objectives look their kernel up at each call, never at import.
def _tc_objective(c, pw, a, rdpc, _weight, ops):
    return txcoop.tc_kernel(c, pw, a, rdpc, ops)


def _rc_objective(c, pw, a, _variant, weight, ops):
    return rxcoop.rc_kernel(c, pw, a, weight, ops)


def _limit_objective(c, pw, a, user1_clean, _weight, ops):
    return txcoop.tc_limit_kernel(c, pw, a, user1_clean, ops)


# The corner starts pair zero-duration phases with zero power mass, so every
# start evaluates cleanly.
_TC = _Space(tuple(TcAllocation._layout.values()), (
    ((1, 1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1, 1), (1, 1, 1)),
    ((0, 0, 1), (0, 1), (0, 1), (1, 1), (1, 1), (1, 1, 1), (1, 1, 1)),
    ((1, 0, 1.4), (1, 1), (0, 1), (1, 0), (1, 1), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 1.4), (0, 1), (1, 1), (1, 1), (1, 0), (0, 0, 1), (0, 1, 0)),
    ((1, 1, 1.4), (1, 1), (1, 1), (1, 0.5), (1, 0.5), (1, 2, 1), (1, 2, 1)),
    ((0, 0, 1), (0, 1), (0, 1), (1, 1), (1, 1), (1, 0, 0), (1, 0, 0)),
), _tc_objective)
_RC = _Space(tuple(RcAllocation._layout.values()), (
    ((1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1), (1, 1)),
    ((1.4, 1, 1), (1.4, 1, 1), (1.4, 1, 1), (1, 1), (1, 1)),
    ((1, 1, 0.3), (1, 1, 0), (0, 0, 1), (1, 0), (1, 1)),
    ((1, 0.3, 1), (0, 1, 0), (1, 0, 1), (1, 1), (1, 0)),
    ((0, 1, 1), (0, 1, 1), (0, 1, 1), (1, 1), (1, 1)),
), _rc_objective)
# The two joint-phase power splits (mu, eta) of TC at c12 = +inf.
_LIMIT = _Space((Simplex3, Simplex3), (
    ((1, 1, 1), (1, 1, 1)),
    ((0, 1, 0), (0, 0, 1)),
    ((0, 0, 1), (0, 1, 0)),
    ((0, 1, 0), (0, 1, 0)),
    ((1, 0, 0), (1, 0, 0)),
    ((0, 1, 1), (0, 1, 1)),
), _limit_objective)
# The space each traced scheme searches ("RC_inf" searches none).
_SPACES = {"TC": _TC, "RDPC": _TC, "RC": _RC, "TC_inf": _LIMIT}


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
    """x0 plus one vertex a fixed step along each axis (a function of x0 alone):
    (n + 1, n) for one start, (runs, n + 1, n) for starts as rows of ``x0``."""
    x0 = x0[..., None, :]
    return np.concatenate((x0, x0 + _SIMPLEX_STEP * np.eye(x0.shape[-1])), axis=-2)


class SearchResult(NamedTuple):
    """How the runs of one ``minimize`` call ended, one row (``x``) or
    element per run."""

    x: np.ndarray  # each run's best vertex
    nfev: np.ndarray  # each run's objective evaluations
    converged: np.ndarray  # False where the evaluation budget or the iteration cap ended the run

    @property
    def success(self) -> bool:
        """True iff every run met the tolerances."""
        return bool(np.all(self.converged))


def minimize(f, x0, max_iter: int) -> SearchResult:
    """Nelder-Mead minimization of ``f`` from the simplices ``_initial_simplex``
    of the rows of ``x0`` (2-D, else ValueError), one run per row, in lockstep.

    Each run takes exactly the steps of scipy's Nelder-Mead (1.17,
    ``adaptive=False``, no bounds) with ``maxiter=max_iter``,
    ``maxfev=2*max_iter``, ``fatol=_FATOL`` and ``xatol=_XATOL``, so it gives
    the same bytes: reflection 1, expansion 2, contraction and shrink 1/2;
    the centroid adds the kept rows in rank order, row by row; vertices are
    ranked by ``np.argsort``, whose order of tied values (penalties,
    coordinates the objective ignores) is numpy's unstable sort's.  The
    evaluation that would exceed the budget is not made and ends the run; a
    shrink already partly applied stays applied.  The working simplices are
    one vertex-major (n + 1, runs, n) array; a run that has ended leaves it,
    so later batches hold only live runs' points.

    ``f(runs, X)`` gets the points of one step of several runs as the rows
    of ``X``, ``runs`` giving the run (row of ``x0``) of each, and returns
    their values as an array: each iteration makes one call of ``f`` for the
    reflections, one for the expansions and contractions, and one for the
    shrinks.  For an ``f`` with a ``count`` method (``_batch_objective``),
    while ``_COLUMN_ROWS`` to ``_PAIRED_RUNS`` runs are live, the
    reflections' call ``f(runs, X, quiet)`` also scores, as its last
    ``quiet`` rows, each run's inside contraction, which is an evaluation
    only where the run takes it: ``f`` holds those rows' penalties until
    ``f.count(taken)``.  An ``f`` without ``count`` sees only the points
    its runs take.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2:
        raise ValueError(f"x0 of shape {x0.shape}: need one start per row, (runs, n)")
    if not len(x0):  # no run, so no step could end the lockstep
        return SearchResult(x0, np.zeros(0, dtype=int), np.zeros(0, dtype=bool))
    sim, _, nfev, converged = _lockstep(f, x0, max_iter)
    return SearchResult(sim[:, 0], nfev, converged)


def _ranked(sim: np.ndarray, fsim: np.ndarray):
    """Each run's vertices (``sim``, vertex-major) and values (``fsim``, run-major)
    in ``np.argsort`` order of its values, each gathered by one ``take`` of flat rows."""
    order = np.argsort(fsim, axis=1)
    runs, width = np.arange(len(fsim)), fsim.shape[1]
    return (sim.reshape(-1, sim.shape[2]).take(order.T * len(runs) + runs, axis=0),
            fsim.take(order + width * runs[:, None]))


def _centroid(sim: np.ndarray) -> np.ndarray:
    """Each run's centroid of its ranked vertices but the worst, scipy's
    ``np.add.reduce(sim[:-1], 0) / n`` on the vertex-major ``sim``: one
    reduction over the leading vertex axis, which numpy adds row by row in
    rank order (it sums pairwise only along the contiguous last axis)."""
    return np.add.reduce(sim[:-1], axis=0) / sim.shape[2]


def _lockstep(f, x0: np.ndarray, max_iter: int):
    """``minimize`` of the runs starting at the rows of ``x0``: each run's
    final ranked simplex (run-major, (runs, n + 1, n)) and its values,
    evaluations and convergence flag.  Each lockstep iteration takes one
    Nelder-Mead step of every live run, with one call of ``f`` for the
    reflections, one for the expansions and contractions, and one for the
    shrinks; for an ``f`` with ``count``, while ``_COLUMN_ROWS`` to
    ``_PAIRED_RUNS`` runs are live, the first call also scores every run's
    inside contraction, quietly, and the second only the expansions and
    outside contractions.  Per-run budgets and iteration counts follow
    ``minimize``'s rules.  A run that ends (converged, or out of budget or
    iterations) has its simplex, values and counts written to the result
    and leaves the working arrays of live runs: ``sim``, vertex-major
    (n + 1, runs, n), ``fsim``, and ``ids``, each one's row of ``x0``."""
    max_fev = 2 * max_iter
    count_taken = getattr(f, "count", None)
    count, n = x0.shape
    sim = _initial_simplex(x0)  # run-major, so f gets each run's vertices without a copy
    fsim = np.full((count, n + 1), np.inf)
    first = min(n + 1, max_fev)  # a budget below n + 1 ends inside the first simplex
    fsim[:, :first] = f(np.repeat(np.arange(count), first),
                        sim[:, :first].reshape(-1, n)).reshape(count, first)
    sim = sim.swapaxes(0, 1)  # the first ranking gathers it vertex-major
    nfev = np.full(count, first)
    for _ in range(2):  # scipy ranks the first simplex twice; the second sort may move ties
        sim, fsim = _ranked(sim, fsim)
    iterations = np.ones(count, dtype=int)
    ids = np.arange(count)
    # The result: the working arrays of the first iteration in which a run
    # ends (later iterations work on copies), then each run's row as it ends.
    final = None
    while True:
        ended = (nfev >= max_fev) | (iterations >= max_iter)
        # fsim is ranked, so its last minus its first is the largest spread;
        # only runs whose values have settled need their vertex spread.
        settled = np.flatnonzero(fsim[:, -1] - fsim[:, 0] <= _FATOL)
        if settled.size:
            near = sim[:, settled]
            ended[settled[np.max(np.abs(near[1:] - near[:1]), axis=(0, 2)) <= _XATOL]] = True
        if np.count_nonzero(ended):
            if final is None:
                final = sim.swapaxes(0, 1), fsim, nfev, iterations  # run-major, as returned
            else:
                for out, working in zip(final, (sim.swapaxes(0, 1), fsim, nfev, iterations)):
                    out[ids[ended]] = working[ended]
            live = ~ended
            sim, fsim, nfev, iterations, ids = (
                sim[:, live], fsim[live], nfev[live], iterations[live], ids[live])
            if not ids.size:
                break
        xbar = _centroid(sim)
        worst = sim[-1]
        xr = 2.0 * xbar - worst
        width = len(ids)
        paired = count_taken is not None and _COLUMN_ROWS <= width <= _PAIRED_RUNS
        if paired:
            # Each run's inside contraction, 0.5 xbar + 0.5 worst, in the call
            # of its reflection; it is an evaluation only where the run takes it.
            values = f(np.concatenate((ids, ids)),
                       np.concatenate((xr, 0.5 * xbar + 0.5 * worst)), width)
            fxr, fxcc = values[:width], values[width:]
        else:
            fxr = f(ids, xr)
        nfev += 1
        expand = fxr < fsim[:, 0]
        reflect = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~reflect & (fxr < fsim[:, -1])
        # One more point for every run that does not take its reflection.
        second = ~reflect & (nfev < max_fev)
        spent = ~reflect & ~second  # the budget ends the step before its second point
        fxs = np.full(width, np.nan)
        scored = second
        if paired:
            inside = second & ~expand & ~outside
            fxs[inside] = fxcc[inside]
            count_taken(inside)
            scored = second & ~inside
        if np.count_nonzero(second):
            # a xbar - b worst: expansion (3, 2), outside contraction (1.5, 0.5)
            # and inside contraction (0.5, -0.5), which is 0.5 xbar + 0.5 worst
            a = np.where(expand, 3.0, np.where(outside, 1.5, 0.5))[:, None]
            b = np.where(expand, 2.0, np.where(outside, 0.5, -0.5))[:, None]
            xs = a * xbar - b * worst
            if np.count_nonzero(scored):
                fxs[scored] = f(ids[scored], xs[scored])
            nfev[second] += 1
        # Expansion keeps the better of its two points; an outside contraction
        # needs fxc <= fxr, an inside one fxcc < the worst value; else shrink.
        take_xs = second & np.where(expand, fxs < fxr,
                                    np.where(outside, fxs <= fxr, fxs < fsim[:, -1]))
        shrink = second & ~expand & ~take_xs
        take_xr = reflect | (expand & second & ~take_xs)
        sim[-1, take_xr], fsim[take_xr, -1] = xr[take_xr], fxr[take_xr]
        if np.count_nonzero(take_xs):
            sim[-1, take_xs], fsim[take_xs, -1] = xs[take_xs], fxs[take_xs]
        if np.count_nonzero(shrink):
            rows = np.flatnonzero(shrink)
            budget = max_fev - nfev[rows]
            spent[rows] = budget < n
            best = sim[:1, rows]
            moved = best + 0.5 * (sim[1:, rows] - best)
            j = np.arange(n)[:, None]
            # Vertex j + 1 moves when evaluation j may run or is the one that ends the budget.
            sim[1:, rows] = np.where((j < budget + 1)[:, :, None], moved, sim[1:, rows])
            evaluated = (j < budget).T  # by run, as f gets the points
            if np.count_nonzero(evaluated):
                made = evaluated.sum(axis=1)
                shrunk = fsim[rows, 1:]
                shrunk[evaluated] = f(np.repeat(ids[rows], made), moved.swapaxes(0, 1)[evaluated])
                fsim[rows, 1:] = shrunk
                nfev[rows] += made
        iterations[~spent] += 1
        sim, fsim = _ranked(sim, fsim)
    sim, fsim, nfev, iterations = final
    return sim, fsim, nfev, (nfev < max_fev) & (iterations < max_iter)


def _neg_objective(score, weight: float, penalized: Counter):
    """The function a search minimizes: -(r1 + weight*r2) of a search vector,
    or _PENALTY, counted in ``penalized`` (or the counter passed) by error
    type, when ``score`` raises.  At weight +inf it is -r2; the factors
    (0, 1) and (1, weight) are exact, so each objective is the float of its
    formula."""
    k1, k2 = (0.0, 1.0) if math.isinf(weight) else (1.0, weight)

    def f(xs, penalized=penalized):
        try:
            r1, r2 = score(xs, weight)
        except EvaluatorError as exc:
            penalized[type(exc).__name__] += 1
            return _PENALTY
        return -(k1 * r1 + k2 * r2)

    return f


class _Score(NamedTuple):
    """The objective of one search: ``score(xs, weight, ops)`` is its space's
    ``kernel`` of the decoded search vector at the search's own gains ``c``,
    powers ``pw`` and scheme variant (TC's ``rdpc`` flag, the TC limit's
    ``user1_clean``; None for RC), which are the inputs a lockstep over
    several searches passes as lane columns (``_batch_objective``)."""

    kernel: object
    blocks: tuple[int, ...]
    c: tuple
    pw: tuple
    variant: object

    def __call__(self, xs, weight, ops=FLOAT_OPS):
        return self.kernel(self.c, self.pw, _decode(xs, self.blocks, ops), self.variant,
                           weight, ops)


def _lane_inputs(scores):
    """The kernel inputs of the lanes of a batch over the distinct ``scores``
    of one space, as a function of each lane's index into ``scores``: (c,
    pw, variant), where an input every score shares (by ``repr``, so 0.0 and
    -0.0 differ) is passed as it is, and one that differs is a column of
    each lane's value: float for a gain or power, bool for the variant."""
    *tables, variants = zip(*((*s.c, *s.pw, s.variant) for s in scores))
    inputs = [table[0] if len(set(map(repr, table))) == 1 else np.array(table, dtype=float)
              for table in tables]
    inputs.append(variants[0] if len(set(variants)) == 1 else np.array(variants, dtype=bool))

    def at(index):
        leaves = [leaf[index] if isinstance(leaf, np.ndarray) else leaf for leaf in inputs]
        return tuple(leaves[:6]), tuple(leaves[6:10]), leaves[10]

    return at


def _batch_objective(scores, weights, penalized):
    """The lockstep form of ``_neg_objective``: ``f(runs, X)`` scores each row
    of ``X`` with the score ``scores[run]`` of its run at ``weights[run]``,
    counting penalties in ``penalized[run]``, in one kernel call over an
    ``ArrayOps`` (the rows as columns).  The scores share one space, and
    their gains, powers and variants are lane columns where they differ
    (``_lane_inputs``).  Each suspect lane is re-scored through the float
    path, which gives its exact value or counts its error; if the column
    call itself raises an EvaluatorError, every row is re-scored so.  Fewer
    than ``_COLUMN_ROWS`` rows are all scored on floats.

    ``f(runs, X, quiet)`` holds the penalties of the last ``quiet`` rows,
    points their runs may not take (``_lockstep``'s paired inside
    contractions), instead of counting them; ``f.count(taken)`` then counts
    those of the held rows the mask ``taken`` marks, so only a point a run
    takes is an evaluation."""
    weights = np.asarray(weights, dtype=float)
    infinite = np.isinf(weights)
    k1 = np.where(infinite, 0.0, 1.0)
    k2 = np.where(infinite, 1.0, weights)
    scorers = [_neg_objective(score, w, counter)
               for score, w, counter in zip(scores, weights.tolist(), penalized)]
    held = {}  # quiet row of the last call -> (its run, the penalty it scored)

    def on_floats(i, k, x, counted):
        if i < counted:
            return scorers[k](x)
        tally = Counter()
        value = scorers[k](x, tally)
        if tally:
            held[i - counted] = k, tally
        return value
    # Searches by identity: equal floats need not be the same input (0.0, -0.0).
    distinct = {id(score): score for score in scores}
    position = {key: k for k, key in enumerate(distinct)}
    search = np.array([position[id(score)] for score in scores])
    lane_inputs = _lane_inputs(list(distinct.values()))
    kernel, blocks = scores[0].kernel, scores[0].blocks

    def f(runs, points, quiet=0):
        held.clear()
        counted = len(points) - quiet
        if len(points) < _COLUMN_ROWS:
            return np.array([on_floats(i, k, x, counted) for i, (k, x)
                             in enumerate(zip(runs.tolist(), points.tolist()))], dtype=float)
        ops = ArrayOps(len(points))
        c, pw, variants = lane_inputs(search[runs])
        try:
            with np.errstate(all="ignore"):
                r1, r2 = kernel(c, pw, _decode(points.T, blocks, ops), variants,
                                weights[runs], ops)
                values = -(k1[runs] * r1 + k2[runs] * r2)
        except EvaluatorError:
            ops.suspect[:] = True
            values = np.empty(len(points))
        for i in np.flatnonzero(ops.suspect).tolist():
            values[i] = on_floats(i, runs[i], points[i].tolist(), counted)
        return values

    def count(taken):
        for i, (k, tally) in held.items():
            if taken[i]:
                penalized[k].update(tally)

    f.count = count
    return f


def _sweep(jobs, opts: TraceOptions):
    """Multi-start direct search of jobs whose searches share one space:
    each job, then each of its searches, each weight, each restart.

    ``jobs`` holds each job's (space, score, revalidate) searches (see
    ``_searches``).  Each start is one Nelder-Mead run with
    ``max_iter=opts.max_iter`` (at most twice as many evaluations); tied
    vertices rank in ``np.argsort``'s order, so the runs are those scipy's
    Nelder-Mead would make.  All runs advance in lockstep, at most
    ``_BATCH`` of them (a chunk, which may straddle searches and jobs) in
    one ``minimize`` call; a run's steps depend on its own values alone, so
    each is the run a lone trace makes.  ``revalidate(x, weight)`` maps a
    search result to (r1, r2, allocation) through the public API.  Returns
    each job's re-validated maximizers, in run order, and its ``TraceStats``.
    """
    candidates: list[list] = [[] for _ in jobs]
    penalized = [Counter() for _ in jobs]
    counts = [[0, 0, 0, 0] for _ in jobs]  # evaluations, runs, unconverged, dropped
    starts = ((k, score, revalidate, w, _start_vector(opts.seed, widx, ridx, space))
              for k, searches in enumerate(jobs) for space, score, revalidate in searches
              for widx, w in enumerate(opts.weights) for ridx in range(opts.restarts))
    while chunk := list(itertools.islice(starts, _BATCH)):
        owners, scores, checks, weights, x0 = zip(*chunk)
        result = minimize(_batch_objective(scores, weights, [penalized[k] for k in owners]),
                          np.array(x0), opts.max_iter)
        for k, revalidate, w, x, nfev, converged in zip(
                owners, checks, weights, result.x, result.nfev.tolist(),
                result.converged.tolist()):
            tally = counts[k]
            tally[0] += nfev
            tally[1] += 1
            tally[2] += not converged
            try:
                r1, r2, alloc = revalidate(x, w)
            except EvaluatorError:
                tally[3] += 1
                continue
            candidates[k].append((r1, r2, w, alloc))
    return [(found, TraceStats(evaluations, dict(sorted(counter.items())), runs, unconverged,
                               dropped))
            for found, counter, (evaluations, runs, unconverged, dropped)
            in zip(candidates, penalized, counts)]


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
    per encoding order, user 1's first.  Checks the scheme's conferencing
    gain: finite, or +inf for TC_inf.  Rate pairs and decoders are looked up
    at each call, never at import."""
    c, pw = _conferencing_args(g, p, "c34" if scheme == "RC" else "c12",
                               limit=scheme == "TC_inf")
    space = _SPACES[scheme]

    def score(variant):
        return _Score(space.kernel, space.blocks, c, pw, variant)

    if scheme == "RC":
        def revalidate(x, w):
            alloc = rc_allocation_from_vector(x)
            pair = rxcoop.rc_rate_pair(g, p, alloc, weight=w)
            return pair.r1, pair.r2, alloc

        return [(space, score(None), revalidate)]
    if scheme == "TC_inf":
        def in_order(user1_clean):
            def revalidate(x, _w):
                mu, eta = _simplices(x, _LIMIT)
                pair = txcoop.tc_limit_rate_pair(g, p, mu, eta, user1_clean)
                return pair.r1, pair.r2, (mu, eta, user1_clean)

            return space, score(user1_clean), revalidate

        return [in_order(True), in_order(False)]

    def revalidate(x, _w):
        alloc = tc_allocation_from_vector(x)
        pair_fn = txcoop.tc_rate_pair if scheme == "TC" else txcoop.rdpc_rate_pair
        pair = pair_fn(g, p, alloc)
        return pair.r1, pair.r2, alloc

    return [(space, score(scheme == "RDPC"), revalidate)]


def _route(scheme, g: ChannelGains, opts: TraceOptions | None):
    """The traced scheme of ``trace(scheme, g, p, opts)`` and its options:
    "TC", "RDPC" or "RC" with ``opts`` or ``TraceOptions()``, or at an
    infinite conferencing gain "TC_inf" or "RC_inf" with the limit options;
    raises as ``trace`` documents."""
    if isinstance(scheme, str):
        scheme = scheme.upper()
    if scheme not in ("TC", "RDPC", "RC"):
        raise ValueError(f"unknown scheme {scheme!r}; expected TC, RDPC or RC")
    if math.isinf(g.c34 if scheme == "RC" else g.c12):
        if scheme == "RDPC":
            raise InfiniteGain("c12 is infinite: frontier.trace has a limit for TC, not RDPC")
        return scheme + "_inf", _limit_options(opts)
    return scheme, opts or TraceOptions()


def _traced(jobs, opts: TraceOptions) -> list[Frontier]:
    """The frontier of each (scheme, g, p) job, every job's searches in one
    space, traced as one lockstep (``_sweep``)."""
    swept = _sweep([_searches(scheme, g, p) for scheme, g, p in jobs], opts)
    return [_build_frontier(candidates, stats, scheme, opts)
            for (scheme, _, _), (candidates, stats) in zip(jobs, swept)]


def trace(scheme: str, g: ChannelGains, p: PowerBudget,
          opts: TraceOptions | None = None) -> Frontier:
    """Trace the Pareto frontier of an achievable scheme.

    ``scheme`` is "TC", "RDPC" (transmitter cooperation and its
    no-coherent-combining baseline) or "RC" (receiver cooperation).
    This is the one place that routes infinite conferencing gains: TC at
    c12 = +inf goes to ``trace_tc_limit`` and RC at c34 = +inf to
    ``trace_rc_limit``, each with its own defaults when ``opts`` is None.
    RDPC has no limit mode and raises InfiniteGain at c12 = +inf.  Any
    other scheme, or one that is not a string, raises ValueError.
    """
    traced, opts = _route(scheme, g, opts)
    if traced == "TC_inf":
        return trace_tc_limit(g, p, opts)
    if traced == "RC_inf":
        return trace_rc_limit(g, p, opts)
    return _traced([(traced, g, p)], opts)[0]


def trace_many(jobs, opts: TraceOptions | None = None) -> list[Frontier]:
    """The frontier of each (scheme, g, p) job: exactly ``trace(scheme, g, p,
    opts)``, points, options and stats alike.

    Every job is checked (and routed) as ``trace`` does before any is
    traced.  Jobs whose searches share a space (TC and RDPC; RC; TC at
    c12 = +inf) and options form a group, and the runs of a group's jobs
    advance as one lockstep, so each batch of evaluations is one kernel
    call however many jobs it spans.  A group of one job, and RC at
    c34 = +inf (which searches nothing), is traced by ``trace``.
    """
    jobs = [tuple(job) for job in jobs]
    routed = [_route(scheme, g, opts) for scheme, g, _ in jobs]
    groups: dict[tuple, list[int]] = {}
    for k, (traced, options) in enumerate(routed):
        groups.setdefault((_SPACES.get(traced), options), []).append(k)
    frontiers: list = [None] * len(jobs)
    for (space, options), members in groups.items():
        if space is None or len(members) == 1:
            for k in members:
                frontiers[k] = trace(*jobs[k], opts)
            continue
        group = [(routed[k][0], *jobs[k][1:]) for k in members]
        for k, fr in zip(members, _traced(group, options)):
            frontiers[k] = fr
    return frontiers


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
    sources act as one two-antenna transmitter, so the order is free), as
    one lockstep, user 1's clean order first.  Raises NotInfinite when c12
    is finite.
    """
    return _traced([("TC_inf", g, p)], _limit_options(opts))[0]


def trace_rc_limit(g: ChannelGains, p: PowerBudget,
                   opts: TraceOptions | None = None) -> Frontier:
    """Frontier of receiver cooperation at c34 = +inf.

    The limit region is the fixed two-antenna multiple-access pentagon, so
    its frontier is the pentagon's two corners, taken at weights 0 and +inf
    (one vertex when they coincide); no search is needed and the weights of
    ``opts`` are not used.  Raises NotInfinite when c34 is finite.
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

    The points may also be an (n, 2) array.  The Pareto stage runs on one
    float array: negative coordinates clamp to 0 (-0.0 stays), each
    abscissa keeps its largest ordinate, the first of equal ones, under its
    first key in input order (so of 0.0 and -0.0 the first), and a scan
    from the largest abscissa keeps the strictly rising ordinates.  Its
    only sort is stable, so ties do not depend on numpy's CPU dispatch.
    The monotone chain then runs over the Pareto points.
    """
    if hasattr(points, "vertices"):
        points = points.vertices()
    if not isinstance(points, np.ndarray):
        points = list(points)
    xy = np.array(points, dtype=float).reshape(len(points), 2)
    finite = np.isfinite(xy).all(axis=1)
    if not finite.all():  # NaN compares false, so it would pass every containment test
        x, y = points[int(np.argmin(finite))]
        raise ValueError(f"non-finite rate point ({x}, {y})")
    if not len(xy):
        return [(0.0, 0.0)]
    x, y = np.where(xy < 0.0, 0.0, xy).T  # max(v, 0.0) keeps -0.0
    order = np.lexsort((-y, x))  # x ascending, then y descending, then input order
    sorted_x = x[order]
    first = np.flatnonzero(np.concatenate(([True], sorted_x[1:] != sorted_x[:-1])))
    xs = x[np.minimum.reduceat(order, first)]  # the first key in input order
    ys = y[order[first]]
    # Pareto filter: from the largest x down, keep strictly rising y.
    above = np.concatenate((np.maximum.accumulate(ys[::-1])[-2::-1], [-math.inf]))
    rising = ys > above
    pareto = list(zip(xs[rising].tolist(), ys[rising].tolist()))  # x ascending, y descending
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
    for (xa, ya), (xb, yb) in zip(vertices_desc, vertices_desc[1:]):
        if x >= xb:
            # Exact at the vertices: yb + 1*(ya - yb) can round below ya.
            if x == xa:
                return ya
            t = (x - xb) / (xa - xb)
            return yb + t * (ya - yb)
    return vertices_desc[-1][1]


def _vertices_of(region) -> list[tuple[float, float]]:
    """A region's vertices: its ``vertices()`` or the points it iterates.
    Raises ValueError on a non-finite one (NaN compares false, so it would
    pass every containment test)."""
    vertices = list(region.vertices() if hasattr(region, "vertices") else region)
    for x, y in vertices:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite rate point ({x}, {y})")
    return vertices


def _inside(vertices_desc, x: float, y: float, tol: float) -> bool:
    reach = vertices_desc[0][0]
    return -tol <= x <= reach + tol and -tol <= y <= _ceiling(vertices_desc, min(x, reach)) + tol


def _normals(vertices_desc) -> list[tuple[float, float]]:
    """Each frontier edge's outward normal (both components > 0), in walk order."""
    return [(yb - ya, xa - xb) for (xa, ya), (xb, yb) in zip(vertices_desc, vertices_desc[1:])]


def _arc_max(lo, hi, d) -> float:
    """Largest u.d over unit u from direction lo to hi (a turn of at most a right
    angle): |d| when d points into that arc, else the value at one of its ends."""
    (l1, l2), (h1, h2), (d1, d2) = lo, hi, d
    if l1 * d2 - l2 * d1 >= 0.0 and d1 * h2 - d2 * h1 >= 0.0:
        return math.hypot(d1, d2)
    return max((l1 * d1 + l2 * d2) / math.hypot(l1, l2),
               (h1 * d1 + h2 * d2) / math.hypot(h1, h2))


def region_deviation(region_a, region_b) -> float:
    """How far region_a sticks out of region_b, in bits (0 when contained).

    The largest h_a(u) - h_b(u) over unit u >= 0, clipped at 0, in one walk
    from u = (1, 0) to (0, 1) across both regions' edge normals; between two
    steps the support points a and b are fixed, so h_a - h_b is u.(a - b).
    Shared vertices and edges give exactly 0.
    """
    va, vb = hull(region_a), hull(region_b)
    na, nb = _normals(va) + [(0.0, 1.0)], _normals(vb) + [(0.0, 1.0)]
    lo, i, j, worst = (1.0, 0.0), 0, 0, 0.0
    while i < len(va):
        (n1, n2), (m1, m2) = na[i], nb[j]
        turn = n1 * m2 - n2 * m1  # > 0: a steps first; 0: both step
        hi = na[i] if turn >= 0.0 else nb[j]
        (xa, ya), (xb, yb) = va[i], vb[j]
        worst = max(worst, _arc_max(lo, hi, (xa - xb, ya - yb)))
        lo, i, j = hi, i + (turn >= 0.0), j + (turn <= 0.0)
    return worst


def hausdorff(region_a, region_b) -> float:
    """Hausdorff distance between two rate regions (as filled sets)."""
    return max(region_deviation(region_a, region_b),
               region_deviation(region_b, region_a))


def dominates(region_a, region_b, tol: float = 0.0) -> bool:
    """True iff every point of region_b lies inside region_a expanded by tol.

    region_b's points are tested as given, so a negative one is outside.
    The tolerance is per axis: (x, y) is inside when x, y >= -tol, x is at
    most region_a's r1 reach + tol, and y at most its ceiling at min(x,
    reach) + tol.  That is not the Euclidean expansion of
    ``region_deviation``, which ``coopic compare`` holds to 1e-6.
    """
    va = hull(region_a)
    return all(_inside(va, x, y, tol) for x, y in _vertices_of(region_b))


def equal_rate_value(region) -> float:
    """Largest t with (t, t) inside the region (the symmetric-rate point): by
    LP duality the least h(u)/(u1 + u2) over its edge normals, axes included."""
    v = hull(region)
    return min([v[0][0], v[-1][1]] + [(n1 * x + n2 * y) / (n1 + n2)
                                      for (n1, n2), (x, y) in zip(_normals(v), v)])
