"""Shared domain types, the small 2x2 toolkit and the kernels' two op sets.

The toolkit's closed forms for det(I + p u u^T + q v v^T) (``det_pair``) and
(I + s u u^T)^-1 (``inverse``) have determinants of at least 1, so no
validated input makes an evaluation fail on a singular 2x2 matrix.

Conventions used throughout the package:

* unit noise variance at every receiver, so transmit powers double as SNRs;
* channel phases are assumed perfectly aligned, so gains are nonnegative
  real magnitudes and all arithmetic is real;
* rates are in bits per channel use (base-2 logarithms everywhere).

Every rate formula of the package is written once, over an ``ops``
argument that supplies its primitives (``cap``, ``phase_power``, ``quad``,
``minimum``, ``maximum``, ``branch``, ``select``, ``divide``, ``fsum3``,
``log2``, ``exp2m1``, ``sqrt``, ``checked_pair``, ``check_range``, ``rare``,
``rare_unless``, and ``grouped`` and ``ungrouped`` for a vector's blocks):

* ``FLOAT_OPS`` is the default: today's float functions, so a formula over
  plain floats raises what it always raised, with the same message;
* an ``ArrayOps`` evaluates the same formula over columns, one float array
  element (a lane) per evaluation.  Its ops never raise.  Wherever the float
  path would raise or take a rare branch (``if ops.rare(cond)``, or
  ``ops.rare_unless(cond)`` where ``cond`` fails), it marks the lane in
  ``suspect``, and the caller re-scores those lanes through the float path.
  Every other lane is bit for bit the float path's: +, -, *, / and sqrt are
  correctly rounded in both, and the transcendental functions are
  ``math``'s, mapped over ``.tolist()`` (numpy's SIMD versions differ in the
  last bits and depend on the CPU).  A three-term sum is ``math.fsum``,
  never the builtin ``sum``, which from Python 3.12 compensates; over
  columns, two TwoSums whose errors are added rounding to odd give fsum's
  bits, correctly rounded (``ArrayOps.fsum3``).  A square is
  ``x * x``, correctly rounded on floats and columns alike, and never
  ``x ** 2``, which is libm's ``pow`` and misrounds about one square
  in 1200.  So a gain or power that differs between lanes is a plain float
  column.  The kernels still call libm's ``log1p``, ``log2`` and
  ``expm1``, so their bits still depend on the platform's libm.

Every type is an immutable value and every operation is a pure function,
so everything here is safe to call concurrently (an ``ArrayOps`` belongs
to one batch).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

__all__ = [
    "EvaluatorError",
    "NegativeSnr",
    "InfiniteGain",
    "NotInfinite",
    "InvalidAllocation",
    "ChannelGains",
    "PowerBudget",
    "Simplex2",
    "Simplex3",
    "TcAllocation",
    "RcAllocation",
    "RatePair",
    "kernel_args",
    "cap",
    "quad",
    "det_pair",
    "inverse",
    "phase_power",
    "simplex_weights",
    "checked_pair",
    "FLOAT_OPS",
    "ArrayOps",
    "GAIN_MAX",
    "POWER_MAX",
    "BURST_POWER_MAX",
]

_SIMPLEX_SUM_TOL = 1e-9
_PSD_TOL = 1e-10

# Largest finite gain and power accepted: every SNR c^2 * P at the budget is
# then at most 1e24 and every det(I + M) at most about 1e49, far inside the
# float range, so no rate or bound overflows to inf or NaN.
GAIN_MAX = 1e8
POWER_MAX = 1e8
# Largest burst power share * total / duration a phase may carry: a positive
# but tiny (say subnormal) duration would otherwise overflow it to inf.  With
# every gain at most GAIN_MAX, each burst SNR c^2 * P is then at most 1e116
# and a product of two of them at most about 1e232, so rates stay finite.
BURST_POWER_MAX = 1e100


class EvaluatorError(ValueError):
    """Base class for all domain validation and evaluation errors."""


class NegativeSnr(EvaluatorError):
    """An SNR-like argument was negative beyond tolerance."""


class InfiniteGain(EvaluatorError):
    """A finite-gain evaluator was called with an infinite conferencing gain."""


class NotInfinite(EvaluatorError):
    """A limit-mode evaluator was called with a finite conferencing gain."""


class InvalidAllocation(EvaluatorError):
    """Allocation violates a simplex constraint or puts power on a zero-duration phase."""


def _check_range(name: str, value: float, limit: float = math.inf) -> None:
    if not 0.0 <= value <= limit:
        raise EvaluatorError(f"{name} must be in [0, {limit:g}], got {value}")


@dataclass(frozen=True)
class ChannelGains:
    """Link amplitude gains c_ik between nodes 1..4 (3 = receiver of 1, 4 of 2).

    Each gain lies in [0, GAIN_MAX]; only the conferencing links c12 (between
    the transmitters) and c34 (between the receivers) may also be +inf,
    which ``frontier.trace`` routes to the dedicated limit-mode code paths.
    """

    c12: float
    c13: float
    c14: float
    c23: float
    c24: float
    c34: float

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (name in ("c12", "c34") and value == math.inf):
                _check_range(name, value, GAIN_MAX)

    # The four derived 2-vectors are recomputed on demand, never cached.
    @property
    def g1(self) -> tuple[float, float]:
        """Gains into receiver 3 from transmitters (1, 2)."""
        return (self.c13, self.c23)

    @property
    def g2(self) -> tuple[float, float]:
        """Gains into receiver 4 from transmitters (1, 2)."""
        return (self.c14, self.c24)

    @property
    def h1(self) -> tuple[float, float]:
        """Gains out of transmitter 1 into receivers (3, 4)."""
        return (self.c13, self.c14)

    @property
    def h2(self) -> tuple[float, float]:
        """Gains out of transmitter 2 into receivers (3, 4)."""
        return (self.c23, self.c24)


@dataclass(frozen=True)
class PowerBudget:
    """Per-node average powers in [0, POWER_MAX], noise-normalized (linear scale)."""

    p1: float
    p2: float
    p3: float = 0.0
    p4: float = 0.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            _check_range(name, getattr(self, name), POWER_MAX)


def simplex_weights(weights) -> list[float]:
    """The weights a Simplex2/Simplex3 stores: checked, then divided by their fsum."""
    for w in weights:
        if not w >= 0.0:
            raise InvalidAllocation(f"negative simplex weight {w}")
    try:
        total = math.fsum(weights)
    except OverflowError:  # finite weights whose sum exceeds the float range
        total = math.inf
    if abs(total - 1.0) > _SIMPLEX_SUM_TOL:
        raise InvalidAllocation(f"simplex sum {total} not within {_SIMPLEX_SUM_TOL} of 1")
    return [w / total for w in weights]


class _Fields:
    """Iterates the fields of a frozen dataclass subclass in field order.

    The instance ``__dict__`` of such a subclass holds exactly its fields,
    in field order, so they are read there.
    """

    def __iter__(self):
        return iter(self.__dict__.values())


class _Simplex(_Fields):
    """Nonnegative weights, in the fields of a frozen dataclass subclass, whose
    sum is within 1e-9 of 1; construction divides them by their ``math.fsum``.
    ``_stored`` keeps weights that ``simplex_weights`` already produced,
    exactly what construction would store, as they are: dividing them by
    their sum again is not the identity in floats (it moves last bits)."""

    def __post_init__(self) -> None:
        weights = self.__dict__
        weights.update(zip(self.__dataclass_fields__, simplex_weights(list(weights.values()))))

    @classmethod
    def _stored(cls, weights):
        simplex = object.__new__(cls)
        simplex.__dict__.update(zip(cls.__dataclass_fields__, weights))
        return simplex


@dataclass(frozen=True)
class Simplex2(_Simplex):
    """Two nonnegative weights summing to 1 within 1e-9, divided by their fsum."""

    w1: float
    w2: float


@dataclass(frozen=True)
class Simplex3(_Simplex):
    """Three nonnegative weights summing to 1 within 1e-9, divided by their fsum."""

    w1: float
    w2: float
    w3: float


def _check_type(name: str, value, kind: type) -> None:
    """Raise InvalidAllocation naming ``name`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise InvalidAllocation(f"{name} must be a {kind.__name__}, got {value!r}")


class _Allocation(_Fields):
    """The fields of a frozen dataclass subclass, each an instance of its
    annotated simplex type, checked on construction.  ``_layout`` maps each
    field name to that type, in field order, resolved once per class."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._layout = get_type_hints(cls)

    def __post_init__(self) -> None:
        for name, simplex in self._layout.items():
            _check_type(name, getattr(self, name), simplex)


@dataclass(frozen=True)
class TcAllocation(_Allocation):
    """Scheme parameters for transmitter cooperation; iterates its simplices.

    lam    -- phase durations (exchange 1, exchange 2, joint broadcast)
    kappa  -- node-1 power split between phase 1 and phase 3
    gamma  -- node-2 power split between phase 2 and phase 3
    alpha  -- node-1 phase-1 split between the conferencing and relayed streams
    beta   -- node-2 phase-2 split between the conferencing and relayed streams
    mu     -- node-1 phase-3 split: fresh user-1 stream, joint user-1 stream,
              joint user-2 stream
    eta    -- node-2 phase-3 split: fresh user-2 stream, joint user-2 stream,
              joint user-1 stream
    """

    lam: Simplex3
    kappa: Simplex2
    gamma: Simplex2
    alpha: Simplex2
    beta: Simplex2
    mu: Simplex3
    eta: Simplex3


@dataclass(frozen=True)
class RcAllocation(_Allocation):
    """Scheme parameters for receiver cooperation; iterates its simplices.

    lam   -- phase durations (joint listen, node-3 listen, node-4 listen)
    mu    -- node-1 power split across the three phases
    eta   -- node-2 power split across the three phases
    alpha -- node-4 phase-2 split between compressed observation and relayed data
    beta  -- node-3 phase-3 split between compressed observation and relayed data
    """

    lam: Simplex3
    mu: Simplex3
    eta: Simplex3
    alpha: Simplex2
    beta: Simplex2


def kernel_args(g: ChannelGains, p: PowerBudget):
    """The rate kernels' gains ``c`` (c12, c13, c14, c23, c24, c34) and powers ``pw``."""
    return (g.c12, g.c13, g.c14, g.c23, g.c24, g.c34), (p.p1, p.p2, p.p3, p.p4)


def _conferencing_args(g: ChannelGains, p: PowerBudget, link: str, limit: bool = False):
    """``kernel_args(g, p)`` of an evaluation that needs the conferencing
    gain ``link`` ("c12" for TC and RDPC, "c34" for RC) finite, or +inf for
    a ``limit`` one.  The package's one gain-mode check: it raises
    InfiniteGain or NotInfinite when the gain is in the other mode."""
    if math.isinf(getattr(g, link)) != limit:
        if limit:
            raise NotInfinite(f"{link} is finite; this evaluates the {link} = +inf limit")
        raise InfiniteGain(f"{link} is infinite; trace the limit with frontier.trace")
    return kernel_args(g, p)


def _view_args(g: ChannelGains, p: PowerBudget, a, kind: type):
    """``_conferencing_args`` of a view of the ``kind`` allocation ``a``, then
    InvalidAllocation unless ``a`` is one (the kernels take raw lists too)."""
    args = _conferencing_args(g, p, "c12" if kind is TcAllocation else "c34")
    _check_type("allocation", a, kind)
    return args


@dataclass(frozen=True)
class RatePair(_Fields):
    """A nonnegative (R1, R2) point in bits per channel use; iterates (r1, r2)."""

    r1: float
    r2: float

    def __post_init__(self) -> None:
        checked_pair(self.r1, self.r2)

    @property
    def total(self) -> float:
        return self.r1 + self.r2


def checked_pair(r1: float, r2: float) -> tuple[float, float]:
    """(r1, r2) after RatePair's check; raises EvaluatorError on a negative or NaN rate."""
    _check_range("r1", r1)
    _check_range("r2", r2)
    return r1, r2


_LN2 = math.log(2.0)


def cap(x: float) -> float:
    """Gaussian capacity log2(1 + x) for an SNR x >= 0; maps +inf to +inf."""
    if x < 0.0:
        if x < -1e-12:
            raise NegativeSnr(f"negative SNR {x}")
        x = 0.0
    return math.log1p(x) / _LN2


# The 2x2 operations on floats: ``det_pair`` and ``inverse`` in closed form,
# and ``quad``, which takes a symmetric matrix as its entries (a11, a12, a22)
# and serves the phase-3 covariances of transmitter cooperation.


def quad(v0: float, v1: float, a11: float, a12: float, a22: float) -> float:
    """v A v^T; tiny negatives from roundoff (within 1e-10) clamp to zero."""
    q = v0 * v0 * a11 + 2.0 * v0 * v1 * a12 + v1 * v1 * a22
    if -_PSD_TOL <= q < 0.0:
        return 0.0
    return q


def det_pair(u: tuple[float, float], p: float, v: tuple[float, float], q: float) -> float:
    """det(I + p u u^T + q v v^T) for 2-vectors u, v and powers p, q >= 0.

    Expanded as 1 + p|u|^2 + q|v|^2 + p q (u0 v1 - u1 v0)^2, a sum of
    nonnegative terms: unlike (1 + a11)(1 + a22) - a12^2, which cancels to
    zero or below for large nearly parallel gains, it is at least 1 (and
    log2 of it at least 0) for any gains.  Only the cross term can lose
    digits, for nearly parallel u and v, and it enters squared.
    """
    x = u[0] * v[1] - u[1] * v[0]
    return 1.0 + p * (u[0] * u[0] + u[1] * u[1]) + q * (v[0] * v[0] + v[1] * v[1]) + p * q * x * x


def inverse(u: tuple[float, float], s: float) -> tuple[float, float, float]:
    """Entries (a11, a12, a22) of (I + s u u^T)^-1 for a 2-vector u and s >= 0.

    The closed form (I + s v v^T) / (1 + s|u|^2), v = (u1, -u0), has no
    cancelling entry, unlike the adjugate, whose determinant cancels to zero
    or below for large gains.
    """
    d = 1.0 + s * (u[0] * u[0] + u[1] * u[1])
    return ((1.0 + s * u[1] * u[1]) / d, -s * u[0] * u[1] / d, (1.0 + s * u[0] * u[0]) / d)


def phase_power(share: float, total: float, duration: float, what: str) -> float:
    """Burst power share*total/duration of the source power share ``what``.

    The package's one rule for what a source may put on a phase: a zero
    share is a silent phase with zero power, whatever its duration.  Raises
    InvalidAllocation naming ``what`` for a positive share on a
    zero-duration phase and for a burst above BURST_POWER_MAX.
    """
    if share == 0.0:
        return 0.0
    if duration == 0.0:
        raise InvalidAllocation(f"{what}: positive power share {share} on zero-duration phase")
    power = share * total / duration
    if power > BURST_POWER_MAX:
        raise InvalidAllocation(
            f"{what}: burst power {power:g} above {BURST_POWER_MAX:g} "
            f"(share {share} on a phase of duration {duration})")
    return power


# ---------------------------------------------------------------------------
# The kernels' primitives: on floats (``FLOAT_OPS``) and on columns (``ArrayOps``)


def _select(cond, a, b):
    return a if cond else b


def _exp2m1(x):
    """2**x - 1 as expm1(x ln 2), precise for tiny x; +inf above 512, where a
    quotient by it has underflowed to zero long before 2**x overflows."""
    return math.inf if x > 512.0 else math.expm1(x * _LN2)


def _divide(num, den):
    """num / den in Python floats, where overflow gives +inf quietly; +inf for
    a zero den (num > 0)."""
    return float(num) / den if den else math.inf


def _fsum3(a, b, c):
    return math.fsum((a, b, c))


@functools.cache
def _by_size(blocks):
    """``ArrayOps.grouped``'s layout: the coordinates in gathered order (per
    block size in order of first appearance, weight by weight, block by
    block), the rows of each weight, and the sizes."""
    starts = [sum(blocks[:j]) for j in range(len(blocks))]
    sizes = tuple(dict.fromkeys(blocks))
    order, rows = [], []
    for size in sizes:
        group = [i for n, i in zip(blocks, starts) if n == size]
        for k in range(size):
            rows.append(slice(len(order), len(order) + len(group)))
            order += [i + k for i in group]
    order = np.array(order)
    order.flags.writeable = False  # shared by every call
    return order, tuple(rows), sizes


def _two_sum(x, y):
    """Knuth's TwoSum: fl(x + y) and its error, x + y = s + e exactly if nothing overflows."""
    s = x + y
    v = s - x
    e = s - v
    np.subtract(x, e, out=e)
    np.subtract(y, v, out=v)
    e += v
    return s, e


def _round_to_odd(v, x, y, lanes):
    """Round v = fl(x + y) to odd in place on ``lanes``, where x + y is finite
    and inexact: the neighbour of x + y whose last significand bit is odd.
    Where v's last bit is even, that is one ulp from v toward the TwoSum
    error, which is one step of v's int64 view (sign and magnitude, so +1
    moves away from zero and -1 toward it)."""
    r, e = _two_sum(x[lanes], y[lanes])
    bits = r.view(np.int64)
    bits += np.where(bits & 1, 0, np.where((e > 0.0) == (r > 0.0), 1, -1))
    v[lanes] = r


class _FloatOps:
    """The primitives on floats, as plain instance attributes (the fastest to look up)."""

    def __init__(self):
        self.cap, self.phase_power, self.quad = cap, phase_power, quad
        self.minimum, self.maximum, self.branch, self.select = min, max, _select, _select
        self.divide, self.fsum3, self.log2, self.exp2m1, self.sqrt = \
            _divide, _fsum3, math.log2, _exp2m1, math.sqrt
        self.checked_pair, self.check_range = checked_pair, _check_range
        self.rare, self.rare_unless = operator.truth, operator.not_
        self.grouped = lambda xs, blocks: (xs, blocks)
        self.ungrouped = lambda out, _blocks: out


FLOAT_OPS = _FloatOps()


class ArrayOps:
    """The primitives over columns of ``size`` lanes, marking ``suspect`` lanes.

    Each op gives, on every lane it leaves unmarked, the float op's result bit
    for bit; a marked lane holds an arbitrary value, and the float path gives
    its value or its error.  No op clears a mark.  Python's ``min(a, b)``
    keeps ``a`` unless ``b < a`` (``max`` unless ``b > a``), and so do
    ``minimum`` and ``maximum``, signed zeros and NaN included.  The marking
    ops ``rare_unless``, ``check_range`` and ``checked_pair`` take a float
    as a value shared by every lane.  Call the ops under
    ``np.errstate(all="ignore")``: marked lanes may divide by zero.
    """

    def __init__(self, size: int):
        self.size = size
        self.suspect = np.zeros(size, dtype=bool)

    def rare(self, cond) -> bool:
        """Mark the lanes that take the rare branch; every lane goes on with
        the common one.  Of a (blocks, lanes) ``cond``, any block's."""
        self.suspect |= cond.any(axis=0) if np.ndim(cond) == 2 else cond
        return False

    def rare_unless(self, cond) -> bool:
        """``rare`` of the lanes where ``cond`` fails (NaN comparisons included)."""
        return self.rare(np.logical_not(cond))

    def grouped(self, xs, blocks):
        """``coords, sizes``: the search vectors (the rows of ``xs``, lanes as
        columns) regrouped as one block per block size, whose coordinate k
        is the (blocks, lanes) matrix of coordinate k of every block of that
        size, all in one fresh array, so ops may work in place.
        ``FLOAT_OPS.grouped`` gives ``xs`` and ``blocks`` as they are."""
        order, rows, sizes = _by_size(blocks)
        gathered = xs[order]
        return [gathered[r] for r in rows], sizes

    def ungrouped(self, out, blocks):
        """Each block's rows of its group's matrices in ``out``, in block order."""
        rows = {n: zip(*weights) for n, weights in zip(_by_size(blocks)[2], out)}
        return [list(next(rows[n])) for n in blocks]

    def _column(self, x) -> np.ndarray:
        if isinstance(x, np.ndarray) and x.shape == (self.size,):
            return x
        return np.full(self.size, x, dtype=float)

    def _map(self, fn, x) -> np.ndarray:
        return np.fromiter(map(fn, x.tolist()), float, self.size)

    def cap(self, x):
        x = self._column(x)
        negative = x < 0.0
        if np.count_nonzero(negative):
            self.suspect |= x < -1e-12
            x = np.where(negative, 0.0, x)
        return self._map(math.log1p, x) / _LN2

    def phase_power(self, share, total, duration, what):
        power = share * total / duration
        silent = share == 0.0
        raises = (duration == 0.0) | (power > BURST_POWER_MAX)
        if np.count_nonzero(raises):
            self.suspect |= raises & ~silent
        return np.where(silent, 0.0, power)

    def quad(self, v0, v1, a11, a12, a22):
        q = v0 * v0 * a11 + 2.0 * v0 * v1 * a12 + v1 * v1 * a22
        return np.where((q >= -_PSD_TOL) & (q < 0.0), 0.0, q)

    def minimum(self, a, b):
        return np.where(b < a, b, a)

    def maximum(self, a, b):
        return np.where(b > a, b, a)

    def branch(self, cond, if_true, if_false):
        """The branch a bool ``cond`` takes, as the float op (only it runs);
        for a column ``cond``, a function that calls both branches and picks
        lane by lane (``select``), keeping the marks of both: it chooses
        between formulas valid on every lane (``rare`` guards a raise)."""
        if not isinstance(cond, np.ndarray):
            return if_true if cond else if_false
        return lambda *args: self.select(cond, if_true(*args), if_false(*args))

    def select(self, cond, if_true, if_false):
        """``if_true`` where ``cond`` holds, else ``if_false``: as the float op
        for a bool ``cond``, lane by lane for a column (``np.where``), entry
        by entry through nested tuples.  An entry both sides share is kept
        as it is."""
        if not isinstance(cond, np.ndarray):
            return if_true if cond else if_false
        if type(if_true) is tuple:
            return tuple([self.select(cond, t, f) for t, f in zip(if_true, if_false)])
        if if_true is if_false:
            return if_true
        return np.where(cond, if_true, if_false)

    def divide(self, num, den):
        zero = den == 0.0
        # the float op gives +inf there, as IEEE division does for num > 0
        if np.count_nonzero(zero):
            self.suspect |= zero & (~(num > 0.0) | np.signbit(den))
        return num / den

    def fsum3(self, a, b, c):
        """``math.fsum`` entry by entry of three columns or (blocks, lanes)
        matrices: a + b + c correctly rounded, as fsum gives it.  TwoSum
        gives b + c = u + ul and a + u = t + tl, and t + v with v = tl + ul
        rounded to odd is a + b + c correctly rounded (Boldo and Melquiond,
        "Emulation of FMA and correctly rounded sums: proved algorithms using
        rounding to odd", IEEE Trans. Computers 57(4), 2008).  v is first
        rounded to nearest; it is exact, and so already odd-rounded, iff v -
        tl == ul and v - ul == tl (with Dekker's Fast2Sum, the difference by
        the larger is exact), so only a call with an inexact lane pays for
        ``_round_to_odd``.  Marked: NaN or magnitudes adding up above 1e307
        (fsum raises on inf - inf or overflow; TwoSum is exact while nothing
        overflows).  An exact zero sum is +0.0, as fsum gives it: no TwoSum
        error is -0.0."""
        ok = np.abs(a) + np.abs(b) + np.abs(c) <= 1e307
        u, ul = _two_sum(b, c)
        t, tl = _two_sum(a, u)
        v = np.add(tl, ul, out=u)
        exact = v - tl == ul
        exact &= v - ul == tl
        if not exact.all():
            _round_to_odd(v, tl, ul, ok & ~exact)
        t += v
        self.rare(~ok)
        return t

    def log2(self, x):
        x = self._column(x)
        outside = x <= 0.0
        if np.count_nonzero(outside):
            self.suspect |= outside
            x = np.where(outside, 1.0, x)
        return self._map(math.log2, x)

    def exp2m1(self, x):
        huge = self._column(x) > 512.0
        return np.where(huge, math.inf, self._map(math.expm1, np.where(huge, 0.0, x) * _LN2))

    def sqrt(self, x):
        self.suspect |= x < 0.0
        return np.sqrt(x)

    def check_range(self, name, value, limit=math.inf):
        self.suspect |= np.logical_not((value >= 0.0) & (value <= limit))

    def checked_pair(self, r1, r2):
        self.suspect |= np.logical_not((r1 >= 0.0) & (r2 >= 0.0))
        return r1, r2

