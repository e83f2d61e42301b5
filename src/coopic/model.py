"""Shared domain types and the small 2x2 toolkit.

The toolkit's closed forms for det(I + p u u^T + q v v^T) (``det_pair``) and
(I + s u u^T)^-1 (``inverse``) have determinants of at least 1, so no
validated input makes an evaluation fail on a singular 2x2 matrix.

Conventions used throughout the package:

* unit noise variance at every receiver, so transmit powers double as SNRs;
* channel phases are assumed perfectly aligned, so gains are nonnegative
  real magnitudes and all arithmetic is real;
* rates are in bits per channel use (base-2 logarithms everywhere).

Every type is an immutable value and every operation is a pure function,
so everything here is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        for name in ("c12", "c13", "c14", "c23", "c24", "c34"):
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
        for name in ("p1", "p2", "p3", "p4"):
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
    """Nonnegative weights in the fields of a frozen dataclass subclass,
    renormalized on construction to sum to one (written in ``__dict__``).
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
    """Two nonnegative weights, renormalized on construction to sum to one."""

    w1: float
    w2: float


@dataclass(frozen=True)
class Simplex3(_Simplex):
    """Three nonnegative weights, renormalized on construction to sum to one."""

    w1: float
    w2: float
    w3: float


@dataclass(frozen=True)
class TcAllocation(_Fields):
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
class RcAllocation(_Fields):
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
