"""Receiver-cooperation achievable rates.

Three half-duplex phases: in phase 1 both sources transmit and both
receivers listen; in phases 2 and 3 the receivers take turns forwarding to
each other a Wyner-Ziv-compressed copy of their phase-1 observation plus a
re-encoded relayed data stream, while the sources keep sending fresh data.
Decoding of the phase-1 signals then uses the equivalent one-transmit /
two-receive-antenna interference channel formed by each receiver's own
observation and the compressed copy of its peer's, by ``bounds.ic_pentagon``;
the c34 = +inf limit is its lossless (zeta = 1) case over the whole block.

Each rate formula exists once, as a kernel over ``ops``, for both
receivers (``_listen``): gains ``c`` and powers ``pw`` from
``model.kernel_args`` and the allocation ``a`` as its simplex blocks in
``RcAllocation`` field order (the allocation itself or one list of weights
per block).
``rc_kernel`` returns the rate pair; the frontier search scores every
evaluation with it.  Every kernel and helper takes a trailing ``ops`` (see
``model``): on floats (``FLOAT_OPS``, the default) it raises as the views
document, and over an ``ArrayOps`` the same code scores a batch, one lane
per allocation, with each block weight and the weight a column.  What
depends on the allocation branches through ``ops``: a zero-duration phase
(``ops.rare``, early exits re-scored on floats), the strong or weak
decoding at each receiver of phase 1 and the pentagon corner
(``ops.branch`` in ``bounds``).
The dataclass API (``rc_rate_pair`` and ``rc_phase_rates``) is a thin view:
it unpacks its arguments, calls the kernels on floats and wraps the result,
raising the same errors in the same order.  The kernels do not check c34:
the views and the tracer call the one gain-mode check,
``model._conferencing_args``.  The views take no allocation but an
``RcAllocation`` (``model._view_args``, after that check).
``frontier.trace`` routes c34 = +inf to the limit's tracer, which uses
``rc_limit_rate_pair``.

All functions are pure; rates are bits per channel use.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds
from .model import (
    FLOAT_OPS,
    ChannelGains,
    PowerBudget,
    RatePair,
    RcAllocation,
    _conferencing_args,
    _view_args,
    det_pair,
)

__all__ = [
    "RcPhaseRates",
    "rc_kernel",
    "rc_phase_rates",
    "rc_rate_pair",
    "rc_limit_rate_pair",
    "rc_limit_region",
]


@dataclass(frozen=True)
class RcPhaseRates:
    """Per-stream rate constraints of the receiver-cooperation scheme.

    r1_d / r2_d     -- fresh-data rates sent in phases 2 / 3
    r1_s / r2_s     -- compressed-observation forwarding rates (4->3 / 3->4)
    r1_2r1, r1_2r2  -- user-1 relayed stream: source-to-helper hop and
                       helper-to-receiver hop (r2_* likewise for user 2)
    r1_r1 / r2_r1   -- phase-1 rates decoded via the equivalent two-antenna
                       channel
    """

    r1_d: float = 0.0
    r2_d: float = 0.0
    r1_s: float = 0.0
    r2_s: float = 0.0
    r1_2r1: float = 0.0
    r1_2r2: float = 0.0
    r2_2r1: float = 0.0
    r2_2r2: float = 0.0
    r1_r1: float = 0.0
    r2_r1: float = 0.0


# ---------------------------------------------------------------------------
# Kernels (on floats or columns, over ``ops``)


def _listen(lam, heard1, heard2, user1, fwd_obs, fwd_data, ops):
    """Rates at the listening receiver, user 1's iff ``user1``: it hears
    sources 1 and 2 at SNRs ``heard1``, ``heard2`` and its helper's compressed
    observation and relayed data at ``fwd_obs``, ``fwd_data``.  Returns (own
    helper-to-receiver hop, forwarding, other's source-to-helper hop, own fresh)."""
    cap = ops.cap
    own, other = (heard1, heard2) if user1 else (heard2, heard1)
    base = 1.0 + heard1 + heard2
    return (lam * cap(fwd_data / (base + fwd_obs)), lam * cap(fwd_obs / base),
            lam * cap(other / (1.0 + own)), lam * cap(own))


def _phase23(c, pw, a, ops=FLOAT_OPS):
    """Phase 2-3 rates, the first eight ``RcPhaseRates`` fields in order."""
    _, c13, c14, c23, c24, c34 = c
    p1, p2, p3, p4 = pw
    (_, lam2, lam3), (_, mu2, mu3), (_, eta2, eta3), (alpha1, alpha2), (beta1, beta2) = a
    phase_power = ops.phase_power
    p1_2 = phase_power(mu2, p1, lam2, "mu2")
    p2_2 = phase_power(eta2, p2, lam2, "eta2")
    p1_3 = phase_power(mu3, p1, lam3, "mu3")
    p2_3 = phase_power(eta3, p2, lam3, "eta3")
    # Receiver helpers spend their whole budget inside one phase; with a
    # zero-duration phase (a weight is never negative) that budget is
    # simply unusable.
    if ops.rare(lam2 == 0.0):
        p4_1 = p4_2 = 0.0
    else:
        p4_1 = phase_power(alpha1, p4, lam2, "alpha1")
        p4_2 = phase_power(alpha2, p4, lam2, "alpha2")
    if ops.rare(lam3 == 0.0):
        p3_1 = p3_2 = 0.0
    else:
        p3_1 = phase_power(beta1, p3, lam3, "beta1")
        p3_2 = phase_power(beta2, p3, lam3, "beta2")

    # Phase 2: receiver 3 listens, helped by 4; phase 3: receiver 4, helped by 3.
    r1_2r2, r1_s, r2_2r1, r1_d = _listen(lam2, c13 * c13 * p1_2, c23 * c23 * p2_2, True,
                                         c34 * c34 * p4_1, c34 * c34 * p4_2, ops)
    r2_2r2, r2_s, r1_2r1, r2_d = _listen(lam3, c14 * c14 * p1_3, c24 * c24 * p2_3, False,
                                         c34 * c34 * p3_1, c34 * c34 * p3_2, ops)
    return (r1_d, r2_d, r1_s, r2_s, r1_2r1, r1_2r2, r2_2r1, r2_2r2)


def _compression_noise(num: float, exponent: float, denom: float, ops) -> float:
    """num / ((2**exponent - 1) * denom), with the zero/huge-exponent limits.

    2**exponent - 1 is ``ops.exp2m1``, precise for tiny exponents and +inf
    above 512, where the noise is 0.0 (it underflows to zero well before
    2**x overflows).  Where it is zero (the exponent, a rate over a
    duration, is zero or underflows) the forwarded description carries
    nothing and the noise is infinite (``ops.divide``), which also divides
    in Python floats, where overflow gives +inf quietly (num / denom cannot
    overflow).
    """
    return ops.divide(num / denom, ops.exp2m1(exponent))


def _compression(c, lam1: float, p1_1: float, p2_1: float, r1_s: float, r2_s: float,
                 ops=FLOAT_OPS):
    """The equivalent one-transmit/two-receive-antenna interference channel
    (sigma1_sq, sigma2_sq, zeta1, zeta2, c13v, c23v, c14v, c24v, p1_1, p2_1)
    of a phase 1 of duration ``lam1`` > 0 with the sources' burst powers
    ``p1_1``, ``p2_1``: the compression noises and the resulting fractions
    zeta_i of the peer's observation kept, the four equivalent gain vectors
    as pairs (receiver's own antenna first) and the two powers.  sigma_i_sq
    is the compression noise of the peer's observation (+inf when nothing
    was forwarded, which gives zeta_i = 0 and exact zeros in the gains)."""
    _, c13, c14, c23, c24, _ = c
    at3 = 1.0 + c13 * c13 * p1_1 + c23 * c23 * p2_1
    at4 = 1.0 + c14 * c14 * p1_1 + c24 * c24 * p2_1
    num = det_pair((c13, c14), p1_1, (c23, c24), p2_1)

    sigma1_sq = _compression_noise(num, r2_s / lam1, at4, ops)
    sigma2_sq = _compression_noise(num, r1_s / lam1, at3, ops)
    zeta1 = 1.0 / (1.0 + sigma1_sq)
    zeta2 = 1.0 / (1.0 + sigma2_sq)

    rz1, rz2 = ops.sqrt(zeta1), ops.sqrt(zeta2)
    return (sigma1_sq, sigma2_sq, zeta1, zeta2, (c13, rz2 * c14), (c23, rz2 * c24),
            (rz1 * c13, c14), (rz1 * c23, c24), p1_1, p2_1)


def _phase1(eq, lambda1: float, weight: float, ops=FLOAT_OPS) -> tuple[float, float]:
    """Phase-1 rate pair from the last six fields of the equivalent channel:
    the ``weight`` corner of its ``bounds.ic_pentagon``, scaled by lambda1."""
    a1, a2, a12 = bounds.ic_pentagon(*eq, ops)
    return bounds.pentagon_corner(lambda1 * a1, lambda1 * a2, lambda1 * a12, weight, ops)


def _stream_rates(c, pw, a, weight: float, ops=FLOAT_OPS):
    """All ten stream rates in ``RcPhaseRates`` field order."""
    rates = _phase23(c, pw, a, ops)
    p1, p2, _, _ = pw
    (lam1, _, _), (mu1, _, _), (eta1, _, _), _, _ = a
    p1_1 = ops.phase_power(mu1, p1, lam1, "mu1")
    p2_1 = ops.phase_power(eta1, p2, lam1, "eta1")
    if ops.rare(lam1 == 0.0):
        # no phase 1: its pentagon is the origin, whose corner checks the weight
        return rates + bounds.pentagon_corner(0.0, 0.0, 0.0, weight)
    eq = _compression(c, lam1, p1_1, p2_1, rates[2], rates[3], ops)
    return rates + _phase1(eq[4:], lam1, weight, ops)


def rc_kernel(c, pw, a, weight: float = 1.0, ops=FLOAT_OPS) -> tuple[float, float]:
    """(R1, R2) of receiver cooperation; float form of ``rc_rate_pair``, and
    its column form over an ``ArrayOps`` (``weight`` a float or a column)."""
    rates = _stream_rates(c, pw, a, weight, ops)
    r1_d, r2_d, _, _, r1_2r1, r1_2r2, r2_2r1, r2_2r2, r1_r1, r2_r1 = rates
    return ops.checked_pair(r1_d + r1_r1 + ops.minimum(r1_2r1, r1_2r2),
                            r2_d + r2_r1 + ops.minimum(r2_2r1, r2_2r2))


# ---------------------------------------------------------------------------
# Dataclass views


def rc_phase_rates(g: ChannelGains, p: PowerBudget, a: RcAllocation,
                   weight: float = 1.0) -> RcPhaseRates:
    """All per-stream rates of the receiver-cooperation scheme."""
    return RcPhaseRates(*_stream_rates(*_view_args(g, p, a, RcAllocation), a, weight))


def rc_rate_pair(g: ChannelGains, p: PowerBudget, a: RcAllocation,
                 weight: float = 1.0) -> RatePair:
    """Achievable (R1, R2) of the receiver-cooperation scheme.

    Each user's relayed stream is limited by the slower of its two hops;
    ``weight`` picks the operating corner of the phase-1 pentagon, which
    has a sum face when at least one equivalent interference is strong.
    """
    return RatePair(*rc_kernel(*_view_args(g, p, a, RcAllocation), a, weight))


def rc_limit_rate_pair(g: ChannelGains, p: PowerBudget, weight: float = 1.0) -> RatePair:
    """Rate pair in the infinite-conferencing limit (c34 = +inf).

    Phase 1 fills the whole block and compression is lossless (zeta = 1), so
    the scheme becomes the two-user one-transmit/two-receive-antenna
    multiple-access channel; the pair is its ``weight``-selected corner.
    Raises NotInfinite at a finite c34.
    """
    _conferencing_args(g, p, "c34", limit=True)
    return RatePair(*_phase1((g.h1, g.h2, g.h1, g.h2, p.p1, p.p2), 1.0, weight))


def rc_limit_region(g: ChannelGains, p: PowerBudget, opts=None):
    """Frontier of the infinite-conferencing receiver-cooperation region:
    ``frontier.trace("RC", g, p, opts)`` at c34 = +inf; NotInfinite if finite."""
    from . import frontier

    return frontier.trace_rc_limit(g, p, opts)
