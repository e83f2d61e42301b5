"""Receiver-cooperation achievable rates.

Three half-duplex phases: in phase 1 both sources transmit and both
receivers listen; in phases 2 and 3 the receivers take turns forwarding to
each other a Wyner-Ziv-compressed copy of their phase-1 observation plus a
re-encoded relayed data stream, while the sources keep sending fresh data.
Decoding of the phase-1 signals then uses the equivalent one-transmit /
two-receive-antenna interference channel formed by each receiver's own
observation and the compressed copy of its peer's, split into four cases by
equivalent interference strength.

Each rate formula exists once, as a kernel on plain floats: gains
``c = (c13, c14, c23, c24, c34)`` and powers ``pw = (p1, p2, p3, p4)`` from
``kernel_args``, and the 13 allocation shares ``s`` flat in field order
(lam1..3, mu1..3, eta1..3, alpha1..2, beta1..2).  ``rc_kernel`` returns the
rate pair as floats; the frontier search scores every evaluation with it.
The dataclass API (``rc_rate_pair`` and ``rc_phase_rates``) is a thin view:
it unpacks its arguments, calls the kernels and wraps the result, raising
the same errors in the same order.  The kernels do not check c34: the views
and the tracer do, once.  ``frontier.trace`` routes c34 = +inf to the
limit's tracer, which uses ``rc_limit_rate_pair``.

All functions are pure; rates are bits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import bounds
from .model import (
    ChannelGains,
    InfiniteGain,
    InvalidAllocation,
    NotInfinite,
    PowerBudget,
    RatePair,
    RcAllocation,
    Sym2,
    cap,
    checked_pair,
    logdet,
    logdet2,
    phase_power,
    quad,
)

__all__ = [
    "RcPhaseRates",
    "kernel_args",
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
# Kernels (plain floats)


def kernel_args(g: ChannelGains, p: PowerBudget):
    """The kernels' gains ``c`` and powers ``pw``."""
    return (g.c13, g.c14, g.c23, g.c24, g.c34), (p.p1, p.p2, p.p3, p.p4)


def _phase23(c, pw, s):
    """Phase 2-3 rates, the first eight ``RcPhaseRates`` fields in order."""
    c13, c14, c23, c24, c34 = c
    p1, p2, p3, p4 = pw
    lam2, lam3 = s[1], s[2]
    p1_2 = phase_power(s[4], p1, lam2, "mu2")
    p2_2 = phase_power(s[7], p2, lam2, "eta2")
    p1_3 = phase_power(s[5], p1, lam3, "mu3")
    p2_3 = phase_power(s[8], p2, lam3, "eta3")
    # Receiver helpers spend their whole budget inside one phase; with a
    # zero-duration phase that budget is simply unusable.
    p4_1 = phase_power(s[9], p4, lam2, "alpha1") if lam2 > 0.0 else 0.0
    p4_2 = phase_power(s[10], p4, lam2, "alpha2") if lam2 > 0.0 else 0.0
    p3_1 = phase_power(s[11], p3, lam3, "beta1") if lam3 > 0.0 else 0.0
    p3_2 = phase_power(s[12], p3, lam3, "beta2") if lam3 > 0.0 else 0.0

    # Phase 2: receiver 3 listens to sources 1, 2 and helper 4.
    base2 = 1.0 + c13 ** 2 * p1_2 + c23 ** 2 * p2_2
    r1_2r2 = lam2 * cap(c34 ** 2 * p4_2 / (base2 + c34 ** 2 * p4_1))
    r1_s = lam2 * cap(c34 ** 2 * p4_1 / base2)
    r2_2r1 = lam2 * cap(c23 ** 2 * p2_2 / (1.0 + c13 ** 2 * p1_2))
    r1_d = lam2 * cap(c13 ** 2 * p1_2)

    # Phase 3: receiver 4 listens to sources 1, 2 and helper 3.
    base3 = 1.0 + c14 ** 2 * p1_3 + c24 ** 2 * p2_3
    r2_2r2 = lam3 * cap(c34 ** 2 * p3_2 / (base3 + c34 ** 2 * p3_1))
    r2_s = lam3 * cap(c34 ** 2 * p3_1 / base3)
    r1_2r1 = lam3 * cap(c14 ** 2 * p1_3 / (1.0 + c24 ** 2 * p2_3))
    r2_d = lam3 * cap(c24 ** 2 * p2_3)
    return (r1_d, r2_d, r1_s, r2_s, r1_2r1, r1_2r2, r2_2r1, r2_2r2)


_LN2 = math.log(2.0)


def _compression_noise(num: float, exponent: float, denom: float) -> float:
    """num / ((2**exponent - 1) * denom), with the zero/huge-exponent limits.

    2**exponent - 1 is taken as expm1(exponent * ln 2), which keeps its
    precision for tiny exponents; when even that underflows to zero the
    forwarded description carries nothing and the noise is infinite.  The
    quotient is taken in Python floats, where overflow gives +inf quietly.
    """
    if exponent <= 0.0:
        return math.inf
    if exponent > 512.0:  # noise underflows to zero well before 2**x overflows
        return 0.0
    growth = math.expm1(float(exponent) * _LN2)
    if growth == 0.0:
        return math.inf
    return float(num) / float(denom) / growth


def _outer(v0: float, v1: float, scale: float):
    return (scale * v0 * v0, scale * v0 * v1, scale * v1 * v1)


def _compression(c, pw, s, r1_s: float, r2_s: float):
    """The equivalent one-transmit/two-receive-antenna interference channel
    (sigma1_sq, sigma2_sq, zeta1, zeta2, c13v, c23v, c14v, c24v, snr1, inr1,
    snr2, inr2), vectors as pairs and matrices as entries (a11, a12, a22).
    sigma_i_sq is the compression noise of the peer's observation (+inf when
    nothing was forwarded, leaving exact zeros in the gains)."""
    c13, c14, c23, c24, _ = c
    lam1 = s[0]
    if lam1 == 0.0:
        raise InvalidAllocation("compression requires a positive phase-1 duration")
    p1_1 = phase_power(s[3], pw[0], lam1, "mu1")
    p2_1 = phase_power(s[6], pw[1], lam1, "eta1")
    at3 = 1.0 + quad(c13, c23, p1_1, 0.0, p2_1)
    at4 = 1.0 + quad(c14, c24, p1_1, 0.0, p2_1)
    cross = c13 * c14 * p1_1 + c23 * c24 * p2_1
    num = at3 * at4 - cross * cross

    sigma1_sq = _compression_noise(num, r2_s / lam1, at4)
    sigma2_sq = _compression_noise(num, r1_s / lam1, at3)
    zeta1 = 0.0 if math.isinf(sigma1_sq) else 1.0 / (1.0 + sigma1_sq)
    zeta2 = 0.0 if math.isinf(sigma2_sq) else 1.0 / (1.0 + sigma2_sq)

    rz1, rz2 = math.sqrt(zeta1), math.sqrt(zeta2)
    c13v = (c13, rz2 * c14)
    c23v = (c23, rz2 * c24)
    c14v = (rz1 * c13, c14)
    c24v = (rz1 * c23, c24)
    return (sigma1_sq, sigma2_sq, zeta1, zeta2, c13v, c23v, c14v, c24v,
            _outer(*c13v, p1_1), _outer(*c23v, p2_1), _outer(*c24v, p2_1), _outer(*c14v, p1_1))


def _add(m, n):
    return (m[0] + n[0], m[1] + n[1], m[2] + n[2])


def _logratio(snr, inr) -> float:
    """log2 |I + SNR + INR| - log2 |I + INR|: decode treating interference as noise."""
    return logdet(*_add(snr, inr)) - logdet(*inr)


def _sqnorm(v) -> float:
    return v[0] * v[0] + v[1] * v[1]


def _phase1(eq, lambda1: float, weight: float) -> tuple[float, float]:
    """Phase-1 rate pair from the last eight fields of the equivalent channel.

    Both interferences strong (ties count as strong): joint decoding, the
    pentagon corner picked by ``weight``; one strong: that receiver cancels
    it, the other treats it as noise; both weak: both treat it as noise.
    """
    if lambda1 == 0.0:
        return (0.0, 0.0)
    c13v, c23v, c14v, c24v, snr1, inr1, snr2, inr2 = eq
    strong_at_4 = _sqnorm(c14v) >= _sqnorm(c13v)
    strong_at_3 = _sqnorm(c23v) >= _sqnorm(c24v)
    if strong_at_4 and strong_at_3:
        a1 = lambda1 * logdet(*snr1)
        a2 = lambda1 * logdet(*snr2)
        a12 = lambda1 * min(logdet(*_add(snr1, inr1)), logdet(*_add(snr2, inr2)))
        return bounds.pentagon_corner(a1, a2, a12, weight)
    if strong_at_4:
        return (lambda1 * _logratio(snr1, inr1), lambda1 * logdet(*snr2))
    if strong_at_3:
        return (lambda1 * logdet(*snr1), lambda1 * _logratio(snr2, inr2))
    return (lambda1 * _logratio(snr1, inr1), lambda1 * _logratio(snr2, inr2))


def _stream_rates(c, pw, s, weight: float):
    """All ten stream rates in ``RcPhaseRates`` field order."""
    rates = _phase23(c, pw, s)
    lam1 = s[0]
    if lam1 == 0.0:
        if s[3] > 0.0 or s[6] > 0.0:
            raise InvalidAllocation("positive phase-1 power share on zero-duration phase")
        return rates + (0.0, 0.0)
    eq = _compression(c, pw, s, rates[2], rates[3])
    return rates + _phase1(eq[4:], lam1, weight)


def rc_kernel(c, pw, s, weight: float = 1.0) -> tuple[float, float]:
    """(R1, R2) of receiver cooperation; float form of ``rc_rate_pair``."""
    rates = _stream_rates(c, pw, s, weight)
    r1_d, r2_d, _, _, r1_2r1, r1_2r2, r2_2r1, r2_2r2, r1_r1, r2_r1 = rates
    return checked_pair(r1_d + r1_r1 + min(r1_2r1, r1_2r2), r2_d + r2_r1 + min(r2_2r1, r2_2r2))


# ---------------------------------------------------------------------------
# Dataclass views


def _shares(a: RcAllocation) -> tuple[float, ...]:
    return (*a.lam, *a.mu, *a.eta, *a.alpha, *a.beta)


def _unpack(g: ChannelGains, p: PowerBudget, a: RcAllocation):
    """Kernel arguments (c, pw, s); raises InfiniteGain at c34 = +inf."""
    if math.isinf(g.c34):
        raise InfiniteGain("c34 is infinite; trace the limit with frontier.trace "
                           "or evaluate it with rc_limit_rate_pair")
    return (*kernel_args(g, p), _shares(a))


def rc_phase_rates(g: ChannelGains, p: PowerBudget, a: RcAllocation,
                   weight: float = 1.0) -> RcPhaseRates:
    """All per-stream rates of the receiver-cooperation scheme."""
    return RcPhaseRates(*_stream_rates(*_unpack(g, p, a), weight))


def rc_rate_pair(g: ChannelGains, p: PowerBudget, a: RcAllocation,
                 weight: float = 1.0) -> RatePair:
    """Achievable (R1, R2) of the receiver-cooperation scheme.

    Each user's relayed stream is limited by the slower of its two hops;
    ``weight`` picks the operating corner of the phase-1 joint-decoding
    pentagon when both equivalent interferences are strong.
    """
    return RatePair(*rc_kernel(*_unpack(g, p, a), weight))


def rc_limit_rate_pair(g: ChannelGains, p: PowerBudget, weight: float = 1.0) -> RatePair:
    """Rate pair in the infinite-conferencing limit (c34 = +inf).

    Phase 1 fills the whole block, compression is lossless, and the scheme
    becomes the two-user one-transmit/two-receive-antenna multiple-access
    channel; the pair is the ``weight``-selected pentagon corner.
    """
    if not math.isinf(g.c34):
        raise NotInfinite("c34 is finite; use rc_rate_pair")
    mac = bounds.OuterBound(r1_max=logdet2(Sym2.outer(g.h1, p.p1)),
                            r2_max=logdet2(Sym2.outer(g.h2, p.p2)),
                            sum_max=bounds.mimo_mac_sum_bound(g, p), kind="RC_inf")
    return RatePair(*mac.corner(weight))


def rc_limit_region(g: ChannelGains, p: PowerBudget, opts=None):
    """Frontier of the infinite-conferencing receiver-cooperation region:
    ``frontier.trace("RC", g, p, opts)`` at c34 = +inf; NotInfinite if finite."""
    from . import frontier

    return frontier.trace_rc_limit(g, p, opts)
