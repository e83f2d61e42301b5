"""Transmitter-cooperation achievable rates.

Three half-duplex phases: in phases 1 and 2 each source broadcasts a
conferencing stream to the other source together with a relayed stream for
the opposite receiver (dirty-paper coded in an order set by the direct/cross
gain comparison); in phase 3 the two sources, having exchanged messages, act
as a two-antenna transmitter and broadcast a joint stream per user plus a
fresh stream per user.

Each source keeps its own power budget, as the relay cut-set bound assumes.
The default joint-stream covariances (``tc_budget_covariances``) have
per-source powers equal to the allocation's shares, so no source radiates
more than it was allotted (``phase3_power_audit``).
The paper's construction from the dual multiple-access solution
(``tc_phase3_covariances``) pools the two budgets; it stays available
through ``tc_phase_rates(..., cov=...)``.  The infinite-conferencing limit
keeps the pooled construction: there the two sources act as one transmitter
with a pooled budget.

Also provides the recycled/parallel-DPC baseline (diagonal covariances, no
coherent combining) and the infinite-conferencing limit of the scheme.

Each rate formula exists once, as a kernel on plain floats: gains
``c = (c12, c13, c14, c23, c24)`` and powers ``pw = (p1, p2)`` from
``kernel_args``, the 17 allocation shares ``s`` flat in field order (lam1..3,
kappa1..2, gamma1..2, alpha1..2, beta1..2, mu1..3, eta1..3), and a
covariance as ``(sigma1, sigma2, user1_clean)`` with each sigma given by
its entries (a11, a12, a22).  ``tc_kernel``, ``rdpc_kernel`` and
``tc_limit_kernel`` return the rate pair as floats; the frontier search
scores every evaluation with them.  The dataclass API is a thin view: it
unpacks its arguments, calls the kernels and wraps the result, raising the
same errors in the same order.  The kernels do not check c12: the views and
the tracer do, once.

All functions are pure; rates are bits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .model import (
    ChannelGains,
    DegeneratePhase,
    InfiniteGain,
    InvalidAllocation,
    NotInfinite,
    PowerBudget,
    RatePair,
    Simplex3,
    Sym2,
    TcAllocation,
    cap,
    checked_pair,
    inverse,
    phase_power,
    quad,
)

__all__ = [
    "TcPhaseRates",
    "TcCovariances",
    "Phase3PowerAudit",
    "kernel_args",
    "tc_kernel",
    "rdpc_kernel",
    "tc_limit_kernel",
    "tc_phase12_rates",
    "tc_phase3_covariances",
    "tc_budget_covariances",
    "phase3_power_audit",
    "tc_phase3_rates",
    "tc_phase_rates",
    "tc_rate_pair",
    "rdpc_covariances",
    "rdpc_rate_pair",
    "tc_limit_rate_pair",
    "tc_limit_region",
]


@dataclass(frozen=True)
class TcPhaseRates:
    """Per-stream rate constraints of the transmitter-cooperation scheme.

    r1_r1 / r2_r1 -- conferencing rates decodable by the peer source
    r1_1, r1_2    -- user-1 relayed-stream pieces receiver 3 collects in
                     phases 1 and 2 (r2_1, r2_2 likewise for receiver 4)
    r1_3 / r2_3   -- joint-stream rates decoded in phase 3
    r1_d / r2_d   -- fresh-stream rates decoded in phase 3
    """

    r1_r1: float = 0.0
    r2_r1: float = 0.0
    r1_1: float = 0.0
    r2_1: float = 0.0
    r1_2: float = 0.0
    r2_2: float = 0.0
    r1_3: float = 0.0
    r2_3: float = 0.0
    r1_d: float = 0.0
    r2_d: float = 0.0


@dataclass(frozen=True)
class TcCovariances:
    """Phase-3 joint-stream covariances.

    ``sigma1`` is carried by the stream encoded last (clean of interference
    at its receiver); ``sigma2`` by the stream encoded first.
    ``user1_clean`` records which user got the clean slot: True when
    receiver 3's combined gain exceeds receiver 4's, False otherwise (ties
    included).
    """

    sigma1: Sym2
    sigma2: Sym2
    user1_clean: bool


# Relative slack of the power audit: the shares are summed in floating point.
_AUDIT_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Kernels (plain floats)


def kernel_args(g: ChannelGains, p: PowerBudget):
    """The kernels' gains ``c`` and powers ``pw``."""
    return (g.c12, g.c13, g.c14, g.c23, g.c24), (p.p1, p.p2)


def _user1_clean(c) -> bool:
    """Encoding order: user 1 gets the clean slot iff receiver 3's combined gain is larger."""
    return c[1] + c[3] > c[2] + c[4]


def _phase12(c, pw, s):
    """Phase 1-2 rates (r1_r1, r2_r1, r1_1, r2_1, r1_2, r2_2)."""
    c12, c13, c14, c23, c24 = c
    lam1, lam2 = s[0], s[1]
    alpha1, alpha2, beta1, beta2 = s[7], s[8], s[9], s[10]
    p1_1 = phase_power(s[3], pw[0], lam1, "kappa1")
    p2_1 = phase_power(s[5], pw[1], lam2, "gamma1")

    # Phase 1: source 1 broadcasts; DPC order set by c13 > c14.
    r1_r1 = lam1 * cap(c12 ** 2 * alpha1 * p1_1)
    if c13 > c14:
        r1_1 = lam1 * cap(c13 ** 2 * alpha1 * p1_1)
        r2_1 = lam1 * cap(c14 ** 2 * alpha2 * p1_1 / (1.0 + c14 ** 2 * alpha1 * p1_1))
    else:
        r1_1 = lam1 * cap(c13 ** 2 * alpha1 * p1_1 / (1.0 + c13 ** 2 * alpha2 * p1_1))
        r2_1 = lam1 * cap(c14 ** 2 * alpha2 * p1_1)

    # Phase 2: source 2 broadcasts; DPC order set by c24 > c23.
    r2_r1 = lam2 * cap(c12 ** 2 * beta1 * p2_1)
    if c24 > c23:
        r2_2 = lam2 * cap(c24 ** 2 * beta1 * p2_1)
        r1_2 = lam2 * cap(c23 ** 2 * beta2 * p2_1 / (1.0 + c23 ** 2 * beta1 * p2_1))
    else:
        r2_2 = lam2 * cap(c24 ** 2 * beta1 * p2_1 / (1.0 + c24 ** 2 * beta2 * p2_1))
        r1_2 = lam2 * cap(c23 ** 2 * beta2 * p2_1)
    return (r1_r1, r2_r1, r1_1, r2_1, r1_2, r2_2)


def _phase3_powers(pw, s) -> tuple[float, float]:
    """Phase-3 burst power allotted to sources 1 and 2."""
    return (phase_power(s[4], pw[0], s[2], "kappa2"),
            phase_power(s[6], pw[1], s[2], "gamma2"))


def _phase3_split(pw, s):
    """Per-source (source 1, source 2) powers of the fresh, joint-1 and joint-2 streams."""
    p1_3, p2_3 = _phase3_powers(pw, s)
    return ((s[11] * p1_3, s[14] * p2_3), (s[12] * p1_3, s[16] * p2_3),
            (s[13] * p1_3, s[15] * p2_3))


def _joint(pw, s):
    """Per-source joint-stream powers for a covariance rule; checks lam3 first."""
    if s[2] == 0.0:
        raise DegeneratePhase("phase 3 has zero duration")
    return _phase3_split(pw, s)[1:]


def _duality_cov(c, s_joint1: float, s_joint2: float, user1_clean: bool):
    """Joint-stream covariances from the dual multiple-access construction.

    The clean stream's covariance is shaped by the inverse of
    I + u u^T * (other stream's power), with u the encoding-order-dependent
    per-source gain vector; the other stream gets a scaled identity whose
    scale is inflated by the clean stream's leakage into the peer receiver.
    """
    if user1_clean:
        u0, u1, s_clean, s_other = c[3], c[4], s_joint1, s_joint2
    else:
        u0, u1, s_clean, s_other = c[1], c[2], s_joint2, s_joint1
    b11, b12, b22 = inverse(1.0 + s_other * u0 * u0, s_other * u0 * u1,
                            1.0 + s_other * u1 * u1)
    sigma1 = (b11 * s_clean, b12 * s_clean, b22 * s_clean)
    a_scale = 1.0 + quad(u0, u1, *sigma1)
    return (sigma1, (a_scale * s_other, 0.0, a_scale * s_other), user1_clean)


def _budget_cov(c, joint1, joint2):
    """Per-source-budget covariances (see ``tc_budget_covariances``)."""
    user1_clean = _user1_clean(c)
    if user1_clean:
        clean, first, x, y = joint1, joint2, c[2], c[4]
    else:
        clean, first, x, y = joint2, joint1, c[1], c[3]
    s = first[0] + first[1]
    rho_dual = -s * x * y / math.sqrt((1.0 + s * x * x) * (1.0 + s * y * y))
    rho = 1.0 + 2.0 * rho_dual
    f0, f1 = math.sqrt(first[0]), math.sqrt(first[1])
    return ((clean[0], rho * math.sqrt(clean[0] * clean[1]), clean[1]),
            (f0 * f0, f0 * f1, f1 * f1), user1_clean)


def _rdpc_cov(c, joint1, joint2):
    """Diagonal covariances (see ``rdpc_covariances``)."""
    diag1, diag2 = (joint1[0], 0.0, joint1[1]), (joint2[0], 0.0, joint2[1])
    if _user1_clean(c):
        return (diag1, diag2, True)
    return (diag2, diag1, False)


def _phase3(c, lam3: float, fresh, cov):
    """Phase-3 rates (r1_3, r2_3, r1_d, r2_d) under the covariances ``cov``.

    The receiver of the clean stream decodes its joint stream first (only
    its own fresh stream plus noise in the denominator), then its fresh
    stream interference-free.  The other receiver sees the clean stream's
    leakage plus both fresh streams as noise.
    """
    _, c13, c14, c23, c24 = c
    sigma1, sigma2, user1_clean = cov
    fresh1, fresh2 = fresh
    i1_at3 = c13 ** 2 * fresh1
    i1_at4 = c14 ** 2 * fresh1
    i2_at4 = c24 ** 2 * fresh2
    i2_at3 = c23 ** 2 * fresh2
    if user1_clean:
        r1_3 = lam3 * cap(quad(c13, c23, *sigma1) / (1.0 + i1_at3))
        r1_d = lam3 * cap(i1_at3)
        leak = quad(c14, c24, *sigma1)
        r2_3 = lam3 * cap(quad(c14, c24, *sigma2) / (1.0 + leak + i1_at4 + i2_at4))
        r2_d = lam3 * cap(i2_at4 / (1.0 + leak + i1_at4))
    else:
        r2_3 = lam3 * cap(quad(c14, c24, *sigma1) / (1.0 + i2_at4))
        r2_d = lam3 * cap(i2_at4)
        leak = quad(c13, c23, *sigma1)
        r1_3 = lam3 * cap(quad(c13, c23, *sigma2) / (1.0 + leak + i1_at3 + i2_at3))
        r1_d = lam3 * cap(i1_at3 / (1.0 + leak + i2_at3))
    return (r1_3, r2_3, r1_d, r2_d)


def _stream_rates(c, pw, s, cov=None):
    """All ten stream rates in ``TcPhaseRates`` field order.

    ``cov`` defaults to the per-source-budget covariances.
    """
    rates = _phase12(c, pw, s)
    lam3 = s[2]
    if lam3 == 0.0:
        if s[4] > 0.0 or s[6] > 0.0:
            raise InvalidAllocation("positive phase-3 power share on zero-duration phase")
        return rates + (0.0, 0.0, 0.0, 0.0)
    fresh, joint1, joint2 = _phase3_split(pw, s)
    if cov is None:
        cov = _budget_cov(c, joint1, joint2)
    return rates + _phase3(c, lam3, fresh, cov)


def _pair(rates) -> tuple[float, float]:
    # Each user's relayed stream is limited both by the conferencing hop and
    # by what its receiver collects across the three phases.
    r1_r1, r2_r1, r1_1, r2_1, r1_2, r2_2, r1_3, r2_3, r1_d, r2_d = rates
    return checked_pair(r1_d + min(r1_r1, r1_1 + r1_2 + r1_3),
                        r2_d + min(r2_r1, r2_1 + r2_2 + r2_3))


def tc_kernel(c, pw, s) -> tuple[float, float]:
    """(R1, R2) of transmitter cooperation; float form of ``tc_rate_pair``."""
    return _pair(_stream_rates(c, pw, s))


def rdpc_kernel(c, pw, s) -> tuple[float, float]:
    """(R1, R2) of the RDPC baseline; float form of ``rdpc_rate_pair``.

    Raises DegeneratePhase at lam3 = 0 before any phase-1/2 check.
    """
    return _pair(_stream_rates(c, pw, s, _rdpc_cov(c, *_joint(pw, s))))


def tc_limit_kernel(c, pw, s, user1_clean: bool) -> tuple[float, float]:
    """(R1, R2) at c12 = +inf for the joint-phase splits s = (mu1..3, eta1..3).

    Float form of ``tc_limit_rate_pair``: the joint phase fills the block
    (lam3 = 1, all power in phase 3) with the pooled duality covariances.
    """
    p1, p2 = pw
    s_joint1 = s[1] * p1 + s[5] * p2
    s_joint2 = s[2] * p1 + s[4] * p2
    cov = _duality_cov(c, s_joint1, s_joint2, user1_clean)
    r1_3, r2_3, r1_d, r2_d = _phase3(c, 1.0, (s[0] * p1, s[3] * p2), cov)
    return checked_pair(r1_d + r1_3, r2_d + r2_3)


# ---------------------------------------------------------------------------
# Dataclass views


def _shares(a: TcAllocation) -> tuple[float, ...]:
    return (*a.lam, *a.kappa, *a.gamma, *a.alpha, *a.beta, *a.mu, *a.eta)


def _unpack(g: ChannelGains, p: PowerBudget, a: TcAllocation):
    """Kernel arguments (c, pw, s); raises InfiniteGain at c12 = +inf."""
    if math.isinf(g.c12):
        raise InfiniteGain("c12 is infinite; use tc_limit_region / tc_limit_rate_pair")
    return (*kernel_args(g, p), _shares(a))


def _joint_streams(g: ChannelGains, p: PowerBudget, a: TcAllocation):
    """Kernel gains and per-source joint-stream powers; checks c12 and lam3 first."""
    c, pw, s = _unpack(g, p, a)
    return (c, *_joint(pw, s))


def _cov_view(cov) -> TcCovariances:
    sigma1, sigma2, user1_clean = cov
    return TcCovariances(sigma1=Sym2(*sigma1), sigma2=Sym2(*sigma2), user1_clean=user1_clean)


def _cov_floats(cov: TcCovariances):
    return ((cov.sigma1.a11, cov.sigma1.a12, cov.sigma1.a22),
            (cov.sigma2.a11, cov.sigma2.a12, cov.sigma2.a22), cov.user1_clean)


def tc_phase12_rates(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> TcPhaseRates:
    """Phase 1-2 rates (conferencing and relayed-stream listening).

    A zero-duration phase contributes zero rate and must carry zero power
    share (kappa1 for phase 1, gamma1 for phase 2), else InvalidAllocation.
    """
    return TcPhaseRates(*_phase12(*_unpack(g, p, a)))


def tc_phase3_covariances(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> TcCovariances:
    """The paper's phase-3 covariances for the two joint streams.

    Built from the dual multiple-access solution at the pooled stream powers
    (``_duality_cov``): the clean stream is inverse-shaped and the other is
    a scaled identity, so a source can radiate more than its own phase-3
    allotment (see ``phase3_power_audit``).  ``tc_rate_pair`` uses
    ``tc_budget_covariances`` instead.

    Raises DegeneratePhase when the joint phase has zero duration.
    """
    c, joint1, joint2 = _joint_streams(g, p, a)
    return _cov_view(_duality_cov(c, sum(joint1), sum(joint2), _user1_clean(c)))


def tc_budget_covariances(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> TcCovariances:
    """Phase-3 joint-stream covariances that keep each source within its budget.

    Each joint stream's per-source powers are the allocation's shares (mu2
    and eta3 for user 1, mu3 and eta2 for user 2), so each source radiates
    exactly its phase-3 allotment; only the correlation between the two
    sources' copies of a stream is chosen here.  The stream encoded first is
    sent in phase (correlation +1), which maximizes its own rate and touches
    no other.  The clean stream's correlation is rho = 1 + 2*rho_dual, where
    rho_dual in (-1, 0] is the correlation coefficient of the dual
    multiple-access shaping (I + s g g^T)^-1 of the paper's construction
    (g the other receiver's gains, s the first stream's power): coherent
    while the first stream is weak, falling continuously towards -1
    (towards zero-forcing the other receiver) as that stream grows.  The
    factor 2 is the largest for which the clean stream's received power
    cannot fall when all powers are scaled up together, so neither can the
    rate pair of a fixed allocation; it is also the only factor whose turn
    ends at -1.  The rule is a heuristic: a correlation chosen per weight by
    the frontier search reaches further (see ROADMAP.md).

    Raises DegeneratePhase when the joint phase has zero duration.
    """
    return _cov_view(_budget_cov(*_joint_streams(g, p, a)))


def rdpc_covariances(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> TcCovariances:
    """Diagonal joint-stream covariances: the no-coherent-combining baseline.

    Equivalent to random, unsynchronized carrier phases between the sources,
    which reduces the scheme to recycled/parallel DPC.
    """
    return _cov_view(_rdpc_cov(*_joint_streams(g, p, a)))


def tc_phase3_rates(g: ChannelGains, p: PowerBudget, a: TcAllocation,
                    cov: TcCovariances) -> TcPhaseRates:
    """Phase-3 joint and fresh stream rates under the given covariances."""
    lam3 = a.lam.w3
    if lam3 == 0.0:
        return TcPhaseRates()
    c, pw = kernel_args(g, p)
    fresh = _phase3_split(pw, _shares(a))[0]
    r1_3, r2_3, r1_d, r2_d = _phase3(c, lam3, fresh, _cov_floats(cov))
    return TcPhaseRates(r1_3=r1_3, r2_3=r2_3, r1_d=r1_d, r2_d=r2_d)


@dataclass(frozen=True)
class Phase3PowerAudit:
    """Phase-3 burst power of each source: radiated by the streams vs allotted.

    ``radiated`` sums the source's fresh-stream power and its diagonal entry
    of both joint-stream covariances; ``allotted`` is its phase-3 share of
    the budget over the phase duration (kappa2*P1/lam3, gamma2*P2/lam3).
    """

    radiated: tuple[float, float]
    allotted: tuple[float, float]

    def passes(self) -> bool:
        """True iff no source radiates more than its allotment (up to rounding)."""
        return all(r <= q * (1.0 + _AUDIT_RTOL) for r, q in zip(self.radiated, self.allotted))


def phase3_power_audit(g: ChannelGains, p: PowerBudget, a: TcAllocation,
                       cov: TcCovariances | None = None) -> Phase3PowerAudit:
    """Audit the phase-3 power of each source under ``cov``.

    ``cov`` defaults to the covariances ``tc_rate_pair`` uses
    (``tc_budget_covariances``).  A zero-duration joint phase radiates
    nothing and is allotted nothing.
    """
    if a.lam.w3 == 0.0:
        return Phase3PowerAudit(radiated=(0.0, 0.0), allotted=(0.0, 0.0))
    if cov is None:
        cov = tc_budget_covariances(g, p, a)
    pw, s = (p.p1, p.p2), _shares(a)
    fresh1, fresh2 = _phase3_split(pw, s)[0]
    radiated = (fresh1 + cov.sigma1.a11 + cov.sigma2.a11,
                fresh2 + cov.sigma1.a22 + cov.sigma2.a22)
    return Phase3PowerAudit(radiated=radiated, allotted=_phase3_powers(pw, s))


def tc_phase_rates(g: ChannelGains, p: PowerBudget, a: TcAllocation,
                   cov: TcCovariances | None = None) -> TcPhaseRates:
    """All per-stream rates.

    ``cov`` overrides the phase-3 covariances, which default to the
    budget-respecting ``tc_budget_covariances``; pass
    ``tc_phase3_covariances(g, p, a)`` for the paper's construction.
    """
    c, pw, s = _unpack(g, p, a)
    return TcPhaseRates(*_stream_rates(c, pw, s, None if cov is None else _cov_floats(cov)))


def _combine(r: TcPhaseRates) -> RatePair:
    return RatePair(*_pair(astuple(r)))


def tc_rate_pair(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> RatePair:
    """Achievable (R1, R2) of the transmitter-cooperation scheme."""
    return RatePair(*tc_kernel(*_unpack(g, p, a)))


def rdpc_rate_pair(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> RatePair:
    """Achievable (R1, R2) of the recycled/parallel-DPC baseline."""
    return RatePair(*rdpc_kernel(*_unpack(g, p, a)))


def tc_limit_rate_pair(g: ChannelGains, p: PowerBudget, mu: Simplex3, eta: Simplex3,
                       user1_clean: bool) -> RatePair:
    """Joint-phase-only rate pair in the infinite-conferencing limit.

    With c12 = +inf the exchange phases take vanishing time and the
    conferencing constraints drop out, leaving the full-duration joint
    broadcast.  Both encoding orders are admissible in the limit (the two
    sources form one two-antenna transmitter), so the order is an explicit
    argument and the region is the union over both.
    """
    if not math.isinf(g.c12):
        raise NotInfinite("c12 is finite; use tc_rate_pair")
    return RatePair(*tc_limit_kernel(*kernel_args(g, p), (*mu, *eta), user1_clean))


def tc_limit_region(g: ChannelGains, p: PowerBudget, opts=None):
    """Frontier of the infinite-conferencing transmitter-cooperation region.

    Sweeps the joint-phase power splits (and both encoding orders) with the
    generic frontier machinery; the result coincides with the pooled-power
    two-antenna broadcast region.
    """
    if not math.isinf(g.c12):
        raise NotInfinite("c12 is finite; use frontier.trace")
    from . import frontier

    return frontier.trace_tc_limit(g, p, opts)
