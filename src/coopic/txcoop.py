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

All functions are pure; rates are bits per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    ChannelGains,
    DegeneratePhase,
    InfiniteGain,
    InvalidAllocation,
    NotInfinite,
    PowerBudget,
    RatePair,
    Simplex2,
    Simplex3,
    Sym2,
    TcAllocation,
    cap,
    inv2,
    phase_power,
    quad_form,
)

__all__ = [
    "TcPhaseRates",
    "TcCovariances",
    "Phase3PowerAudit",
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


def _check_finite_conferencing(g: ChannelGains) -> None:
    if math.isinf(g.c12):
        raise InfiniteGain("c12 is infinite; use tc_limit_region / tc_limit_rate_pair")


def _phase3_powers(p: PowerBudget, a: TcAllocation) -> tuple[float, float]:
    """Phase-3 burst power allotted to sources 1 and 2."""
    return (phase_power(a.kappa.w2, p.p1, a.lam.w3, "kappa2"),
            phase_power(a.gamma.w2, p.p2, a.lam.w3, "gamma2"))


def _phase3_streams(p: PowerBudget, a: TcAllocation):
    """Per-source (source 1, source 2) powers of the fresh, joint-1 and joint-2 streams."""
    p1_3, p2_3 = _phase3_powers(p, a)
    return ((a.mu.w1 * p1_3, a.eta.w1 * p2_3), (a.mu.w2 * p1_3, a.eta.w3 * p2_3),
            (a.mu.w3 * p1_3, a.eta.w2 * p2_3))


def _joint_streams(g: ChannelGains, p: PowerBudget, a: TcAllocation):
    """Per-source joint-stream powers for a covariance rule; checks c12 and lam3 first."""
    _check_finite_conferencing(g)
    if a.lam.w3 == 0.0:
        raise DegeneratePhase("phase 3 has zero duration")
    return _phase3_streams(p, a)[1:]


def _user1_clean(g: ChannelGains) -> bool:
    """Encoding order: user 1 gets the clean slot iff receiver 3's combined gain is larger."""
    return g.c13 + g.c23 > g.c14 + g.c24


def tc_phase12_rates(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> TcPhaseRates:
    """Phase 1-2 rates (conferencing and relayed-stream listening).

    A zero-duration phase contributes zero rate and must carry zero power
    share (kappa1 for phase 1, gamma1 for phase 2), else InvalidAllocation.
    """
    _check_finite_conferencing(g)
    lam1, lam2 = a.lam.w1, a.lam.w2
    p1_1 = phase_power(a.kappa.w1, p.p1, lam1, "kappa1")
    p2_1 = phase_power(a.gamma.w1, p.p2, lam2, "gamma1")

    # Phase 1: source 1 broadcasts; DPC order set by c13 > c14.
    r1_r1 = lam1 * cap(g.c12 ** 2 * a.alpha.w1 * p1_1)
    if g.c13 > g.c14:
        r1_1 = lam1 * cap(g.c13 ** 2 * a.alpha.w1 * p1_1)
        r2_1 = lam1 * cap(g.c14 ** 2 * a.alpha.w2 * p1_1 / (1.0 + g.c14 ** 2 * a.alpha.w1 * p1_1))
    else:
        r1_1 = lam1 * cap(g.c13 ** 2 * a.alpha.w1 * p1_1 / (1.0 + g.c13 ** 2 * a.alpha.w2 * p1_1))
        r2_1 = lam1 * cap(g.c14 ** 2 * a.alpha.w2 * p1_1)

    # Phase 2: source 2 broadcasts; DPC order set by c24 > c23.
    r2_r1 = lam2 * cap(g.c12 ** 2 * a.beta.w1 * p2_1)
    if g.c24 > g.c23:
        r2_2 = lam2 * cap(g.c24 ** 2 * a.beta.w1 * p2_1)
        r1_2 = lam2 * cap(g.c23 ** 2 * a.beta.w2 * p2_1 / (1.0 + g.c23 ** 2 * a.beta.w1 * p2_1))
    else:
        r2_2 = lam2 * cap(g.c24 ** 2 * a.beta.w1 * p2_1 / (1.0 + g.c24 ** 2 * a.beta.w2 * p2_1))
        r1_2 = lam2 * cap(g.c23 ** 2 * a.beta.w2 * p2_1)

    return TcPhaseRates(r1_r1=r1_r1, r2_r1=r2_r1, r1_1=r1_1, r2_1=r2_1, r1_2=r1_2, r2_2=r2_2)


def _duality_covariances(g: ChannelGains, s_joint1: float, s_joint2: float,
                         user1_clean: bool) -> TcCovariances:
    """Joint-stream covariances from the dual multiple-access construction.

    The clean stream's covariance is shaped by the inverse of
    I + u u^T * (other stream's power), with u the encoding-order-dependent
    per-source gain vector; the other stream gets a scaled identity whose
    scale is inflated by the clean stream's leakage into the peer receiver.
    """
    if user1_clean:
        b = Sym2.identity() + Sym2.outer(g.h2, s_joint2)
        sigma1 = inv2(b) * s_joint1
        a_scale = 1.0 + quad_form(g.h2, sigma1)
        sigma2 = Sym2.identity(a_scale * s_joint2)
    else:
        b = Sym2.identity() + Sym2.outer(g.h1, s_joint1)
        sigma1 = inv2(b) * s_joint2
        a_scale = 1.0 + quad_form(g.h1, sigma1)
        sigma2 = Sym2.identity(a_scale * s_joint1)
    return TcCovariances(sigma1=sigma1, sigma2=sigma2, user1_clean=user1_clean)


def tc_phase3_covariances(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> TcCovariances:
    """The paper's phase-3 covariances for the two joint streams.

    Built from the dual multiple-access solution at the pooled stream powers
    (``_duality_covariances``): the clean stream is inverse-shaped and the
    other is a scaled identity, so a source can radiate more than its own
    phase-3 allotment (see ``phase3_power_audit``).  ``tc_rate_pair`` uses
    ``tc_budget_covariances`` instead.

    Raises DegeneratePhase when the joint phase has zero duration.
    """
    joint1, joint2 = _joint_streams(g, p, a)
    return _duality_covariances(g, sum(joint1), sum(joint2), _user1_clean(g))


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
    joint1, joint2 = _joint_streams(g, p, a)
    user1_clean = _user1_clean(g)
    if user1_clean:
        clean, first, (x, y) = joint1, joint2, g.g2
    else:
        clean, first, (x, y) = joint2, joint1, g.g1
    s = sum(first)
    rho_dual = -s * x * y / math.sqrt((1.0 + s * x * x) * (1.0 + s * y * y))
    rho = 1.0 + 2.0 * rho_dual
    sigma1 = Sym2(clean[0], rho * math.sqrt(clean[0] * clean[1]), clean[1])
    sigma2 = Sym2.outer((math.sqrt(first[0]), math.sqrt(first[1])))
    return TcCovariances(sigma1=sigma1, sigma2=sigma2, user1_clean=user1_clean)


def rdpc_covariances(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> TcCovariances:
    """Diagonal joint-stream covariances: the no-coherent-combining baseline.

    Equivalent to random, unsynchronized carrier phases between the sources,
    which reduces the scheme to recycled/parallel DPC.
    """
    joint1, joint2 = (Sym2.diag(*powers) for powers in _joint_streams(g, p, a))
    if _user1_clean(g):
        return TcCovariances(sigma1=joint1, sigma2=joint2, user1_clean=True)
    return TcCovariances(sigma1=joint2, sigma2=joint1, user1_clean=False)


def tc_phase3_rates(g: ChannelGains, p: PowerBudget, a: TcAllocation,
                    cov: TcCovariances) -> TcPhaseRates:
    """Phase-3 joint and fresh stream rates under the given covariances.

    The receiver of the clean stream decodes its joint stream first (only
    its own fresh stream plus noise in the denominator), then its fresh
    stream interference-free.  The other receiver sees the clean stream's
    leakage plus both fresh streams as noise.
    """
    lam3 = a.lam.w3
    if lam3 == 0.0:
        return TcPhaseRates()
    (fresh1, fresh2), _, _ = _phase3_streams(p, a)
    i1_at3 = g.c13 ** 2 * fresh1
    i1_at4 = g.c14 ** 2 * fresh1
    i2_at4 = g.c24 ** 2 * fresh2
    i2_at3 = g.c23 ** 2 * fresh2
    if cov.user1_clean:
        r1_3 = lam3 * cap(quad_form(g.g1, cov.sigma1) / (1.0 + i1_at3))
        r1_d = lam3 * cap(i1_at3)
        leak = quad_form(g.g2, cov.sigma1)
        r2_3 = lam3 * cap(quad_form(g.g2, cov.sigma2) / (1.0 + leak + i1_at4 + i2_at4))
        r2_d = lam3 * cap(i2_at4 / (1.0 + leak + i1_at4))
    else:
        r2_3 = lam3 * cap(quad_form(g.g2, cov.sigma1) / (1.0 + i2_at4))
        r2_d = lam3 * cap(i2_at4)
        leak = quad_form(g.g1, cov.sigma1)
        r1_3 = lam3 * cap(quad_form(g.g1, cov.sigma2) / (1.0 + leak + i1_at3 + i2_at3))
        r1_d = lam3 * cap(i1_at3 / (1.0 + leak + i2_at3))
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
    (fresh1, fresh2), _, _ = _phase3_streams(p, a)
    radiated = (fresh1 + cov.sigma1.a11 + cov.sigma2.a11,
                fresh2 + cov.sigma1.a22 + cov.sigma2.a22)
    return Phase3PowerAudit(radiated=radiated, allotted=_phase3_powers(p, a))


def tc_phase_rates(g: ChannelGains, p: PowerBudget, a: TcAllocation,
                   cov: TcCovariances | None = None) -> TcPhaseRates:
    """All per-stream rates.

    ``cov`` overrides the phase-3 covariances, which default to the
    budget-respecting ``tc_budget_covariances``; pass
    ``tc_phase3_covariances(g, p, a)`` for the paper's construction.
    """
    p12 = tc_phase12_rates(g, p, a)
    if a.lam.w3 == 0.0:
        if a.kappa.w2 > 0.0 or a.gamma.w2 > 0.0:
            raise InvalidAllocation("positive phase-3 power share on zero-duration phase")
        return p12
    if cov is None:
        cov = tc_budget_covariances(g, p, a)
    p3 = tc_phase3_rates(g, p, a, cov)
    return TcPhaseRates(
        r1_r1=p12.r1_r1, r2_r1=p12.r2_r1,
        r1_1=p12.r1_1, r2_1=p12.r2_1, r1_2=p12.r1_2, r2_2=p12.r2_2,
        r1_3=p3.r1_3, r2_3=p3.r2_3, r1_d=p3.r1_d, r2_d=p3.r2_d,
    )


def _combine(r: TcPhaseRates) -> RatePair:
    # Each user's relayed stream is limited both by the conferencing hop and
    # by what its receiver collects across the three phases.
    r1 = r.r1_d + min(r.r1_r1, r.r1_1 + r.r1_2 + r.r1_3)
    r2 = r.r2_d + min(r.r2_r1, r.r2_1 + r.r2_2 + r.r2_3)
    return RatePair(r1, r2)


def tc_rate_pair(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> RatePair:
    """Achievable (R1, R2) of the transmitter-cooperation scheme."""
    return _combine(tc_phase_rates(g, p, a))


def rdpc_rate_pair(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> RatePair:
    """Achievable (R1, R2) of the recycled/parallel-DPC baseline."""
    return _combine(tc_phase_rates(g, p, a, cov=rdpc_covariances(g, p, a)))


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
    s_joint1 = mu.w2 * p.p1 + eta.w3 * p.p2
    s_joint2 = mu.w3 * p.p1 + eta.w2 * p.p2
    cov = _duality_covariances(g, s_joint1, s_joint2, user1_clean)
    a = TcAllocation(lam=Simplex3(0.0, 0.0, 1.0), kappa=Simplex2(0.0, 1.0),
                     gamma=Simplex2(0.0, 1.0), alpha=Simplex2(0.5, 0.5),
                     beta=Simplex2(0.5, 0.5), mu=mu, eta=eta)
    rates = tc_phase3_rates(g, p, a, cov)
    return RatePair(rates.r1_d + rates.r1_3, rates.r2_d + rates.r2_3)


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
