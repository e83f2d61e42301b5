"""Transmitter-cooperation achievable rates.

Three half-duplex phases: in phases 1 and 2 each source broadcasts a
conferencing stream to the other source together with a relayed stream for
the opposite receiver (dirty-paper coded in an order set by the direct/cross
gain comparison); in phase 3 the two sources, having exchanged messages, act
as a two-antenna transmitter and broadcast a joint stream per user plus a
fresh stream per user.

Phase 3's joint-stream covariances come from one of three rules with one
signature, ``rule(c, joint1, joint2, user1_clean, ops)``: each joint
stream's (source 1, source 2) powers and the encoding order, which the
caller decides once (``_user1_clean``; the limit tracer tries both).  The default,
``_budget_cov`` (``tc_budget_covariances``), keeps each source's own budget,
as the relay cut-set bound assumes: no source radiates more than it was
allotted (``phase3_power_audit``).  The paper's dual multiple-access
construction, ``_duality_cov`` (``tc_phase3_covariances``), pools the two
budgets; it stays available through ``tc_phase_rates(..., cov=...)`` and is
the rule of the infinite-conferencing limit, where the two sources act as
one transmitter (``frontier.trace`` routes c12 = +inf to its tracer).
``_rdpc_cov`` (``rdpc_covariances``) is the recycled/parallel-DPC baseline:
diagonal covariances, no coherent combining.

Each rate formula exists once, as a kernel over ``ops``, for both users
(``_exchange``, ``_phase3``): gains ``c`` and powers ``pw`` from
``model.kernel_args``, the allocation ``a`` as its simplex blocks in
``TcAllocation`` field order (the allocation itself or one list of weights
per block), and a covariance as ``(sigma1, sigma2, user1_clean)`` with each
sigma given by its entries (a11, a12, a22), the tuple ``TcCovariances`` names.
``tc_kernel`` (with ``rdpc`` for the baseline) and ``tc_limit_kernel``
return the rate pair; the frontier search scores every evaluation with
them.  Every kernel and helper takes a trailing ``ops`` (see ``model``):
on floats (``FLOAT_OPS``, the default) it raises as the views document,
and over an ``ArrayOps`` the same code scores a batch, one lane per
allocation, with each block weight a column.  The gains and powers may be columns too (a
batch over several channels), and so may ``tc_kernel``'s covariance rule
(``rdpc``) and the limit's encoding order (``user1_clean``): the choices
they make, the DPC order of an exchange phase (own > cross), the encoding
order and the rule, go through ``ops.branch`` and ``ops.select``, which
pick lane by lane for a column and, like the float path, take one branch
for a bool shared by the whole batch.
The dataclass API is a thin view: it unpacks its arguments, calls the
kernels on floats and wraps the result, raising the same errors in the
same order.
The kernels do not check c12: the views and the tracer call the one
gain-mode check, ``model._conferencing_args``.  The views take no
allocation but a ``TcAllocation`` (``model._view_args``, after that check).

All functions are pure; rates are bits per channel use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    FLOAT_OPS,
    ChannelGains,
    PowerBudget,
    RatePair,
    Simplex3,
    TcAllocation,
    _check_type,
    _conferencing_args,
    _view_args,
    inverse,
)

__all__ = [
    "TcPhaseRates",
    "TcCovariances",
    "Phase3PowerAudit",
    "tc_kernel",
    "tc_limit_kernel",
    "tc_phase3_covariances",
    "tc_budget_covariances",
    "phase3_power_audit",
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


class TcCovariances(NamedTuple):
    """Phase-3 joint-stream covariances, each sigma as its entries (a11, a12, a22).

    ``sigma1`` is carried by the stream encoded last (clean of interference
    at its receiver); ``sigma2`` by the stream encoded first.
    ``user1_clean`` records which user got the clean slot: True when
    receiver 3's combined gain exceeds receiver 4's, False otherwise (ties
    included).  It is the tuple the kernels take as ``cov``.
    """

    sigma1: tuple[float, float, float]
    sigma2: tuple[float, float, float]
    user1_clean: bool


# Relative slack of the power audit: the shares are summed in floating point.
_AUDIT_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Kernels (on floats or columns, over ``ops``)


def _user1_clean(c) -> bool:
    """Encoding order: user 1 gets the clean slot iff receiver 3's combined gain is larger."""
    _, c13, c14, c23, c24, _ = c
    return c13 + c23 > c14 + c24


def _exchange(lam, p, c12, own, cross, conf, relay, ops):
    """(conferencing, own relayed, cross relayed) rates of one exchange phase:
    the conferencing stream (share ``conf``) also reaches the source's own
    receiver (gain ``own``), the relayed one (``relay``) the other receiver
    (``cross``), dirty-paper coded in an order set by own > cross."""
    r_conf = lam * ops.cap(c12 * c12 * conf * p)
    return (r_conf, *ops.branch(own > cross, _conf_clean, _relay_clean)(
        lam, p, own, cross, conf, relay, ops))


def _conf_clean(lam, p, own, cross, conf, relay, ops):
    """``_exchange``'s (own, cross) rates when the conferencing stream is coded last."""
    cap = ops.cap
    return (lam * cap(own * own * conf * p),
            lam * cap(cross * cross * relay * p / (1.0 + cross * cross * conf * p)))


def _relay_clean(lam, p, own, cross, conf, relay, ops):
    """``_exchange``'s (own, cross) rates when the relayed stream is coded last."""
    cap = ops.cap
    return (lam * cap(own * own * conf * p / (1.0 + own * own * relay * p)),
            lam * cap(cross * cross * relay * p))


def _phase12(c, pw, a, ops=FLOAT_OPS):
    """Phase 1-2 rates (r1_r1, r2_r1, r1_1, r2_1, r1_2, r2_2)."""
    c12, c13, c14, c23, c24, _ = c
    p1, p2, _, _ = pw
    (lam1, lam2, _), (kappa1, _), (gamma1, _), alpha, beta, _, _ = a
    p1_1 = ops.phase_power(kappa1, p1, lam1, "kappa1")
    p2_1 = ops.phase_power(gamma1, p2, lam2, "gamma1")
    # Phase 1: source 1 broadcasts; phase 2: source 2.
    r1_r1, r1_1, r2_1 = _exchange(lam1, p1_1, c12, c13, c14, *alpha, ops)
    r2_r1, r2_2, r1_2 = _exchange(lam2, p2_1, c12, c24, c23, *beta, ops)
    return (r1_r1, r2_r1, r1_1, r2_1, r1_2, r2_2)


def _phase3_powers(pw, a, ops=FLOAT_OPS) -> tuple[float, float]:
    """Phase-3 burst power allotted to sources 1 and 2."""
    p1, p2, _, _ = pw
    (_, _, lam3), (_, kappa2), (_, gamma2), _, _, _, _ = a
    return (ops.phase_power(kappa2, p1, lam3, "kappa2"),
            ops.phase_power(gamma2, p2, lam3, "gamma2"))


def _phase3_split(p1_3, p2_3, mu, eta):
    """Per-source (source 1, source 2) powers of the fresh, joint-1 and joint-2
    streams at the phase-3 burst powers (p1_3, p2_3) and the splits mu, eta."""
    (mu1, mu2, mu3), (eta1, eta2, eta3) = mu, eta
    return ((mu1 * p1_3, eta1 * p2_3), (mu2 * p1_3, eta3 * p2_3), (mu3 * p1_3, eta2 * p2_3))


def _duality_cov(c, joint1, joint2, user1_clean: bool, ops=FLOAT_OPS):
    """Joint-stream covariances from the dual multiple-access construction.

    Each stream's per-source powers pool into one power s: the clean stream's
    covariance is sigma1 = s_clean (I + s_other u u^T)^-1, with u the
    order-dependent per-source gain vector; the other stream gets s_other I
    inflated by the leakage u^T sigma1 u = s_clean |u|^2 / (1 + s_other |u|^2).
    """
    _, c13, c14, c23, c24, _ = c
    u, clean, other = ops.select(user1_clean, ((c23, c24), joint1, joint2),
                                 ((c13, c14), joint2, joint1))
    s_clean, s_other = clean[0] + clean[1], other[0] + other[1]
    b11, b12, b22 = inverse(u, s_other)
    norm2 = u[0] * u[0] + u[1] * u[1]
    a_scale = 1.0 + s_clean * norm2 / (1.0 + s_other * norm2)
    return ((b11 * s_clean, b12 * s_clean, b22 * s_clean),
            (a_scale * s_other, 0.0, a_scale * s_other), user1_clean)


def _budget_cov(c, joint1, joint2, user1_clean: bool, ops=FLOAT_OPS):
    """Per-source-budget covariances (see ``tc_budget_covariances``)."""
    _, c13, c14, c23, c24, _ = c
    clean, first, x, y = ops.select(user1_clean, (joint1, joint2, c14, c24),
                                    (joint2, joint1, c13, c23))
    s = first[0] + first[1]
    sqrt = ops.sqrt
    rho_dual = -s * x * y / sqrt((1.0 + s * x * x) * (1.0 + s * y * y))
    rho = 1.0 + 2.0 * rho_dual
    f0, f1 = sqrt(first[0]), sqrt(first[1])
    return ((clean[0], rho * sqrt(clean[0] * clean[1]), clean[1]),
            (f0 * f0, f0 * f1, f1 * f1), user1_clean)


def _rdpc_cov(c, joint1, joint2, user1_clean: bool, ops=FLOAT_OPS):
    """Diagonal covariances (see ``rdpc_covariances``)."""
    clean, first = ops.select(user1_clean, (joint1, joint2), (joint2, joint1))
    return ((clean[0], 0.0, clean[1]), (first[0], 0.0, first[1]), user1_clean)


def _phase3(c, lam3: float, fresh, cov, ops=FLOAT_OPS):
    """Phase-3 rates (r1_3, r2_3, r1_d, r2_d) under the covariances ``cov``.

    The receiver of the clean stream decodes its joint stream first (only
    its own fresh stream plus noise in the denominator), then its fresh
    stream interference-free.  The other receiver sees the clean stream's
    leakage plus both fresh streams as noise.
    """
    _, c13, c14, c23, c24, _ = c
    sigma1, sigma2, user1_clean = cov
    fresh1, fresh2 = fresh
    # Roles: gains (u0, u1) into the clean receiver, (v0, v1) into the other;
    # the fresh streams there as users 1 and 2 (f1, f2) and as own and cross.
    u0, u1, v0, v1, own, own_fresh = ops.select(user1_clean, (c13, c23, c14, c24, c13, fresh1),
                                                (c14, c24, c13, c23, c24, fresh2))
    own_u = own * own * own_fresh
    f1, f2 = v0 * v0 * fresh1, v1 * v1 * fresh2
    own_v, cross_v = ops.select(user1_clean, (f2, f1), (f1, f2))
    cap, quad = ops.cap, ops.quad
    r_u3 = lam3 * cap(quad(u0, u1, *sigma1) / (1.0 + own_u))
    r_ud = lam3 * cap(own_u)
    leak = quad(v0, v1, *sigma1)
    r_v3 = lam3 * cap(quad(v0, v1, *sigma2) / (1.0 + leak + f1 + f2))
    r_vd = lam3 * cap(own_v / (1.0 + leak + cross_v))
    return ops.select(user1_clean, (r_u3, r_v3, r_ud, r_vd), (r_v3, r_u3, r_vd, r_ud))


def _stream_rates(c, pw, a, build_cov, ops=FLOAT_OPS):
    """All ten stream rates in ``TcPhaseRates`` field order.

    ``build_cov(c, joint1, joint2, user1_clean, ops)`` is a covariance rule
    of the module docstring.  A silent joint phase (lam3 = 0, admitted by
    ``phase_power`` only with kappa2 = gamma2 = 0) needs no branch: each
    phase-3 rate is lam3 times a finite capacity, so all four are exactly 0.0.
    """
    rates = _phase12(c, pw, a, ops)
    (_, _, lam3), _, _, _, _, mu, eta = a
    fresh, joint1, joint2 = _phase3_split(*_phase3_powers(pw, a, ops), mu, eta)
    cov = build_cov(c, joint1, joint2, _user1_clean(c), ops)
    return rates + _phase3(c, lam3, fresh, cov, ops)


def _pair(rates, ops=FLOAT_OPS) -> tuple[float, float]:
    # Each user's relayed stream is limited both by the conferencing hop and
    # by what its receiver collects across the three phases.
    r1_r1, r2_r1, r1_1, r2_1, r1_2, r2_2, r1_3, r2_3, r1_d, r2_d = rates
    return ops.checked_pair(r1_d + ops.minimum(r1_r1, r1_1 + r1_2 + r1_3),
                            r2_d + ops.minimum(r2_r1, r2_1 + r2_2 + r2_3))


def tc_kernel(c, pw, a, rdpc=False, ops=FLOAT_OPS) -> tuple[float, float]:
    """(R1, R2) of transmitter cooperation; float form of ``tc_rate_pair``,
    and with ``rdpc`` of ``rdpc_rate_pair`` (over an ``ArrayOps`` ``rdpc``
    may be a bool column, which picks the covariance rule lane by lane)."""
    build_cov = ops.branch(rdpc, _rdpc_cov, _budget_cov)
    return _pair(_stream_rates(c, pw, a, build_cov, ops), ops)


def tc_limit_kernel(c, pw, a, user1_clean: bool, ops=FLOAT_OPS) -> tuple[float, float]:
    """(R1, R2) at c12 = +inf for the joint-phase splits a = (mu, eta).

    Float form of ``tc_limit_rate_pair``: the joint phase fills the block
    (lam3 = 1, all power in phase 3) with the pooled duality covariances.
    """
    p1, p2, _, _ = pw
    fresh, joint1, joint2 = _phase3_split(p1, p2, *a)
    cov = _duality_cov(c, joint1, joint2, user1_clean, ops)
    r1_3, r2_3, r1_d, r2_d = _phase3(c, 1.0, fresh, cov, ops)
    return ops.checked_pair(r1_d + r1_3, r2_d + r2_3)


# ---------------------------------------------------------------------------
# Dataclass views


def _joint_streams(g: ChannelGains, p: PowerBudget, a: TcAllocation):
    """A covariance rule's arguments (c, joint1, joint2, user1_clean); checks c12 first."""
    c, pw = _view_args(g, p, a, TcAllocation)
    return (c, *_phase3_split(*_phase3_powers(pw, a), a.mu, a.eta)[1:], _user1_clean(c))


def tc_phase3_covariances(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> TcCovariances:
    """The paper's phase-3 covariances for the two joint streams.

    Built from the dual multiple-access solution at the pooled stream powers
    (``_duality_cov``): the clean stream is inverse-shaped and the other is
    a scaled identity, so a source can radiate more than its own phase-3
    allotment (see ``phase3_power_audit``).  ``tc_rate_pair`` uses
    ``tc_budget_covariances`` instead.  A silent joint phase gives zero
    covariances.
    """
    return TcCovariances(*_duality_cov(*_joint_streams(g, p, a)))


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
    the frontier search reaches further (see ROADMAP.md).  A silent joint
    phase gives zero covariances.
    """
    return TcCovariances(*_budget_cov(*_joint_streams(g, p, a)))


def rdpc_covariances(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> TcCovariances:
    """Diagonal joint-stream covariances: the no-coherent-combining baseline.

    Equivalent to random, unsynchronized carrier phases between the sources,
    which reduces the scheme to recycled/parallel DPC.
    """
    return TcCovariances(*_rdpc_cov(*_joint_streams(g, p, a)))


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
    (``tc_budget_covariances``).  A silent joint phase radiates nothing
    and is allotted nothing.
    """
    c, pw = _view_args(g, p, a, TcAllocation)
    allotted = _phase3_powers(pw, a)
    (fresh1, fresh2), joint1, joint2 = _phase3_split(*allotted, a.mu, a.eta)
    if cov is None:
        cov = TcCovariances(*_budget_cov(c, joint1, joint2, _user1_clean(c)))
    radiated = (fresh1 + cov.sigma1[0] + cov.sigma2[0],
                fresh2 + cov.sigma1[2] + cov.sigma2[2])
    return Phase3PowerAudit(radiated=radiated, allotted=allotted)


def tc_phase_rates(g: ChannelGains, p: PowerBudget, a: TcAllocation,
                   cov: TcCovariances | None = None) -> TcPhaseRates:
    """All per-stream rates.

    ``cov`` overrides the phase-3 covariances, which default to the
    budget-respecting ``tc_budget_covariances``; pass
    ``tc_phase3_covariances(g, p, a)`` for the paper's construction.
    """
    build_cov = _budget_cov if cov is None else lambda *_: cov
    return TcPhaseRates(*_stream_rates(*_view_args(g, p, a, TcAllocation), a, build_cov))


def tc_rate_pair(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> RatePair:
    """Achievable (R1, R2) of the transmitter-cooperation scheme."""
    return RatePair(*tc_kernel(*_view_args(g, p, a, TcAllocation), a))


def rdpc_rate_pair(g: ChannelGains, p: PowerBudget, a: TcAllocation) -> RatePair:
    """Achievable (R1, R2) of the recycled/parallel-DPC baseline."""
    return RatePair(*tc_kernel(*_view_args(g, p, a, TcAllocation), a, True))


def tc_limit_rate_pair(g: ChannelGains, p: PowerBudget, mu: Simplex3, eta: Simplex3,
                       user1_clean: bool) -> RatePair:
    """Joint-phase-only rate pair in the infinite-conferencing limit.

    With c12 = +inf the exchange phases take vanishing time and the
    conferencing constraints drop out, leaving the full-duration joint
    broadcast.  Both encoding orders are admissible in the limit (the two
    sources form one two-antenna transmitter), so the order is an explicit
    argument and the region is the union over both.  Raises NotInfinite at
    a finite c12 and InvalidAllocation when ``mu`` or ``eta`` is not a
    ``Simplex3`` or ``user1_clean`` is not a bool.
    """
    c, pw = _conferencing_args(g, p, "c12", limit=True)
    _check_type("mu", mu, Simplex3)
    _check_type("eta", eta, Simplex3)
    _check_type("user1_clean", user1_clean, bool)
    return RatePair(*tc_limit_kernel(c, pw, (mu, eta), user1_clean))


def tc_limit_region(g: ChannelGains, p: PowerBudget, opts=None):
    """Frontier of the infinite-conferencing transmitter-cooperation region.

    Sweeps the joint-phase power splits (and both encoding orders) with the
    generic frontier machinery; the result coincides with the pooled-power
    two-antenna broadcast region.  ``frontier.trace("TC", g, p, opts)`` at
    c12 = +inf; raises NotInfinite when c12 is finite.
    """
    from . import frontier

    return frontier.trace_tc_limit(g, p, opts)
