"""Outer bounds and no-cooperation baselines.

Single-user rates are capped by the half-duplex relay-channel cut-set bound:
the smaller of the two relay cuts, maximized over the listen fraction, the
source's energy split between the two phases and the source/relay
correlation.  An 81^3 grid picks a correlation window; inside it the
correlation is maximized in closed form (one cut falls and the other rises
in it), and a nested golden-section search covers the listen fraction and
the energy split.  Searching only the grid's window is ROADMAP defect 4,
kept because bench/bounds_reference.json pins the values it gives.

The sum rate is capped by the pooled-power two-antenna broadcast bound for
transmitter cooperation and by the two-antenna multiple-access bound for
receiver cooperation.  The strong-interference capacity region without
cooperation serves as the reference baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelGains,
    NotStrongInterference,
    PowerBudget,
    Sym2,
    cap,
    logdet2,
)

__all__ = [
    "OuterBound",
    "pentagon_corner",
    "relay_cutset_bound",
    "mimo_bc_sum_bound",
    "mimo_mac_sum_bound",
    "tc_outer_region",
    "rc_outer_region",
    "strong_ic_region",
    "bc_region_vertices",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class OuterBound:
    """Pentagon {R1, R2 >= 0 : R1 <= r1_max, R2 <= r2_max, R1+R2 <= sum_max}.

    The one pentagon type of the package: the outer bounds, the strong-IC
    region, receiver cooperation's phase-1 joint-decoding region and its
    infinite-gain multiple-access region.  The three constraints are
    independent; sum_max may exceed r1_max + r2_max (then it is simply not
    binding).
    """

    r1_max: float
    r2_max: float
    sum_max: float
    kind: str

    def violation(self, r1: float, r2: float) -> float:
        """Largest constraint excess of the point (negative when inside)."""
        return max(r1 - self.r1_max, r2 - self.r2_max, r1 + r2 - self.sum_max)

    def contains(self, r1: float, r2: float, tol: float = 0.0) -> bool:
        return self.violation(r1, r2) <= tol

    def corner(self, weight: float) -> tuple[float, float]:
        """Dominant corner maximizing r1 + weight*r2 (see ``pentagon_corner``)."""
        return pentagon_corner(self.r1_max, self.r2_max, self.sum_max, weight)

    def vertices(self) -> list[tuple[float, float]]:
        """Distinct Pareto corners, r1 descending (the corners at weights 0 and inf)."""
        v1, v2 = self.corner(0.0), self.corner(math.inf)
        # Equal abscissae: the weight-inf corner has the larger r2.
        return [v2] if v1[0] <= v2[0] else [v1, v2]


def pentagon_corner(a1: float, a2: float, a12: float, weight: float) -> tuple[float, float]:
    """Corner of {R1 <= a1, R2 <= a2, R1 + R2 <= a12} maximizing r1 + weight*r2.

    weight = 0 favors user 1, weight = +inf favors user 2; ties go to the
    user-1-favoring corner.  Float form of ``OuterBound.corner``.
    """
    c1 = min(a1, a12)
    corner_a = (c1, min(a2, max(a12 - c1, 0.0)))
    c2 = min(a2, a12)
    corner_b = (min(a1, max(a12 - c2, 0.0)), c2)
    if math.isinf(weight):
        return corner_b if corner_b[1] > corner_a[1] else corner_a
    va = corner_a[0] + weight * corner_a[1]
    vb = corner_b[0] + weight * corner_b[1]
    return corner_a if va >= vb else corner_b


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> float:
    """Golden-section refinement of a max on [lo, hi]; returns the best value."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best = max(fc, fd)
    for _ in range(iters):
        if b - a < 1e-12:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        best = max(best, fc, fd)
    return best


def _cutset_rho_max(sd2: float, sr2: float, rd2: float, p_src: float, p_rel: float,
                    alpha: float, e: float, lo: float, hi: float) -> float:
    """Max over the correlation rho in [lo, hi] of the min of the two relay cuts.

    sd2, sr2, rd2 are squared gains; alpha is the listen fraction and e the
    source's listen-phase energy share.  Per-phase powers burst the average
    budgets (energy alpha*Pa + (1-alpha)*Pb = p_src, (1-alpha)*Pr = p_rel):

        cut 1 = L1 + (1-alpha) cap((1-rho) a)             falls in rho
        cut 2 = L2 + (1-alpha) cap(a + b + 2 m sqrt(rho)) rises in rho

    with a = sd2*Pb, b = rd2*Pr, m = sqrt(ab) and L1, L2 the listen-phase
    terms.  The min is therefore largest at lo, at hi, or where the cuts
    cross.  With u = sqrt(rho) and T = 2**((L1-L2)/(1-alpha)) the crossing
    is the positive root of T a u^2 + 2 m u + (1+a+b) - T(1+a) = 0, taken
    in the cancellation-free form u = -2c / (2m + sqrt(disc)).  The constant
    c = b - (T-1)(1+a) takes T - 1 from expm1, so a listen gap below an ulp
    (tiny source-relay gain) still places the crossing.  Where rounding
    leaves c >= 0 although cut 1 is above cut 2 at lo, the crossing is at lo.
    """
    l1 = l2 = 0.0  # listen-phase terms of cut 1 / cut 2
    if alpha > 0.0 and e > 0.0:
        pa = e * p_src / alpha
        l1 = alpha * cap((sr2 + sd2) * pa)
        l2 = alpha * cap(sd2 * pa)
    if alpha >= 1.0:
        return min(l1, l2)
    f = 1.0 - alpha
    a = sd2 * ((1.0 - e) * p_src / f)
    b = rd2 * (p_rel / f)
    m = math.sqrt(a * b)

    def cuts(rho: float) -> tuple[float, float]:
        return (l1 + f * cap((1.0 - rho) * a),
                l2 + f * cap(a + b + 2.0 * m * math.sqrt(rho)))

    cut1, cut2 = cuts(hi)
    if cut1 >= cut2:  # cut 2 binds on the whole window
        return cut2
    cut1, cut2 = cuts(lo)
    if cut1 <= cut2:  # cut 1 binds on the whole window
        return cut1
    tm1 = math.expm1((l1 - l2) / f * _LN2)  # T - 1, exact even for a sub-ulp gap
    c = b - tm1 * (1.0 + a)  # (1+a+b) - T(1+a): negative, cut 1 is above cut 2 at u = 0
    if c >= 0.0:  # rounding disagrees with the comparison at lo: cross there
        u = 0.0
    else:
        denom = 2.0 * m + math.sqrt(max(0.0, 4.0 * m * m - 4.0 * (1.0 + tm1) * a * c))
        u = -2.0 * c / denom if denom > 0.0 else math.inf  # denom == 0: a*c underflowed
    u = min(max(u, math.sqrt(lo)), math.sqrt(hi))
    return min(cuts(u * u))


def _relay_cutset(sd: float, sr: float, rd: float, p_src: float, p_rel: float) -> float:
    """Half-duplex relay cut-set bound for one source/relay/destination triple.

    sd, sr, rd are the source-destination, source-relay and
    relay-destination gains.  Maximizes the min-cut over the correlation,
    the listen fraction and the per-phase energy split (the schemes burst
    power into short phases, so flat per-phase powers would not be a valid
    upper bound).

    An 81^3 vectorized grid over (rho, alpha, e) picks a correlation window
    of +-1.5 cells around its best rho.  A nested golden-section search over
    (alpha, e) then maximizes the cut with rho maximized over that window in
    closed form (``_cutset_rho_max``).  In the cross energy
    K = sqrt(rho * Eb * Er) the cuts are jointly concave in (K, alpha, e), so
    for a window that starts at rho = 0 this search is global.  The result
    is the larger of the grid and the search values.

    Restricting rho to the grid's window is ROADMAP defect 4: the grid's
    error in (alpha, e) swamps the rho dependence, so the window can miss
    the maximum at rho = 1 and the bound comes out low by up to a few
    millibits.  It is kept because bench/bounds_reference.json pins the
    values that follow from this window; widening it to [0, 1] and deleting
    the grid must ship with a regenerated table.

    An infinite sr or rd has a closed-form limit.
    """
    if math.isinf(sr):
        # Unbounded exchange cut: full-time coherent combining at rho = 1.
        return cap((math.sqrt(sd * sd * p_src) + math.sqrt(rd * rd * p_rel)) ** 2)
    if math.isinf(rd):
        # Unbounded forwarding cut: full-time joint reception.
        return cap((sr * sr + sd * sd) * p_src)
    if p_src == 0.0:
        return 0.0

    n = 81
    ln2 = math.log(2.0)
    rho = np.linspace(0.0, 1.0, n).reshape(-1, 1, 1)
    alpha = np.linspace(0.0, 1.0, n).reshape(1, -1, 1)
    e = np.linspace(0.0, 1.0, n).reshape(1, 1, -1)
    # Endpoint columns (alpha = 0 or 1) produce masked inf/nan lanes; the
    # np.where picks the analytic limits there.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_safe = np.maximum(alpha, 1e-300)
        b_safe = np.maximum(1.0 - alpha, 1e-300)
        pa = e * p_src / a_safe
        pb = (1.0 - e) * p_src / b_safe
        pr = p_rel / b_safe
        listen1 = np.where(alpha > 0.0, alpha * np.log1p((sr * sr + sd * sd) * pa) / ln2, 0.0)
        listen2 = np.where(alpha > 0.0, alpha * np.log1p(sd * sd * pa) / ln2, 0.0)
        fwd1 = np.where(alpha < 1.0,
                        (1.0 - alpha) * np.log1p((1.0 - rho) * sd * sd * pb) / ln2, 0.0)
        phi = np.sqrt(rho * sd * sd * rd * rd * pb * pr)
        fwd2 = np.where(alpha < 1.0,
                        (1.0 - alpha) * np.log1p(sd * sd * pb + rd * rd * pr + 2.0 * phi) / ln2,
                        0.0)
        grid_val = np.minimum(listen1 + fwd1, listen2 + fwd2)
    grid_val = np.nan_to_num(grid_val, nan=-math.inf)
    i = int(np.argmax(grid_val))
    rho_best = float(rho.ravel()[i // (n * n)])
    best = float(grid_val.ravel()[i])

    lo = max(0.0, rho_best - 1.5 / (n - 1))
    hi = min(1.0, rho_best + 1.5 / (n - 1))
    sd2, sr2, rd2 = sd * sd, sr * sr, rd * rd

    def over_energy(listen: float) -> float:
        return _golden_max(
            lambda share: _cutset_rho_max(sd2, sr2, rd2, p_src, p_rel, listen, share, lo, hi),
            0.0, 1.0, iters=40)

    return max(best, _golden_max(over_energy, 0.0, 1.0, iters=40))


def relay_cutset_bound(g: ChannelGains, p: PowerBudget, user: int,
                       cooperation: str = "tx") -> float:
    """Single-user cut-set cap with the peer node acting as a relay.

    Under transmitter cooperation the peer source relays over c12; under
    receiver cooperation the peer receiver relays over c34 using its own
    power budget.  ``user`` is 1 or 2.
    """
    if user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user}")
    if cooperation == "tx":
        if user == 1:
            return _relay_cutset(g.c13, g.c12, g.c23, p.p1, p.p2)
        return _relay_cutset(g.c24, g.c12, g.c14, p.p2, p.p1)
    if cooperation == "rx":
        if user == 1:
            return _relay_cutset(g.c13, g.c14, g.c34, p.p1, p.p4)
        return _relay_cutset(g.c24, g.c23, g.c34, p.p2, p.p3)
    raise ValueError(f"cooperation must be 'tx' or 'rx', got {cooperation!r}")


def mimo_bc_sum_bound(g: ChannelGains, p_total: float) -> float:
    """Sum-rate cap of the pooled-power two-antenna broadcast channel.

    Maximizes log2 det(I + q1 g1^T g1 + q2 g2^T g2) over q1 + q2 = p_total.
    The objective is concave in q1, so golden-section search is global; the
    two endpoints are evaluated exactly because the search never reaches them.
    """
    if p_total < 0.0:
        raise ValueError(f"p_total must be nonnegative, got {p_total}")
    if p_total == 0.0:
        return 0.0

    def f(q: float) -> float:
        return logdet2(Sym2.outer(g.g1, q) + Sym2.outer(g.g2, p_total - q))

    return max(f(0.0), f(p_total), _golden_max(f, 0.0, p_total))


def mimo_mac_sum_bound(g: ChannelGains, p: PowerBudget) -> float:
    """Sum-rate cap of the two-antenna multiple-access channel."""
    return logdet2(Sym2.outer(g.h1, p.p1) + Sym2.outer(g.h2, p.p2))


def tc_outer_region(g: ChannelGains, p: PowerBudget) -> OuterBound:
    """Outer bound for transmitter cooperation."""
    return OuterBound(
        r1_max=relay_cutset_bound(g, p, 1, "tx"),
        r2_max=relay_cutset_bound(g, p, 2, "tx"),
        sum_max=mimo_bc_sum_bound(g, p.p1 + p.p2),
        kind="TC",
    )


def rc_outer_region(g: ChannelGains, p: PowerBudget) -> OuterBound:
    """Outer bound for receiver cooperation."""
    return OuterBound(
        r1_max=relay_cutset_bound(g, p, 1, "rx"),
        r2_max=relay_cutset_bound(g, p, 2, "rx"),
        sum_max=mimo_mac_sum_bound(g, p),
        kind="RC",
    )


def strong_ic_region(g: ChannelGains, p: PowerBudget) -> OuterBound:
    """Capacity region of the non-cooperating strong interference channel.

    Requires cross gains at least as large as direct gains (c14 >= c13 and
    c23 >= c24); each receiver then decodes both messages, so the region is
    the intersection of the two receivers' multiple-access regions.
    """
    if not (g.c14 >= g.c13 and g.c23 >= g.c24):
        raise NotStrongInterference(
            f"needs c14 >= c13 and c23 >= c24, got c13={g.c13}, c14={g.c14}, "
            f"c23={g.c23}, c24={g.c24}")
    return OuterBound(
        r1_max=cap(g.c13 ** 2 * p.p1),
        r2_max=cap(g.c24 ** 2 * p.p2),
        sum_max=min(cap(g.c13 ** 2 * p.p1 + g.c23 ** 2 * p.p2),
                    cap(g.c14 ** 2 * p.p1 + g.c24 ** 2 * p.p2)),
        kind="IC",
    )


def bc_region_vertices(g: ChannelGains, p_total: float,
                       samples: int = 2000) -> list[tuple[float, float]]:
    """Pareto vertices of the pooled-power two-antenna broadcast region.

    Computed through the dual multiple-access description: the union over
    power splits q1 + q2 = p_total of the per-split pentagons, sampled on a
    grid and convexified.  This is the region the transmitter-cooperation
    scheme attains at infinite conferencing gain.
    """
    from .frontier import hull  # local import: bounds stays usable without frontier

    if p_total <= 0.0:
        return [(0.0, 0.0)]
    n1 = g.g1[0] ** 2 + g.g1[1] ** 2
    n2 = g.g2[0] ** 2 + g.g2[1] ** 2
    points: list[tuple[float, float]] = []
    for i in range(samples + 1):
        q1 = p_total * i / samples
        q2 = p_total - q1
        c1 = cap(q1 * n1)
        c2 = cap(q2 * n2)
        s = logdet2(Sym2.outer(g.g1, q1) + Sym2.outer(g.g2, q2))
        points.append((c1, max(s - c1, 0.0)))
        points.append((max(s - c2, 0.0), c2))
    return hull(points)
