"""Outer bounds and no-cooperation baselines.

Single-user rates are capped by the half-duplex relay-channel cut-set bound:
the smaller of the two relay cuts, maximized over the listen fraction, the
source's energy split between the two phases and the source/relay
correlation.  An 81^3 grid picks a correlation window; inside it the
correlation is maximized in closed form (one cut falls and the other rises
in it), and a nested golden-section search covers the listen fraction and
the energy split.  The grid is evaluated slab by slab in the correlation,
a few rows at a time in reused buffers, with the values of a one-shot
evaluation bit for bit and ties going to the smallest correlation.
Searching only the grid's window is ROADMAP defect 4, kept because
bench/bounds_reference.json pins the values it gives.

The sum rate is capped by the pooled-power two-antenna broadcast bound for
transmitter cooperation and by the two-antenna multiple-access bound for
receiver cooperation.  ``ic_outer_region`` bounds the non-cooperative
interference channel (c12 = c34 = 0) by its single-user, one-sided and
Etkin-Tse-Wang sum bounds.

``ic_pentagon`` decodes the interference channel with two-antenna
receivers, one rule per receiver: a receiver whose interference is strong
decodes both messages, one whose interference is weak treats it as noise.
It serves receiver cooperation's phase 1, which keeps a fraction zeta of
the peer receiver's observation, the non-cooperative baseline
``strong_ic_region`` (zeta = 0, any channel) and the c34 = inf limit
(zeta = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelGains,
    POWER_MAX,
    PowerBudget,
    _LN2,
    _check_range,
    cap,
    det_pair,
)

__all__ = [
    "OuterBound",
    "pentagon_corner",
    "ic_pentagon",
    "relay_cutset_bound",
    "mimo_bc_sum_bound",
    "mimo_mac_sum_bound",
    "tc_outer_region",
    "rc_outer_region",
    "ic_outer_region",
    "strong_ic_region",
    "bc_region_vertices",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID = 81  # cut-set grid points per axis of (rho, alpha, e)
_SLAB = 9  # rho rows per grid slab (divides _GRID): 9 x 81 x 81 doubles, ~470 KB


@dataclass(frozen=True)
class OuterBound:
    """Pentagon {R1, R2 >= 0 : R1 <= r1_max, R2 <= r2_max, R1+R2 <= sum_max}.

    The one pentagon type of the package: the outer bounds and the
    non-cooperative IC region.  The three constraints are independent;
    sum_max may exceed r1_max + r2_max (then it is simply not binding).
    """

    r1_max: float
    r2_max: float
    sum_max: float

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

    The two candidate corners either coincide or both lie on the sum face,
    where the objective of the user-1 corner minus that of the user-2
    corner is (1 - weight) times a nonnegative gap; so weight <= 1 picks
    the user-1 corner exactly, without comparing two float sums that are
    equal in exact arithmetic at weight 1.  A box (a12 = +inf) gives (a1, a2)
    at every weight.  A NaN or negative weight raises EvaluatorError.
    """
    _check_range("weight", weight)
    if weight <= 1.0:
        c1 = min(a1, a12)
        return (c1, min(a2, max(a12 - c1, 0.0)))
    c2 = min(a2, a12)
    return (min(a1, max(a12 - c2, 0.0)), c2)


def _decode_at(own: float, interference: float, strong: bool,
               joint: float) -> tuple[float, float]:
    """(own user's rate, cap on R1 + R2) at one receiver that hears its own
    user at SNR ``own``, the interferer at ``interference`` and both at the
    determinant ``joint``.  With ``strong`` interference it decodes both
    messages: the single-user rate, and log2 ``joint`` caps the sum.  With
    weak interference it treats it as noise: ``joint`` over the interferer's
    1 + SNR (a quotient of at least 1, so never negative), no sum cap."""
    if strong:
        return cap(own), math.log2(joint)
    return math.log2(joint / (1.0 + interference)), math.inf


def ic_pentagon(u1, u2, v1, v2, p1: float, p2: float) -> tuple[float, float, float]:
    """Rate pentagon (a1, a2, a12) of the two-user interference channel whose
    receiver 3 hears users 1 and 2 through the 2-vectors u1, u2 and receiver
    4 through v1, v2, at powers p1 and p2.

    Each receiver decides alone.  Its interference is strong when it hears
    the interferer at least as well as the interferer's own receiver does
    (ties count as strong); it then decodes both messages, so its user gets
    the single-user rate cap(p |u|^2) and its joint rate log2 ``det_pair``
    caps R1 + R2.  A receiver with weak interference treats it as noise.
    a12 is the smaller joint rate of the strong receivers, +inf (a box)
    when neither is strong.
    """
    n_u1, n_u2 = u1[0] * u1[0] + u1[1] * u1[1], u2[0] * u2[0] + u2[1] * u2[1]
    n_v1, n_v2 = v1[0] * v1[0] + v1[1] * v1[1], v2[0] * v2[0] + v2[1] * v2[1]
    a1, sum3 = _decode_at(p1 * n_u1, p2 * n_u2, n_u2 >= n_v2, det_pair(u1, p1, u2, p2))
    a2, sum4 = _decode_at(p2 * n_v2, p1 * n_v1, n_v1 >= n_u1, det_pair(v2, p2, v1, p1))
    return (a1, a2, min(sum3, sum4))


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


def _cutset_grid(sd: float, sr: float, rd: float, p_src: float,
                 p_rel: float) -> tuple[float, float]:
    """(rho, value) of the largest min-cut on the 81^3 grid over the
    correlation rho, the listen fraction alpha and the energy share e.

    The terms that do not depend on rho are computed once; the min-cut is
    then evaluated _SLAB rows of rho at a time in two reused buffers, so no
    81^3 temporary exists.  Each element goes through the same operations
    in the same order as in a one-shot broadcast of the whole grid, so the
    values are bit for bit the same.  A slab's best replaces the running
    best only when strictly larger: ties go to the smallest rho, as the
    first occurrence of a one-shot argmax does.
    """
    n = _GRID
    rho = np.linspace(0.0, 1.0, n).reshape(-1, 1, 1)
    alpha = np.linspace(0.0, 1.0, n).reshape(1, -1, 1)
    e = np.linspace(0.0, 1.0, n).reshape(1, 1, -1)
    # Endpoint columns (alpha = 0 or 1) produce inf/nan lanes: the listen
    # terms take 0 at alpha = 0 by np.where, the forwarding terms 0 at
    # alpha = 1 (the last column, linspace's exact endpoint) by zeroing.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_safe = np.maximum(alpha, 1e-300)
        b_safe = np.maximum(1.0 - alpha, 1e-300)
        pa = e * p_src / a_safe
        pb = (1.0 - e) * p_src / b_safe
        pr = p_rel / b_safe
        listen1 = np.where(alpha > 0.0, alpha * np.log1p((sr * sr + sd * sd) * pa) / _LN2, 0.0)
        listen2 = np.where(alpha > 0.0, alpha * np.log1p(sd * sd * pa) / _LN2, 0.0)
        fwd = 1.0 - alpha
        base = sd * sd * pb + rd * rd * pr
        drop = (1.0 - rho) * sd * sd  # per-row factors, shape (n, 1, 1)
        cross = rho * sd * sd * rd * rd
        cut1, cut2 = np.empty((_SLAB, n, n)), np.empty((_SLAB, n, n))
        i_best, best = 0, -math.inf
        for r0 in range(0, n, _SLAB):
            rows = slice(r0, r0 + _SLAB)
            # cut 1: listen1 + (1-alpha) log1p((1-rho) sd^2 pb) / ln 2
            np.multiply(drop[rows], pb, out=cut1)
            np.log1p(cut1, out=cut1)
            np.multiply(fwd, cut1, out=cut1)
            np.divide(cut1, _LN2, out=cut1)
            cut1[:, -1, :] = 0.0
            np.add(listen1, cut1, out=cut1)
            # cut 2: listen2 + (1-alpha) log1p(base + 2 sqrt(rho sd^2 rd^2 pb pr)) / ln 2
            np.multiply(cross[rows], pb, out=cut2)
            np.multiply(cut2, pr, out=cut2)
            np.sqrt(cut2, out=cut2)
            np.multiply(2.0, cut2, out=cut2)
            np.add(base, cut2, out=cut2)
            np.log1p(cut2, out=cut2)
            np.multiply(fwd, cut2, out=cut2)
            np.divide(cut2, _LN2, out=cut2)
            cut2[:, -1, :] = 0.0
            np.add(listen2, cut2, out=cut2)
            np.minimum(cut1, cut2, out=cut1)
            np.nan_to_num(cut1, copy=False, nan=-math.inf)
            i = int(np.argmax(cut1))
            if cut1.flat[i] > best:
                i_best, best = r0 + i // (n * n), float(cut1.flat[i])
    return float(rho.ravel()[i_best]), best


def _relay_cutset(sd: float, sr: float, rd: float, p_src: float, p_rel: float) -> float:
    """Half-duplex relay cut-set bound for one source/relay/destination triple.

    sd, sr, rd are the source-destination, source-relay and
    relay-destination gains.  Maximizes the min-cut over the correlation,
    the listen fraction and the per-phase energy split (the schemes burst
    power into short phases, so flat per-phase powers would not be a valid
    upper bound).

    An 81^3 vectorized grid over (rho, alpha, e) picks a correlation window
    of +-1.5 cells around its best rho (``_cutset_grid``: evaluated slab by
    slab in rho, ties to the smallest rho, values unchanged from a one-shot
    grid).  A nested golden-section search over
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

    rho_best, best = _cutset_grid(sd, sr, rd, p_src, p_rel)
    lo = max(0.0, rho_best - 1.5 / (_GRID - 1))
    hi = min(1.0, rho_best + 1.5 / (_GRID - 1))
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
    power budget.  ``user`` is the int 1 or 2 (not a bool or a float).
    """
    if not isinstance(user, int) or isinstance(user, bool) or user not in (1, 2):
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

    Maximizes log2 det(I + q1 g1 g1^T + q2 g2 g2^T) over q1 + q2 = p_total,
    the determinant taken by ``det_pair`` (so it is at least 1 for any
    gains).  The objective is concave in q1, so golden-section search is
    global; the two endpoints are evaluated exactly because the search never
    reaches them.
    """
    _check_range("p_total", p_total, 2 * POWER_MAX)
    if p_total == 0.0:
        return 0.0

    def f(q: float) -> float:
        return math.log2(det_pair(g.g1, q, g.g2, p_total - q))

    return max(f(0.0), f(p_total), _golden_max(f, 0.0, p_total))


def mimo_mac_sum_bound(g: ChannelGains, p: PowerBudget) -> float:
    """Sum-rate cap of the two-antenna multiple-access channel:
    log2 det(I + p1 h1 h1^T + p2 h2 h2^T), by ``det_pair``."""
    return math.log2(det_pair(g.h1, p.p1, g.h2, p.p2))


def tc_outer_region(g: ChannelGains, p: PowerBudget) -> OuterBound:
    """Outer bound for transmitter cooperation."""
    return OuterBound(
        r1_max=relay_cutset_bound(g, p, 1, "tx"),
        r2_max=relay_cutset_bound(g, p, 2, "tx"),
        sum_max=mimo_bc_sum_bound(g, p.p1 + p.p2),
    )


def rc_outer_region(g: ChannelGains, p: PowerBudget) -> OuterBound:
    """Outer bound for receiver cooperation."""
    return OuterBound(
        r1_max=relay_cutset_bound(g, p, 1, "rx"),
        r2_max=relay_cutset_bound(g, p, 2, "rx"),
        sum_max=mimo_mac_sum_bound(g, p),
    )


def ic_outer_region(g: ChannelGains, p: PowerBudget) -> OuterBound:
    """Outer bound for the non-cooperative interference channel.

    With s1 = c13^2 P1, s2 = c24^2 P2 and the interference SNRs
    i3 = c23^2 P2 (user 2 at receiver 3) and i4 = c14^2 P1 it takes the
    single-user caps cap(s1), cap(s2), and as the sum cap the smallest of

    * the one-sided bound at receiver 3,
      cap(s1 + i3) + max(0, cap(s2) - cap(i3)) (Sato 1981 when i3 >= s2,
      Costa 1985 / Sason 2004 when i3 < s2), and its mirror at receiver 4;
    * Etkin-Tse-Wang's genie-aided bound (IEEE Trans. IT 2008),
      cap(i3 + s1/(1 + i4)) + cap(i4 + s2/(1 + i3)).

    ETW's 2R1 + R2 and R1 + 2R2 facets do not fit a pentagon and are left
    out, so the bound is looser but still valid.  It holds for every code
    with average powers (P1, P2) and no conferencing: it bounds TC at
    c12 = 0 and RC at c34 = 0, but not once either conferencing link is up.
    On strong channels it equals ``strong_ic_region``.
    """
    s1, s2 = g.c13 ** 2 * p.p1, g.c24 ** 2 * p.p2
    i3, i4 = g.c23 ** 2 * p.p2, g.c14 ** 2 * p.p1
    return OuterBound(
        r1_max=cap(s1),
        r2_max=cap(s2),
        sum_max=min(cap(s1 + i3) + max(0.0, cap(s2) - cap(i3)),
                    cap(s2 + i4) + max(0.0, cap(s1) - cap(i4)),
                    cap(i3 + s1 / (1.0 + i4)) + cap(i4 + s2 / (1.0 + i3))),
    )


def strong_ic_region(g: ChannelGains, p: PowerBudget) -> OuterBound:
    """Achievable region of the non-cooperating interference channel.

    The one-antenna ``ic_pentagon``: each receiver decodes both messages
    when its cross gain is at least its peer's direct gain (c23 >= c24 at
    receiver 3, c14 >= c13 at receiver 4) and treats interference as noise
    otherwise.  On strong channels (both hold) it is the capacity region,
    the intersection of the two receivers' multiple-access regions.
    """
    return OuterBound(*ic_pentagon((g.c13, 0.0), (g.c23, 0.0), (0.0, g.c14), (0.0, g.c24),
                                   p.p1, p.p2))


def bc_region_vertices(g: ChannelGains, p_total: float) -> list[tuple[float, float]]:
    """Pareto vertices of the pooled-power two-antenna broadcast region.

    Computed through the dual multiple-access description: the union over
    power splits q1 + q2 = p_total of the per-split pentagons, sampled at
    q1 = p_total * i / 2000 and convexified.  This is the region the
    transmitter-cooperation scheme attains at infinite conferencing gain.
    """
    from .frontier import hull  # local import: bounds stays usable without frontier

    _check_range("p_total", p_total, 2 * POWER_MAX)
    if p_total == 0.0:
        return [(0.0, 0.0)]
    n1 = g.g1[0] ** 2 + g.g1[1] ** 2
    n2 = g.g2[0] ** 2 + g.g2[1] ** 2
    points: list[tuple[float, float]] = []
    for i in range(2001):
        q1 = p_total * i / 2000
        q2 = p_total - q1
        c1 = cap(q1 * n1)
        c2 = cap(q2 * n2)
        s = math.log2(det_pair(g.g1, q1, g.g2, q2))
        points.append((c1, max(s - c1, 0.0)))
        points.append((max(s - c2, 0.0), c2))
    return hull(points)
