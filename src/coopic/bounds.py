"""Outer bounds and no-cooperation baselines.

Single-user rates are capped by the half-duplex relay-channel cut-set bound:
the smaller of the two relay cuts, maximized over the listen fraction, the
source's energy split between the two phases and the source/relay
correlation.  An 81^3 grid picks a correlation window; inside it the
correlation is maximized in closed form (one cut falls and the other rises
in it), and a nested golden-section search covers the listen fraction and
the energy split, with one objective in the split per listen fraction that
computes the terms free of the split once.  In each grid column (one
listen fraction and energy share) the min-cut is largest where the cuts
cross, so the grid is evaluated at the two correlation rows around that
crossing.  A skipped row cannot win, since below the crossing it is at
most the rising cut there and above it at most the falling one; every
column whose bound does not rule it out is evaluated in full.  The values
are a one-shot evaluation's bit for bit, and ties go to the smallest
correlation.  Searching only the grid's window is ROADMAP defect 4, kept
because bench/bounds_reference.json pins the values it gives.

When both users' relay channels have the same arguments, as on a
symmetric channel, an outer region searches once and gives user 2 user
1's bound.

The sum rate is capped by the pooled-power two-antenna broadcast bound for
transmitter cooperation and by the two-antenna multiple-access bound for
receiver cooperation.  ``bc_region_vertices`` samples the broadcast region
on arrays, with libm's log1p and log2 per element, so its vertices are a
loop's bit for bit.  ``ic_outer_region`` bounds the non-cooperative
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
    FLOAT_OPS,
    ArrayOps,
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
_FALLBACK = 729  # grid columns per full evaluation: 81 x 729 doubles, ~470 KB
_SLACK = 1e-12  # relative slack on a skipped grid row's bound: log1p's last-ulp rounding


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


def pentagon_corner(a1: float, a2: float, a12: float, weight: float,
                    ops=FLOAT_OPS) -> tuple[float, float]:
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
    ops.check_range("weight", weight)
    return ops.branch(weight <= 1.0, _user1_corner, _user2_corner)(a1, a2, a12, ops)


def _user1_corner(a1, a2, a12, ops):
    c1 = ops.minimum(a1, a12)
    return (c1, ops.minimum(a2, ops.maximum(a12 - c1, 0.0)))


def _user2_corner(a1, a2, a12, ops):
    c2 = ops.minimum(a2, a12)
    return (ops.minimum(a1, ops.maximum(a12 - c2, 0.0)), c2)


def _decode_both(own, interference, joint, ops):
    """(own user's rate, cap on R1 + R2) at one receiver that hears its own
    user at SNR ``own``, the interferer at ``interference`` and both at the
    determinant ``joint``, when the interference is strong: it decodes both
    messages, so its user gets the single-user rate and log2 ``joint`` caps
    the sum."""
    return ops.cap(own), ops.log2(joint)


def _treat_as_noise(own, interference, joint, ops):
    """``_decode_both``'s pair when the interference is weak and treated as
    noise: ``joint`` over the interferer's 1 + SNR (a quotient of at least
    1, so never negative), and no sum cap."""
    return ops.log2(joint / (1.0 + interference)), math.inf


def ic_pentagon(u1, u2, v1, v2, p1: float, p2: float,
                ops=FLOAT_OPS) -> tuple[float, float, float]:
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
    branch = ops.branch
    a1, sum3 = branch(n_u2 >= n_v2, _decode_both, _treat_as_noise)(
        p1 * n_u1, p2 * n_u2, det_pair(u1, p1, u2, p2), ops)
    a2, sum4 = branch(n_v1 >= n_u1, _decode_both, _treat_as_noise)(
        p2 * n_v2, p1 * n_v1, det_pair(v2, p2, v1, p1), ops)
    return (a1, a2, ops.minimum(sum3, sum4))


def _golden_max(f, lo: float, hi: float, iters: int = 80) -> float:
    """Golden-section refinement of a max on [lo, hi]; returns the best value,
    ``max`` of the values in the order they were evaluated."""
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
            fc = new = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = new = f(d)
        if new > best:  # max(best, fc, fd): the value kept is already in best
            best = new
    return best


def _cutset_rho_max(sd2: float, sr2: float, rd2: float, p_src: float, p_rel: float,
                    alpha: float, e: float, lo: float, hi: float) -> float:
    """Max over the correlation rho in [lo, hi] of the min of the two relay
    cuts, at the listen fraction alpha and the energy share e: the function
    ``_cutset_over_rho`` of alpha, at e."""
    return _cutset_over_rho(sd2, sr2, rd2, p_src, p_rel, alpha, lo, hi)(e)


def _cutset_over_rho(sd2: float, sr2: float, rd2: float, p_src: float, p_rel: float,
                     alpha: float, lo: float, hi: float):
    """The max over the correlation rho in [lo, hi] of the min of the two relay
    cuts, as a function of the source's listen-phase energy share e.

    sd2, sr2, rd2 are squared gains and alpha is the listen fraction.
    Per-phase powers burst the average budgets (energy
    alpha*Pa + (1-alpha)*Pb = p_src, (1-alpha)*Pr = p_rel):

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

    Every cap argument here is nonnegative, so cap is written out as
    log1p(x) / ln 2.  The golden search calls the function 42 times per
    listen fraction, so the terms free of e (1 - alpha, b, the window's
    square roots and complements, sr2 + sd2) are computed once, by the same
    float operations on the same operands as in every call: the values
    keep their bits.
    """
    log1p, sqrt, ln2 = math.log1p, math.sqrt, _LN2
    listens, listens_only = alpha > 0.0, alpha >= 1.0
    joint2 = sr2 + sd2
    f = 1.0 - alpha
    b = 0.0 if listens_only else rd2 * (p_rel / f)  # unused without a forwarding phase
    root_lo, root_hi = sqrt(lo), sqrt(hi)
    drop_lo, drop_hi = 1.0 - lo, 1.0 - hi

    def over_rho(e):
        l1 = l2 = 0.0  # listen-phase terms of cut 1 / cut 2
        if listens and e > 0.0:
            pa = e * p_src / alpha
            l1 = alpha * (log1p(joint2 * pa) / ln2)
            l2 = alpha * (log1p(sd2 * pa) / ln2)
        if listens_only:
            return min(l1, l2)
        a = sd2 * ((1.0 - e) * p_src / f)
        m = sqrt(a * b)
        cut2 = l2 + f * (log1p(a + b + 2.0 * m * root_hi) / ln2)
        if l1 + f * (log1p(drop_hi * a) / ln2) >= cut2:  # cut 2 binds on the whole window
            return cut2
        cut1 = l1 + f * (log1p(drop_lo * a) / ln2)
        if cut1 <= l2 + f * (log1p(a + b + 2.0 * m * root_lo) / ln2):
            return cut1  # cut 1 binds on the whole window
        tm1 = math.expm1((l1 - l2) / f * ln2)  # T - 1, exact even for a sub-ulp gap
        c = b - tm1 * (1.0 + a)  # (1+a+b) - T(1+a): negative, cut 1 is above cut 2 at u = 0
        if c >= 0.0:  # rounding disagrees with the comparison at lo: cross there
            u = 0.0
        else:
            denom = 2.0 * m + sqrt(max(0.0, 4.0 * m * m - 4.0 * (1.0 + tm1) * a * c))
            u = -2.0 * c / denom if denom > 0.0 else math.inf  # denom == 0: a*c underflowed
        u = min(max(u, root_lo), root_hi)
        rho = u * u
        return min(l1 + f * (log1p((1.0 - rho) * a) / ln2),
                   l2 + f * (log1p(a + b + 2.0 * m * sqrt(rho)) / ln2))

    return over_rho


def _cutset_crossing_rows(l1, l2, f, a, b):
    """Estimated grid row k of each column's cut crossing, in [0, _GRID - 2].

    The arrays are the column terms of ``_cutset_rho_max`` (listen terms,
    forwarding fraction f = 1 - alpha, a = sd^2 Pb and b = rd^2 Pr), and the
    root is its closed form divided through by T, so that a large finite
    listen gap overflows nothing: a u^2 + 2 (m/T) u + c/T = 0.  k is
    floor(rho * (_GRID - 1)) at the crossing rho = u^2: row 0 where cut 1
    binds at rho = 0 (c >= 0), and the last pair of rows where the crossing
    lies beyond rho = 1 or is nan (T = inf, and alpha = 1, where both cuts
    are flat in rho and cut 2 binds).  An estimate only:
    ``_cutset_grid`` bounds every row it skips, so a wrong row costs time
    and never changes the result.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tm1 = np.expm1((l1 - l2) / f * _LN2)  # T - 1
        inv = 1.0 / (1.0 + tm1)
        c = b * inv - tm1 * inv * (1.0 + a)
        m = np.sqrt(a * b) * inv
        disc = np.maximum(0.0, 4.0 * m * m - 4.0 * a * c)
        u = np.where(c >= 0.0, 0.0, -2.0 * c / (2.0 * m + np.sqrt(disc)))
        row = np.nan_to_num(u * u * (_GRID - 1), nan=_GRID - 2)
    return np.clip(row, 0, _GRID - 2).astype(np.intp)


def _cuts(rows, drop, cross, pb, pr, fwd, listen1, listen2, base, edge):
    """(cut 1, cut 2) at the grid rows ``rows`` of the per-row factors
    drop = (1-rho) sd^2 and cross = rho sd^2 rd^2, broadcast against the
    columns' terms.

    Each element goes through the operations of a one-shot broadcast of the
    whole grid in the same order, so its bits are the one-shot grid's.  The
    forwarding terms are zeroed where ``edge`` (alpha = 1) is set: there
    they are inf/nan lanes that a one-shot ``np.where`` would drop.
    """
    # cut 1: listen1 + (1-alpha) log1p((1-rho) sd^2 pb) / ln 2
    cut1 = np.multiply(drop[rows], pb)
    np.log1p(cut1, out=cut1)
    np.multiply(fwd, cut1, out=cut1)
    np.divide(cut1, _LN2, out=cut1)
    np.copyto(cut1, 0.0, where=edge)
    np.add(listen1, cut1, out=cut1)
    # cut 2: listen2 + (1-alpha) log1p(base + 2 sqrt(rho sd^2 rd^2 pb pr)) / ln 2
    cut2 = np.multiply(cross[rows], pb)
    np.multiply(cut2, pr, out=cut2)
    np.sqrt(cut2, out=cut2)
    np.multiply(2.0, cut2, out=cut2)
    np.add(base, cut2, out=cut2)
    np.log1p(cut2, out=cut2)
    np.multiply(fwd, cut2, out=cut2)
    np.divide(cut2, _LN2, out=cut2)
    np.copyto(cut2, 0.0, where=edge)
    np.add(listen2, cut2, out=cut2)
    return cut1, cut2


def _min_cut(cut1, cut2):
    """min(cut 1, cut 2) in cut1's buffer, with nan lanes at -inf (and +inf
    at the largest float) as a one-shot grid's ``np.nan_to_num`` makes them."""
    np.minimum(cut1, cut2, out=cut1)
    return np.nan_to_num(cut1, copy=False, nan=-math.inf)


def _cutset_grid(sd: float, sr: float, rd: float, p_src: float,
                 p_rel: float) -> tuple[float, float]:
    """(rho, value) of the largest min-cut on the 81^3 grid over the
    correlation rho, the listen fraction alpha and the energy share e.

    A column is one (alpha, e) pair and its 81 rows of rho.  In a column
    cut 1 falls in rho and cut 2 rises (their log1p arguments are monotone
    in floating point too), so the column's largest min-cut sits where the
    two cross.  ``_cutset_crossing_rows`` estimates that row k, and only
    rows k and k + 1 are evaluated.  A skipped row cannot win: below k its
    min-cut is at most cut 2 at row k, above k + 1 at most cut 1 at row
    k + 1, and a relative slack of _SLACK covers log1p's rounding.  Every
    column whose bound is not strictly below the best value found (a tie, a
    nan, or a wrong estimate) is evaluated in full, _FALLBACK columns at a
    time.  So the result does not depend on the estimate.

    Each evaluated element has the bits of a one-shot broadcast of the
    whole grid (``_cuts``), and ties go to the smallest rho, as the first
    occurrence of a one-shot argmax does.
    """
    n = _GRID
    rho = np.linspace(0.0, 1.0, n)
    alpha = np.linspace(0.0, 1.0, n).reshape(-1, 1)  # columns: (alpha, e) on axes (0, 1)
    e = np.linspace(0.0, 1.0, n).reshape(1, -1)
    # Endpoint columns (alpha = 0 or 1) produce inf/nan lanes: the listen
    # terms take 0 at alpha = 0 by np.where, the forwarding terms 0 at
    # alpha = 1 (linspace's exact endpoint) by ``edge``.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_safe = np.maximum(alpha, 1e-300)
        b_safe = np.maximum(1.0 - alpha, 1e-300)
        pa = e * p_src / a_safe
        listen1 = np.where(alpha > 0.0, alpha * np.log1p((sr * sr + sd * sd) * pa) / _LN2, 0.0)
        listen2 = np.where(alpha > 0.0, alpha * np.log1p(sd * sd * pa) / _LN2, 0.0)
        del pa
        pb = (1.0 - e) * p_src / b_safe
        pr = p_rel / b_safe
        fwd = 1.0 - alpha
        edge = alpha == 1.0
        a = sd * sd * pb
        b = rd * rd * pr
        base = a + b
        k = _cutset_crossing_rows(listen1, listen2, fwd, a, b)
        del a
        drop = (1.0 - rho) * sd * sd  # per-row factors
        cross = rho * sd * sd * rd * rd
        cols = (pb, pr, fwd, listen1, listen2, base, edge)

        cut1, cut2 = _cuts(k + np.arange(2).reshape(-1, 1, 1), drop, cross, *cols)  # rows k, k + 1
        # Below row k a min-cut is at most cut 2 at row k, above row k + 1 at
        # most cut 1 at row k + 1.
        bound = np.maximum(np.where(k > 0, cut2[0], -math.inf),
                           np.where(k < n - 2, cut1[1], -math.inf))
        bound *= 1.0 + _SLACK
        value = _min_cut(cut1, cut2)
        best = value.max()
        r, j, i = np.nonzero(value == best)
        row = int((k[j, i] + r).min())
        del cut1, cut2, value

        full = np.flatnonzero(~(bound < best))  # a skipped row may reach best (or nan)
        every_row = np.arange(n).reshape(-1, 1)
        for start in range(0, full.size, _FALLBACK):
            j, i = np.divmod(full[start:start + _FALLBACK], n)
            value = _min_cut(*_cuts(every_row, drop, cross,
                                    *(np.broadcast_to(x, (n, n))[j, i] for x in cols)))
            flat = int(np.argmax(value))  # first occurrence: the smallest row first
            top, r = value.flat[flat], flat // j.size
            del value  # freed before the next chunk is evaluated
            if top > best or (top == best and r < row):
                best, row = top, r
    return float(rho[row]), float(best)


def _relay_cutset(sd: float, sr: float, rd: float, p_src: float, p_rel: float) -> float:
    """Half-duplex relay cut-set bound for one source/relay/destination triple.

    sd, sr, rd are the source-destination, source-relay and
    relay-destination gains.  Maximizes the min-cut over the correlation,
    the listen fraction and the per-phase energy split (the schemes burst
    power into short phases, so flat per-phase powers would not be a valid
    upper bound).

    An 81^3 grid over (rho, alpha, e) picks a correlation window of +-1.5
    cells around its best rho (``_cutset_grid``).  Each (alpha, e) column is
    evaluated at the two rho rows around its cuts' crossing; a skipped row
    is bounded by cut 2 at the lower row or cut 1 at the upper one, and a
    column whose bound is not below the best value is evaluated in full, so
    the grid gives a one-shot grid's values bit for bit, ties to the
    smallest rho.  A nested golden-section search over
    (alpha, e) then maximizes the cut with rho maximized over that window in
    closed form.  Each listen fraction alpha gets its own objective in e
    (``_cutset_over_rho``), which computes the terms free of e once for that
    fraction's 42 evaluations, with the bits of computing them in every
    call (``_cutset_rho_max``).  In the cross energy
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
        root = math.sqrt(sd * sd * p_src) + math.sqrt(rd * rd * p_rel)
        return cap(root * root)
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
        return _golden_max(_cutset_over_rho(sd2, sr2, rd2, p_src, p_rel, listen, lo, hi),
                           0.0, 1.0, iters=40)

    return max(best, _golden_max(over_energy, 0.0, 1.0, iters=40))


def _cutset_args(g: ChannelGains, p: PowerBudget, user: int,
                 cooperation: str) -> tuple[float, float, float, float, float]:
    """(sd, sr, rd, p_src, p_rel) of ``user``'s relay channel: the arguments
    of ``_relay_cutset`` that ``relay_cutset_bound`` passes."""
    if not isinstance(user, int) or isinstance(user, bool) or user not in (1, 2):
        raise ValueError(f"user must be 1 or 2, got {user}")
    if cooperation == "tx":
        if user == 1:
            return (g.c13, g.c12, g.c23, p.p1, p.p2)
        return (g.c24, g.c12, g.c14, p.p2, p.p1)
    if cooperation == "rx":
        if user == 1:
            return (g.c13, g.c14, g.c34, p.p1, p.p4)
        return (g.c24, g.c23, g.c34, p.p2, p.p3)
    raise ValueError(f"cooperation must be 'tx' or 'rx', got {cooperation!r}")


def relay_cutset_bound(g: ChannelGains, p: PowerBudget, user: int,
                       cooperation: str = "tx") -> float:
    """Single-user cut-set cap with the peer node acting as a relay.

    Under transmitter cooperation the peer source relays over c12; under
    receiver cooperation the peer receiver relays over c34 using its own
    power budget.  ``user`` is the int 1 or 2 (not a bool or a float).
    """
    return _relay_cutset(*_cutset_args(g, p, user, cooperation))


def _cutset_pair(g: ChannelGains, p: PowerBudget, cooperation: str) -> tuple[float, float]:
    """Both users' ``relay_cutset_bound``.  User 2's is user 1's when their
    relay channels have the same arguments (by ``repr``, so 0.0 and -0.0
    differ), as on a symmetric channel: the bound is a function of them."""
    r1 = relay_cutset_bound(g, p, 1, cooperation)
    if repr(_cutset_args(g, p, 2, cooperation)) == repr(_cutset_args(g, p, 1, cooperation)):
        return r1, r1
    return r1, relay_cutset_bound(g, p, 2, cooperation)


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
    return OuterBound(*_cutset_pair(g, p, "tx"), sum_max=mimo_bc_sum_bound(g, p.p1 + p.p2))


def rc_outer_region(g: ChannelGains, p: PowerBudget) -> OuterBound:
    """Outer bound for receiver cooperation."""
    return OuterBound(*_cutset_pair(g, p, "rx"), sum_max=mimo_mac_sum_bound(g, p))


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
    s1, s2 = g.c13 * g.c13 * p.p1, g.c24 * g.c24 * p.p2
    i3, i4 = g.c23 * g.c23 * p.p2, g.c14 * g.c14 * p.p1
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


def _bc_corners(g: ChannelGains, n1: float, n2: float, q1, q2, ops=FLOAT_OPS):
    """(c1, s - c1, s - c2, c2), the differences clamped at 0: the two Pareto
    corners of the multiple-access pentagon at the power split (q1, q2), with
    c1, c2 the single-user rates (n1, n2 the squared gain norms) and s the
    sum rate."""
    c1 = ops.cap(q1 * n1)
    c2 = ops.cap(q2 * n2)
    s = ops.log2(det_pair(g.g1, q1, g.g2, q2))
    return c1, ops.maximum(s - c1, 0.0), ops.maximum(s - c2, 0.0), c2


def bc_region_vertices(g: ChannelGains, p_total: float) -> list[tuple[float, float]]:
    """Pareto vertices of the pooled-power two-antenna broadcast region.

    Computed through the dual multiple-access description: the union over
    power splits q1 + q2 = p_total of the per-split pentagons, sampled at
    q1 = p_total * i / 2000 and convexified.  This is the region the
    transmitter-cooperation scheme attains at infinite conferencing gain.

    The 2001 splits are evaluated at once over an ``ArrayOps`` (libm's
    log1p and log2 per element, so each corner has the bits of a loop over
    the splits), and a split it marks is evaluated again on floats, which
    gives its value or its error: q1 can round above p_total, and a
    negative q2 * n2 below -1e-12 raises NegativeSnr.
    """
    from .frontier import hull  # local import: bounds stays usable without frontier

    _check_range("p_total", p_total, 2 * POWER_MAX)
    if p_total == 0.0:
        return [(0.0, 0.0)]
    n1 = g.c13 * g.c13 + g.c23 * g.c23
    n2 = g.c14 * g.c14 + g.c24 * g.c24
    splits = np.arange(2001)
    ops = ArrayOps(splits.size)
    with np.errstate(all="ignore"):
        q1 = p_total * splits / 2000
        q2 = p_total - q1
        corners = np.column_stack(_bc_corners(g, n1, n2, q1, q2, ops))
    for i in np.flatnonzero(ops.suspect):
        corners[i] = _bc_corners(g, n1, n2, float(q1[i]), float(q2[i]))
    return hull(corners.reshape(-1, 2))  # (c1, s - c1), (s - c2, c2) of each split in turn
