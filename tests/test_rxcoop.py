"""Receiver-cooperation evaluator."""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    gains_dict,
    powers_dict,
    rc_allocation_dict,
    random_gains,
    random_powers,
    random_rc_allocation,
)
from coopic.model import (
    ChannelGains,
    EvaluatorError,
    InfiniteGain,
    InvalidAllocation,
    NotInfinite,
    PowerBudget,
    RcAllocation,
    Simplex2,
    Simplex3,
    cap,
    det_pair,
)
from coopic import bounds, model, rxcoop
from reference_eval import rc_reference

SQRT2 = math.sqrt(2.0)


def make_alloc(lam=(1 / 3, 1 / 3, 1 / 3), mu=(1 / 3, 1 / 3, 1 / 3),
               eta=(1 / 3, 1 / 3, 1 / 3), alpha=(0.5, 0.5),
               beta=(0.5, 0.5)) -> RcAllocation:
    return RcAllocation(lam=Simplex3(*lam), mu=Simplex3(*mu), eta=Simplex3(*eta),
                        alpha=Simplex2(*alpha), beta=Simplex2(*beta))


# The equivalent channel ``rxcoop._compression`` returns, by field name.
EquivalentChannel = namedtuple("EquivalentChannel", "sigma1_sq sigma2_sq zeta1 zeta2 "
                               "c13v c23v c14v c24v p1 p2")


def phase23(g, p, a) -> rxcoop.RcPhaseRates:
    """Phase 2-3 fields of RcPhaseRates from the kernel."""
    c, pw = model.kernel_args(g, p)
    return rxcoop.RcPhaseRates(*rxcoop._phase23(c, pw, a))


def compression(g, p, a, r1_s, r2_s) -> EquivalentChannel:
    c, _ = model.kernel_args(g, p)
    lam1 = a.lam.w1
    p1_1 = model.phase_power(a.mu.w1, p.p1, lam1, "mu1")
    p2_1 = model.phase_power(a.eta.w1, p.p2, lam1, "eta1")
    return EquivalentChannel(*rxcoop._compression(c, lam1, p1_1, p2_1, r1_s, r2_s))


def phase1(lambda1, p1, p2, c13v, c23v, c14v, c24v, weight=1.0):
    """``rxcoop._phase1`` on an equivalent channel given by its gain vectors
    and the two phase-1 powers."""
    return rxcoop._phase1((c13v, c23v, c14v, c24v, p1, p2), lambda1, weight)


def ld(*terms):
    """Brute-force log2 det(I + sum of p v v^T) over (v, p) terms."""
    m = sum((p * np.outer(v, v) for v, p in terms), np.zeros((2, 2)))
    return math.log2(np.linalg.det(np.eye(2) + m))


# ---------------------------------------------------------------------------
# phases 2-3


def test_phase23_silent_helper(ref_gains):
    p = PowerBudget(5.0, 5.0, 5.0, 0.0)
    r = phase23(ref_gains, p, make_alloc())
    assert r.r1_2r2 == 0.0 and r.r1_s == 0.0
    assert r.r2_2r2 > 0.0  # node 3 still forwards


def test_phase23_forwarding_rate_closed_form():
    # burst powers: sources 5 each, helper 4 splits 5/5 in the node-3 phase
    g = ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0)
    p = PowerBudget(5.0, 5.0, 5.0, 10.0 / 3.0)
    a = make_alloc()
    r = phase23(g, p, a)
    # compressed-observation rate: c34^2 * 5 over 1 + 5 + 10
    assert r.r1_s == pytest.approx(math.log2(1.0 + 500.0 / 16.0) / 3.0, rel=1e-14)
    assert r.r1_d == pytest.approx(math.log2(6.0) / 3.0, rel=1e-14)


def test_phase23_degenerate_schedule(ref_gains, ref_powers):
    # everything in the node-3 listen phase: only the user-1 fresh stream runs
    a = make_alloc(lam=(0.0, 1.0, 0.0), mu=(0.0, 1.0, 0.0), eta=(0.0, 1.0, 0.0))
    r = rxcoop.rc_phase_rates(ref_gains, ref_powers, a)
    pair = rxcoop.rc_rate_pair(ref_gains, ref_powers, a)
    assert r.r1_d == pytest.approx(cap(ref_gains.c13 ** 2 * ref_powers.p1), rel=1e-14)
    assert r.r1_r1 == 0.0 and r.r2_2r2 == 0.0
    assert pair.r1 == r.r1_d


def test_phase23_zero_duration_source_mass(ref_gains, ref_powers):
    a = make_alloc(lam=(0.5, 0.0, 0.5), mu=(0.3, 0.4, 0.3))
    with pytest.raises(InvalidAllocation):
        phase23(ref_gains, ref_powers, a)
    with pytest.raises(InvalidAllocation):
        rxcoop.rc_phase_rates(ref_gains, ref_powers, a)


def test_positive_phase1_share_on_silent_phase_is_rejected(ref_gains, ref_powers):
    a = make_alloc(lam=(0.0, 0.5, 0.5), mu=(0.2, 0.4, 0.4), eta=(0.0, 0.5, 0.5))
    with pytest.raises(InvalidAllocation, match="mu1"):
        rxcoop.rc_rate_pair(ref_gains, ref_powers, a)


def test_subnormal_duration_is_rejected_not_overflowed(ref_gains, ref_powers):
    # share * P / 5e-324 overflows to inf; the burst cap turns it into an error
    with pytest.raises(InvalidAllocation, match="mu1: burst power"):
        rxcoop.rc_rate_pair(ref_gains, ref_powers, make_alloc(lam=(5e-324, 0.5, 0.5)))
    # the helpers' bursts too, with the sources silent in that phase
    a = make_alloc(lam=(0.5, 5e-324, 0.5), mu=(0.5, 0.0, 0.5), eta=(0.5, 0.0, 0.5))
    with pytest.raises(InvalidAllocation, match="alpha1: burst power"):
        rxcoop.rc_rate_pair(ref_gains, ref_powers, a)


def test_phase23_rejects_infinite_gain(ref_powers):
    g = ChannelGains(c12=1.0, c13=1.0, c14=1.0, c23=1.0, c24=1.0, c34=math.inf)
    with pytest.raises(InfiniteGain, match="frontier.trace"):
        rxcoop.rc_phase_rates(g, ref_powers, make_alloc())


# ---------------------------------------------------------------------------
# compression


def test_compression_no_exchange_kills_borrowed_antenna(ref_gains, ref_powers):
    eq = compression(ref_gains, ref_powers, make_alloc(), r1_s=1.0, r2_s=0.0)
    assert math.isinf(eq.sigma1_sq) and eq.zeta1 == 0.0
    assert eq.c14v == (0.0, ref_gains.c14)
    assert eq.zeta2 > 0.0


def test_compression_perfect_limit(ref_gains, ref_powers):
    eq = compression(ref_gains, ref_powers, make_alloc(), r1_s=1000.0, r2_s=1000.0)
    assert eq.sigma1_sq == 0.0 and eq.sigma2_sq == 0.0
    assert eq.zeta1 == 1.0 and eq.zeta2 == 1.0
    assert eq.c13v == (ref_gains.c13, ref_gains.c14)  # full two-antenna observation


def test_compression_worked_example(ref_gains):
    # phase-1 signal covariance diag(5, 5); forwarding rate 2 bits per
    # phase-1 channel use: noise = 56 / (3 * 16) = 7/6
    p = PowerBudget(5.0, 5.0, 5.0, 5.0)
    lam1 = 1.0 / 3.0
    a = make_alloc(lam=(lam1, 1 / 3, 1 / 3), mu=(1 / 3, 1 / 3, 1 / 3),
                   eta=(1 / 3, 1 / 3, 1 / 3))
    eq = compression(ref_gains, p, a, r1_s=0.5, r2_s=2.0 * lam1)
    assert eq.sigma1_sq == pytest.approx(7.0 / 6.0, rel=1e-13)
    assert eq.zeta1 == pytest.approx(6.0 / 13.0, rel=1e-13)


def test_compression_noise_strictly_decreases_in_rate(ref_gains, ref_powers):
    a = make_alloc()
    rates = [0.1, 0.5, 1.0, 2.0, 4.0]
    noises = [compression(ref_gains, ref_powers, a, r1_s=0.5, r2_s=r).sigma1_sq
              for r in rates]
    gains2 = [compression(ref_gains, ref_powers, a, r1_s=0.5, r2_s=r).c14v[0]
              for r in rates]
    assert all(n1 > n2 for n1, n2 in zip(noises, noises[1:]))
    assert all(g1 < g2 for g1, g2 in zip(gains2, gains2[1:]))


def test_compression_tiny_forwarding_rate_is_finite(ref_gains, ref_powers):
    # 2**x - 1 rounds to zero for a tiny positive x; the noise must stay a
    # finite huge value (or +inf), never a division by zero.
    eq = compression(ref_gains, ref_powers, make_alloc(), r1_s=1e-300, r2_s=5e-324)
    assert eq.sigma2_sq > 1e290 and math.isinf(eq.sigma1_sq)
    assert eq.zeta2 < 1e-290 and eq.zeta1 == 0.0
    tiny = rxcoop.rc_rate_pair(ref_gains, ref_powers, make_alloc(alpha=(1e-300, 1.0)))
    silent = rxcoop.rc_rate_pair(ref_gains, ref_powers, make_alloc(alpha=(0.0, 1.0)))
    assert math.isfinite(tiny.r1) and math.isfinite(tiny.r2)
    assert tiny.r1 == pytest.approx(silent.r1, abs=1e-12)
    assert tiny.r2 == pytest.approx(silent.r2, abs=1e-12)


# ---------------------------------------------------------------------------
# phase-1 case analysis


def test_phase1_no_interference_reduces_to_single_user():
    # equivalent cross links zero, so weaker than direct: both receivers
    # treat the (zero) interference as noise and get their full single-user
    # rates
    r1, r2 = phase1(0.5, 5.0, 5.0,
                    c13v=(1.0, 0.0), c23v=(0.0, 0.0), c14v=(0.0, 0.0), c24v=(0.0, 1.0))
    assert r1 == pytest.approx(0.5 * ld(((1.0, 0.0), 5.0)), rel=1e-14)
    assert r2 == pytest.approx(0.5 * ld(((0.0, 1.0), 5.0)), rel=1e-14)


def test_phase1_scalar_strong_interference_matches_brute_force():
    # dead borrowed antennas, cross gains at least direct: joint decoding
    c13, c14, c23, c24, p1, p2 = 1.0, 1.5, 2.0, 1.0, 4.0, 7.0
    c13v, c23v, c14v, c24v = (c13, 0.0), (c23, 0.0), (0.0, c14), (0.0, c24)
    r1, r2 = phase1(1.0, p1, p2, c13v, c23v, c14v, c24v, weight=1.0)
    # brute-force determinant oracle for the pentagon constraints
    sum_cap = min(ld((c13v, p1), (c23v, p2)), ld((c24v, p2), (c14v, p1)))
    assert sum_cap == pytest.approx(min(cap(c13 ** 2 * p1 + c23 ** 2 * p2),
                                        cap(c14 ** 2 * p1 + c24 ** 2 * p2)), rel=1e-13)
    assert r1 + r2 == pytest.approx(sum_cap, rel=1e-13)
    assert r1 <= ld((c13v, p1)) + 1e-13
    assert r2 <= ld((c24v, p2)) + 1e-13


def test_phase1_pentagon_weight_selects_corner():
    c13, c14, c23, c24, p1, p2 = 1.0, 1.5, 2.0, 1.0, 4.0, 7.0
    gains = dict(c13v=(c13, 0.0), c23v=(c23, 0.0), c14v=(0.0, c14), c24v=(0.0, c24))
    favor1 = phase1(1.0, p1, p2, weight=0.0, **gains)
    favor2 = phase1(1.0, p1, p2, weight=math.inf, **gains)
    assert favor1[0] >= favor2[0]
    assert favor2[1] >= favor1[1]
    assert favor1 != favor2


def test_phase1_mixed_cases():
    # strong only at receiver 4: user 1 treated as noise at receiver 3
    p1, p2 = 3.0, 2.0
    c13v, c23v, c14v, c24v = (1.0, 0.2), (0.8, 0.3), (0.2, 1.4), (0.1, 1.0)
    r1, r2 = phase1(1.0, p1, p2, c13v, c23v, c14v, c24v)
    assert r1 == pytest.approx(ld((c13v, p1), (c23v, p2)) - ld((c23v, p2)), rel=1e-13)
    assert r2 == pytest.approx(ld((c24v, p2)), rel=1e-13)
    # flip: strong only at receiver 3
    c23v, c14v = (0.8, 0.9), (0.2, 0.4)
    r1, r2 = phase1(1.0, p1, p2, c13v, c23v, c14v, c24v)
    assert r1 == pytest.approx(ld((c13v, p1)), rel=1e-13)
    assert r2 == pytest.approx(ld((c24v, p2), (c14v, p1)) - ld((c14v, p1)), rel=1e-13)


def test_one_strong_receiver_caps_the_sum_rate():
    # Only receiver 3's interference is strong (c23 >= c24, c14 < c13) and
    # nothing is conferenced.  Any code then satisfies Sato's one-sided bound
    # R1 + R2 <= cap(c13^2 p1 + c23^2 p2) = log2 101 = 6.6582 bits; crediting
    # receiver 3 with its interference-free rate without that sum cap gave
    # 8.2365 bits.
    g = ChannelGains(c12=0.0, c13=3.0, c14=0.5, c23=1.0, c24=0.9, c34=0.0)
    p = PowerBudget(10.0, 10.0, 10.0, 10.0)
    a = make_alloc(lam=(1.0, 0.0, 0.0), mu=(1.0, 0.0, 0.0), eta=(1.0, 0.0, 0.0))
    sato = cap(3.0 ** 2 * 10.0 + 1.0 ** 2 * 10.0)
    for weight in (0.0, 1.0, math.inf):
        pair = rxcoop.rc_rate_pair(g, p, a, weight=weight)
        assert pair.total <= sato + 1e-12


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP defect 12: receiver 4's decoder follows a comparison with "
                          "receiver 3, which a larger c34 can flip; direction R fixes it")
def test_weighted_objective_never_falls_when_c34_rises():
    # A larger c34 gives each receiver more of the other's observation and
    # takes nothing away, so the objective r1 + w r2 (r2 alone at w = inf) of
    # a fixed allocation may not fall.  Worked example: r2 = 3.2539 bits at
    # c34 in {0.5, 1, 2} and 0.4960 bits at c34 = 10.
    def objective(c34, gains, p, a, w):
        r1, r2 = rxcoop.rc_rate_pair(ChannelGains(0.0, *gains, c34), p, a, weight=w)
        return r2 if math.isinf(w) else r1 + w * r2

    half = (0.5, 0.5, 0.0)
    example = ((2.0, 3.0, 2.0, 3.0), PowerBudget(10.0, 10.0, 10.0, 10.0),
               make_alloc(lam=half, mu=half, eta=half, alpha=(1.0, 0.0), beta=(1.0, 0.0)),
               math.inf)
    cases = [((lo, hi), *example) for lo, hi in ((0.5, 1.0), (1.0, 2.0), (2.0, 10.0))]
    rng = np.random.default_rng(12)
    for i in range(2000):
        cases.append((sorted(_log_uniform(rng, 0.05, 50.0, 2)), _log_uniform(rng, 0.1, 5.0, 4),
                      random_powers(rng, 1.0, 20.0), random_rc_allocation(rng),
                      (0.0, 0.5, 1.0, 2.0, math.inf)[i % 5]))
    worst = max(objective(lo, *rest) - objective(hi, *rest) for (lo, hi), *rest in cases)
    assert worst <= 1e-12


def test_phase1_classification_boundary_evaluates():
    # exactly on the strong/weak boundary: ties classify as strong
    v = (1.0, 0.0)
    r1, r2 = phase1(1.0, 2.0, 1.0, c13v=v, c23v=v, c14v=v, c24v=v)
    assert math.isfinite(r1) and math.isfinite(r2)


@given(st.floats(0.0, 8.0), st.floats(0.0, 8.0), st.floats(0.0, 30.0), st.floats(0.0, 8.0))
def test_rank1_logdet_identity(v0, v1, power, w):
    """log2 det(I + p v v^T) = cap(p ||v||^2), whatever the silent second vector."""
    assert math.log2(det_pair((v0, v1), power, (w, 1.0), 0.0)) == pytest.approx(
        cap(power * (v0 * v0 + v1 * v1)), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# combined pair, reference equality


def test_rate_pair_zero_powers(ref_gains):
    pair = rxcoop.rc_rate_pair(ref_gains, PowerBudget(0.0, 0.0, 0.0, 0.0), make_alloc())
    assert (pair.r1, pair.r2) == (0.0, 0.0)


def test_rate_pair_silent_relays(ref_gains):
    # no helper power: no conferencing, both borrowed antennas dead
    p = PowerBudget(5.0, 5.0, 0.0, 0.0)
    a = make_alloc()
    rates = rxcoop.rc_phase_rates(ref_gains, p, a)
    eq = compression(ref_gains, p, a, rates.r1_s, rates.r2_s)
    assert rates.r1_s == 0.0 and rates.r2_s == 0.0
    assert math.isinf(eq.sigma1_sq) and math.isinf(eq.sigma2_sq)
    assert eq.zeta1 == 0.0 and eq.zeta2 == 0.0
    assert rates.r1_2r2 == 0.0 and rates.r2_2r2 == 0.0


def test_rate_pair_matches_reference_on_random_inputs():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(150):
        g = random_gains(rng)
        p = random_powers(rng)
        a = random_rc_allocation(rng)
        w = rng.uniform(0.0, 4.0)
        got = rxcoop.rc_rate_pair(g, p, a, weight=w)
        want = rc_reference(gains_dict(g), powers_dict(p), rc_allocation_dict(a), weight=w)
        worst = max(worst, abs(got.r1 - want[0]), abs(got.r2 - want[1]))
    assert worst <= 1e-12


def test_rate_pair_weight_one_tie_matches_reference():
    # At weight 1 the two joint-decoding corners score the same in exact
    # arithmetic; both sides must give the tie to user 1 rather than let two
    # float sums decide it (a 1000-draw set where that used to differ).
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        g, p, a = random_gains(rng), random_powers(rng), random_rc_allocation(rng)
        got = rxcoop.rc_rate_pair(g, p, a, weight=1.0)
        want = rc_reference(gains_dict(g), powers_dict(p), rc_allocation_dict(a), weight=1.0)
        worst = max(worst, abs(got.r1 - want[0]), abs(got.r2 - want[1]))
    assert worst <= 1e-12


def test_rate_pair_nonnegative_finite():
    rng = np.random.default_rng(43)
    for _ in range(120):
        pair = rxcoop.rc_rate_pair(random_gains(rng), random_powers(rng),
                                   random_rc_allocation(rng))
        assert pair.r1 >= 0.0 and pair.r2 >= 0.0
        assert math.isfinite(pair.r1) and math.isfinite(pair.r2)


@pytest.mark.parametrize("weight", [math.nan, -1.0])
def test_rate_pair_rejects_bad_weight(ref_gains, ref_powers, weight):
    # uniform shares: both equivalent interferences strong, so the weight picks a
    # corner; with lambda1 = 0 there is no pentagon, but the kernel and both
    # views still reject the weight
    c, pw = model.kernel_args(ref_gains, ref_powers)
    for a in (make_alloc(), make_alloc(lam=(0.0, 0.5, 0.5), mu=(0.0, 0.5, 0.5),
                                       eta=(0.0, 0.5, 0.5))):
        for evaluate in (lambda: rxcoop.rc_kernel(c, pw, a, weight),
                         lambda: rxcoop.rc_rate_pair(ref_gains, ref_powers, a, weight=weight),
                         lambda: rxcoop.rc_phase_rates(ref_gains, ref_powers, a, weight=weight)):
            with pytest.raises(EvaluatorError, match="weight"):
                evaluate()
    g = ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=math.inf)
    with pytest.raises(EvaluatorError):
        rxcoop.rc_limit_rate_pair(g, ref_powers, weight=weight)


def test_rate_pair_rejects_infinite_gain(ref_powers):
    g = ChannelGains(c12=1.0, c13=1.0, c14=1.0, c23=1.0, c24=1.0, c34=math.inf)
    with pytest.raises(InfiniteGain):
        rxcoop.rc_rate_pair(g, ref_powers, make_alloc())


# ---------------------------------------------------------------------------
# infinite-conferencing limit


def test_limit_rate_pair_requires_infinite_gain(ref_gains, ref_powers):
    with pytest.raises(NotInfinite):
        rxcoop.rc_limit_rate_pair(ref_gains, ref_powers)


def test_limit_pentagon_values(ref_powers):
    g = ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=math.inf)
    corner1 = rxcoop.rc_limit_rate_pair(g, ref_powers, weight=0.0)
    corner2 = rxcoop.rc_limit_rate_pair(g, ref_powers, weight=math.inf)
    assert corner1.r1 == pytest.approx(4.0, rel=1e-13)
    assert corner1.total == pytest.approx(math.log2(56.0), rel=1e-13)
    assert corner2.r2 == pytest.approx(4.0, rel=1e-13)


def test_limit_sum_is_the_mac_sum_bound():
    # claim 2's identity: the limit's dominant corners lie on the two-antenna
    # multiple-access sum bound, computed apart from the limit's pentagon
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(2000):
        g, p = random_gains(rng), random_powers(rng)
        g = ChannelGains(g.c12, g.c13, g.c14, g.c23, g.c24, math.inf)
        want = bounds.mimo_mac_sum_bound(g, p)
        for w in (0.0, math.inf):
            worst = max(worst, abs(rxcoop.rc_limit_rate_pair(g, p, weight=w).total - want) / want)
    assert worst <= 1e-14


def test_limit_region_zero_powers():
    g = ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=math.inf)
    fr = rxcoop.rc_limit_region(g, PowerBudget(0.0, 0.0, 0.0, 0.0))
    assert fr.vertices() == [(0.0, 0.0)]
