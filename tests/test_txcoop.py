"""Transmitter-cooperation evaluator."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    gains_dict,
    powers_dict,
    random_gains,
    random_powers,
    random_tc_allocation,
    tc_allocation_dict,
)
from coopic.model import (
    ChannelGains,
    InfiniteGain,
    InvalidAllocation,
    NotInfinite,
    PowerBudget,
    Simplex2,
    Simplex3,
    TcAllocation,
)
from coopic import bounds, frontier, model, txcoop
from reference_eval import tc_reference

SQRT2 = math.sqrt(2.0)


def make_alloc(lam=(1 / 3, 1 / 3, 1 / 3), kappa=(0.5, 0.5), gamma=(0.5, 0.5),
               alpha=(0.5, 0.5), beta=(0.5, 0.5), mu=(1 / 3, 1 / 3, 1 / 3),
               eta=(1 / 3, 1 / 3, 1 / 3)) -> TcAllocation:
    return TcAllocation(lam=Simplex3(*lam), kappa=Simplex2(*kappa),
                        gamma=Simplex2(*gamma), alpha=Simplex2(*alpha),
                        beta=Simplex2(*beta), mu=Simplex3(*mu), eta=Simplex3(*eta))


def phase12(g, p, a) -> txcoop.TcPhaseRates:
    """Phase 1-2 fields of TcPhaseRates from the kernel."""
    c, pw = model.kernel_args(g, p)
    return txcoop.TcPhaseRates(*txcoop._phase12(c, pw, a))


def phase3(g, p, a, cov) -> txcoop.TcPhaseRates:
    """Phase-3 fields of TcPhaseRates from the kernel, under ``cov``."""
    c, pw = model.kernel_args(g, p)
    fresh = txcoop._phase3_split(pw, a)[0]
    r1_3, r2_3, r1_d, r2_d = txcoop._phase3(c, a.lam.w3, fresh, cov)
    return txcoop.TcPhaseRates(r1_3=r1_3, r2_3=r2_3, r1_d=r1_d, r2_d=r2_d)


# ---------------------------------------------------------------------------
# phases 1-2


def test_phase12_zero_power_share(ref_gains, ref_powers):
    a = make_alloc(kappa=(0.0, 1.0))
    r = phase12(ref_gains, ref_powers, a)
    assert r.r1_r1 == 0.0 and r.r2_1 == 0.0 and r.r1_1 == 0.0


def test_phase12_exchange_rate_closed_form(ref_gains, ref_powers):
    # lam1 = 1/3, kappa1 = 0.5 -> burst power 7.5; exchange SNR 100*0.5*7.5
    a = make_alloc(lam=(1 / 3, 1 / 3, 1 / 3), kappa=(0.5, 0.5), alpha=(0.5, 0.5))
    r = phase12(ref_gains, ref_powers, a)
    assert r.r1_r1 == pytest.approx(math.log2(376.0) / 3.0, rel=1e-14)
    # c13 = 1 <= c14 = sqrt(2): relayed stream for user 2 is encoded last
    assert r.r2_1 == pytest.approx(math.log2(8.5) / 3.0, rel=1e-14)


def test_phase12_branch_follows_direct_gain():
    g = ChannelGains(c12=10.0, c13=2.0, c14=1.0, c23=1.0, c24=1.0, c34=1.0)
    p = PowerBudget(5.0, 5.0)
    a = make_alloc()
    r = phase12(g, p, a)
    p11 = 0.5 * 5.0 / (1 / 3)
    # c13 > c14: own conferencing stream decoded cleanly at receiver 3
    assert r.r1_1 == pytest.approx(math.log2(1 + 4 * 0.5 * p11) / 3.0, rel=1e-14)
    assert r.r2_1 == pytest.approx(
        math.log2(1 + 0.5 * p11 / (1 + 0.5 * p11)) / 3.0, rel=1e-14)


def test_phase12_zero_duration_requires_zero_mass(ref_gains, ref_powers):
    with pytest.raises(InvalidAllocation):
        phase12(ref_gains, ref_powers, make_alloc(lam=(0.0, 0.5, 0.5), kappa=(0.5, 0.5)))
    # zero mass on the zero-duration phase is fine, through the public view too
    a = make_alloc(lam=(0.0, 0.5, 0.5), kappa=(0.0, 1.0))
    assert phase12(ref_gains, ref_powers, a).r1_r1 == 0.0
    assert txcoop.tc_phase_rates(ref_gains, ref_powers, a).r1_r1 == 0.0


def test_subnormal_duration_is_rejected_not_overflowed(ref_gains, ref_powers):
    # share * P / 5e-324 overflows to inf; the burst cap turns it into an error
    a = make_alloc(lam=(5e-324, 0.5, 0.5))
    for rate_pair in (txcoop.tc_rate_pair, txcoop.rdpc_rate_pair):
        with pytest.raises(InvalidAllocation, match="kappa1: burst power"):
            rate_pair(ref_gains, ref_powers, a)
    with pytest.raises(InvalidAllocation, match="kappa2: burst power"):
        txcoop.tc_rate_pair(ref_gains, ref_powers, make_alloc(lam=(0.5, 0.5, 5e-324)))


def test_phase12_rejects_infinite_gain(ref_powers):
    g = ChannelGains(c12=math.inf, c13=1.0, c14=1.0, c23=1.0, c24=1.0, c34=1.0)
    with pytest.raises(InfiniteGain, match="frontier.trace"):
        txcoop.tc_phase_rates(g, ref_powers, make_alloc())


# ---------------------------------------------------------------------------
# phase-3 covariances


def test_phase3_covariances_zero_joint_stream(ref_gains, ref_powers):
    # On the symmetric reference channel the ordering comparison ties, so the
    # swapped branch applies: sigma1 is the user-2 joint stream, sigma2 the
    # user-1 joint stream.  Empty user-1 stream: sigma2 vanishes and sigma1
    # is an unscaled identity multiple (the shaping matrix reduces to I).
    scalar = 2 * (0.5 * (0.5 * 5.0 / (1 / 3)))  # joint-stream power 7.5
    a = make_alloc(mu=(0.5, 0.0, 0.5), eta=(0.5, 0.5, 0.0))
    cov = txcoop.tc_phase3_covariances(ref_gains, ref_powers, a)
    assert not cov.user1_clean
    assert cov.sigma2[0] == pytest.approx(0.0, abs=1e-15)
    assert cov.sigma1[0] == pytest.approx(scalar, rel=1e-12)
    assert cov.sigma1[1] == 0.0
    # swap roles: now the user-2 stream carries nothing
    a = make_alloc(mu=(0.5, 0.5, 0.0), eta=(0.5, 0.0, 0.5))
    cov = txcoop.tc_phase3_covariances(ref_gains, ref_powers, a)
    assert cov.sigma1[0] == pytest.approx(0.0, abs=1e-15)
    assert cov.sigma2[0] == pytest.approx(scalar, rel=1e-12)
    assert cov.sigma2[1] == 0.0


def test_phase3_covariances_worked_example():
    # direct-branch channel, both joint streams at scalar 2
    g = ChannelGains(c12=10.0, c13=2.0, c14=1.0, c23=1.0, c24=1.0, c34=1.0)
    p = PowerBudget(4.0, 4.0)
    a = make_alloc(lam=(0.0, 0.0, 1.0), kappa=(0.0, 1.0), gamma=(0.0, 1.0),
                   mu=(0.5, 0.25, 0.25), eta=(0.5, 0.25, 0.25))
    cov = txcoop.tc_phase3_covariances(g, p, a)
    assert cov.user1_clean
    # B = I + h2^T h2 * 2 = [[3,2],[2,3]]; sigma1 = inv(B)*2
    assert cov.sigma1[0] == pytest.approx(1.2, rel=1e-13)
    assert cov.sigma1[1] == pytest.approx(-0.8, rel=1e-13)
    assert cov.sigma1[2] == pytest.approx(1.2, rel=1e-13)
    # A = 1 + h2 sigma1 h2^T = 1.8; sigma2 = 3.6 I
    assert cov.sigma2[0] == pytest.approx(3.6, rel=1e-13)
    assert cov.sigma2[1] == 0.0
    assert cov.sigma2[2] == pytest.approx(3.6, rel=1e-13)


def test_phase3_covariances_degenerate_phase(ref_gains, ref_powers):
    # a silent joint phase carries nothing; a positive share on it is rejected
    cov = txcoop.tc_phase3_covariances(ref_gains, ref_powers,
                                       make_alloc(lam=(0.5, 0.5, 0.0), kappa=(1.0, 0.0),
                                                  gamma=(1.0, 0.0)))
    assert cov.sigma1 == (0.0, 0.0, 0.0) and cov.sigma2 == (0.0, 0.0, 0.0)
    with pytest.raises(InvalidAllocation, match="kappa2"):
        txcoop.tc_phase3_covariances(ref_gains, ref_powers, make_alloc(lam=(0.5, 0.5, 0.0)))


def test_phase3_covariances_psd_on_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        g = random_gains(rng)
        p = random_powers(rng)
        a = random_tc_allocation(rng)
        if a.lam.w3 == 0.0:
            continue
        cov = txcoop.tc_phase3_covariances(g, p, a)
        for a11, a12, a22 in (cov.sigma1, cov.sigma2):
            assert np.linalg.eigvalsh([[a11, a12], [a12, a22]])[0] >= -1e-10


# ---------------------------------------------------------------------------
# budget-respecting covariances and the phase-3 power audit


def test_budget_covariances_keep_shares_and_turn_clean_beam():
    # direct branch (user 1 clean); joint user-1 stream 1.0 from source 1 and
    # 0.25 from source 2, joint user-2 stream 0.25 from each source
    g = ChannelGains(c12=10.0, c13=2.0, c14=1.0, c23=1.0, c24=1.0, c34=1.0)
    p = PowerBudget(4.0, 4.0)
    a = make_alloc(lam=(0.0, 0.0, 1.0), kappa=(0.0, 1.0), gamma=(0.0, 1.0),
                   mu=(0.6875, 0.25, 0.0625), eta=(0.875, 0.0625, 0.0625))
    cov = txcoop.tc_budget_covariances(g, p, a)
    assert cov.user1_clean
    # first-encoded stream: in phase at both sources
    assert cov.sigma2 == pytest.approx((0.25, 0.25, 0.25))
    # clean stream: inv(I + 0.5 g2 g2^T) with g2 = (1, 1) has correlation
    # -1/3, so the clean correlation is 1 - 2/3 = 1/3 and a12 = sqrt(0.25)/3
    assert cov.sigma1 == pytest.approx((1.0, 1 / 6, 0.25))
    # first stream raised to 1.0 per source (s = 2): correlation -2/3, so the
    # clean beam turns past orthogonal to -1/3
    a = make_alloc(lam=(0.0, 0.0, 1.0), kappa=(0.0, 1.0), gamma=(0.0, 1.0),
                   mu=(0.5, 0.25, 0.25), eta=(0.6875, 0.25, 0.0625))
    cov = txcoop.tc_budget_covariances(g, p, a)
    assert cov.sigma1 == pytest.approx((1.0, -1 / 6, 0.25))
    # no first stream: the clean stream is a coherent rank-one beam
    a = make_alloc(lam=(0.0, 0.0, 1.0), kappa=(0.0, 1.0), gamma=(0.0, 1.0),
                   mu=(0.75, 0.25, 0.0), eta=(0.9375, 0.0, 0.0625))
    cov = txcoop.tc_budget_covariances(g, p, a)
    assert cov.sigma1 == pytest.approx((1.0, 0.5, 0.25))
    assert cov.sigma2 == (0.0, 0.0, 0.0)


def test_budget_covariances_degenerate_phase(ref_gains, ref_powers):
    # a silent joint phase carries nothing; a positive share on it is rejected
    cov = txcoop.tc_budget_covariances(ref_gains, ref_powers,
                                       make_alloc(lam=(0.5, 0.5, 0.0), kappa=(1.0, 0.0),
                                                  gamma=(1.0, 0.0)))
    assert cov.sigma1 == (0.0, 0.0, 0.0) and cov.sigma2 == (0.0, 0.0, 0.0)
    with pytest.raises(InvalidAllocation, match="gamma2"):
        txcoop.tc_budget_covariances(ref_gains, ref_powers,
                                     make_alloc(lam=(0.5, 0.5, 0.0), kappa=(1.0, 0.0)))


def test_power_audit_budget_passes_paper_overspends():
    rng = np.random.default_rng(11)
    paper_over = 0
    for _ in range(200):
        g = random_gains(rng)
        p = random_powers(rng)
        a = random_tc_allocation(rng)
        audit = txcoop.phase3_power_audit(g, p, a)
        assert audit.passes(), audit
        assert audit.radiated == pytest.approx(audit.allotted, rel=1e-12)
        paper = txcoop.phase3_power_audit(g, p, a, txcoop.tc_phase3_covariances(g, p, a))
        paper_over += not paper.passes()
    # the pooled duality construction radiates more than a source's share
    assert paper_over > 100


def test_power_audit_worked_example_and_silent_phase(ref_gains, ref_powers):
    # equal shares at the reference point: each source bursts 7.5 in phase 3
    a = make_alloc()
    audit = txcoop.phase3_power_audit(ref_gains, ref_powers, a)
    assert audit.allotted == pytest.approx((7.5, 7.5), rel=1e-14)
    assert audit.passes()
    assert audit.radiated == pytest.approx((7.5, 7.5), rel=1e-14)
    paper = txcoop.phase3_power_audit(ref_gains, ref_powers, a,
                                      txcoop.tc_phase3_covariances(ref_gains, ref_powers, a))
    assert not paper.passes()
    assert max(r - q for r, q in zip(paper.radiated, paper.allotted)) > 1.0
    silent = txcoop.phase3_power_audit(ref_gains, ref_powers,
                                       make_alloc(lam=(0.5, 0.5, 0.0), kappa=(1.0, 0.0),
                                                  gamma=(1.0, 0.0)))
    assert silent.radiated == (0.0, 0.0) and silent.allotted == (0.0, 0.0)


def test_power_audit_rejects_infinite_gain_with_given_covariances(ref_gains, ref_powers):
    # covariances taken at a finite c12 do not let the audit skip the c12 check
    a = make_alloc()
    cov = txcoop.tc_phase3_covariances(ref_gains, ref_powers, a)
    g = dataclasses.replace(ref_gains, c12=math.inf)
    for given in (None, cov):
        with pytest.raises(InfiniteGain):
            txcoop.phase3_power_audit(g, ref_powers, a, given)


# ---------------------------------------------------------------------------
# phase-3 rates


def test_phase3_rates_fresh_stream_closed_form():
    # direct branch, fresh-stream share 0.2, burst power 10, half duration
    g = ChannelGains(c12=10.0, c13=1.0, c14=1.0, c23=2.0, c24=1.0, c34=1.0)
    p = PowerBudget(5.0, 5.0)
    a = make_alloc(lam=(0.5, 0.0, 0.5), kappa=(0.0, 1.0), gamma=(0.0, 1.0),
                   mu=(0.2, 0.4, 0.4), eta=(1 / 3, 1 / 3, 1 / 3))
    cov = txcoop.tc_phase3_covariances(g, p, a)
    assert cov.user1_clean
    r = phase3(g, p, a, cov)
    assert r.r1_d == pytest.approx(0.5 * math.log2(3.0), rel=1e-14)
    assert txcoop.tc_phase_rates(g, p, a, cov=cov).r1_d == r.r1_d


def test_phase3_rates_zero_fresh_shares(ref_gains, ref_powers):
    a = make_alloc(mu=(0.0, 0.5, 0.5), eta=(0.0, 0.5, 0.5))
    cov = txcoop.tc_phase3_covariances(ref_gains, ref_powers, a)
    r = phase3(ref_gains, ref_powers, a, cov)
    assert r.r1_d == 0.0 and r.r2_d == 0.0
    assert r.r1_3 > 0.0 and r.r2_3 > 0.0


def test_phase3_rates_swapped_branch_fresh_user2():
    # swapped branch (tie) with no user-2 fresh share
    g = ChannelGains(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=1.0)
    p = PowerBudget(5.0, 5.0)
    a = make_alloc(eta=(0.0, 0.5, 0.5))
    cov = txcoop.tc_phase3_covariances(g, p, a)
    assert not cov.user1_clean
    r = phase3(g, p, a, cov)
    assert r.r2_d == 0.0


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP defect 7: the clean receiver ignores the other source's "
                          "fresh stream; direction I fixes it")
def test_no_exchange_sum_rate_within_ic_outer_bound():
    # No message is exchanged and no node can help another (c12 = c34 = 0,
    # fresh streams only), so any code runs on the plain interference channel
    # and its sum rate is bounded whatever the search budget.  Today both
    # pairs sum to 6.7944 against 4.3923.
    g = ChannelGains(c12=0.0, c13=1.0, c14=0.1, c23=1.0, c24=1.0, c34=0.0)
    p = PowerBudget(10.0, 10.0, 10.0, 10.0)
    a = make_alloc(lam=(0.0, 0.0, 1.0), kappa=(0.0, 1.0), gamma=(0.0, 1.0),
                   alpha=(1.0, 0.0), beta=(1.0, 0.0), mu=(1.0, 0.0, 0.0), eta=(1.0, 0.0, 0.0))
    sum_max = bounds.ic_outer_region(g, p).sum_max
    assert txcoop.tc_rate_pair(g, p, a).total <= sum_max + 1e-12
    assert txcoop.rdpc_rate_pair(g, p, a).total <= sum_max + 1e-12


# ---------------------------------------------------------------------------
# combined pair, baseline, reference equality


def test_rate_pair_zero_powers(ref_gains):
    pair = txcoop.tc_rate_pair(ref_gains, PowerBudget(0.0, 0.0), make_alloc())
    assert (pair.r1, pair.r2) == (0.0, 0.0)


def test_rate_pair_pure_joint_phase(ref_gains, ref_powers):
    # whole block in phase 3: nothing was exchanged, so only fresh streams count
    a = make_alloc(lam=(0.0, 0.0, 1.0), kappa=(0.0, 1.0), gamma=(0.0, 1.0))
    rates = txcoop.tc_phase_rates(ref_gains, ref_powers, a)
    pair = txcoop.tc_rate_pair(ref_gains, ref_powers, a)
    assert rates.r1_r1 == 0.0 and rates.r2_r1 == 0.0
    assert pair.r1 == rates.r1_d
    assert pair.r2 == rates.r2_d


def test_rate_pair_matches_reference_on_random_inputs(ref_gains, ref_powers):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(150):
        g = random_gains(rng)
        p = random_powers(rng)
        a = random_tc_allocation(rng)
        got = txcoop.tc_rate_pair(g, p, a)
        want = tc_reference(gains_dict(g), powers_dict(p), tc_allocation_dict(a))
        worst = max(worst, abs(got.r1 - want[0]), abs(got.r2 - want[1]))
    assert worst <= 1e-12


def test_paper_construction_matches_reference():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(150):
        g = random_gains(rng)
        p = random_powers(rng)
        a = random_tc_allocation(rng)
        got = txcoop._pair(dataclasses.astuple(txcoop.tc_phase_rates(
            g, p, a, cov=txcoop.tc_phase3_covariances(g, p, a))))
        want = tc_reference(gains_dict(g), powers_dict(p), tc_allocation_dict(a), paper=True)
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    assert worst <= 1e-12


def test_rdpc_matches_reference_and_differs_from_tc(ref_gains, ref_powers):
    rng = np.random.default_rng(23)
    for _ in range(60):
        a = random_tc_allocation(rng)
        got = txcoop.rdpc_rate_pair(ref_gains, ref_powers, a)
        want = tc_reference(gains_dict(ref_gains), powers_dict(ref_powers),
                            tc_allocation_dict(a), rdpc=True)
        assert abs(got.r1 - want[0]) <= 1e-12
        assert abs(got.r2 - want[1]) <= 1e-12
    # with both joint streams loaded the sources' copies of each joint stream
    # are correlated, so the baseline and the full scheme genuinely differ
    a = make_alloc(mu=(0.2, 0.4, 0.4), eta=(0.2, 0.4, 0.4))
    tc = txcoop.tc_rate_pair(ref_gains, ref_powers, a)
    rd = txcoop.rdpc_rate_pair(ref_gains, ref_powers, a)
    assert abs(tc.r1 - rd.r1) + abs(tc.r2 - rd.r2) > 1e-6


def test_rdpc_equals_tc_on_silent_joint_phase():
    # RDPC differs from TC only in its phase-3 covariances, so without a joint
    # phase the two run the same formulas and give the same pair
    rng = np.random.default_rng(41)
    for _ in range(100):
        g = random_gains(rng)
        p = random_powers(rng)
        a = dataclasses.replace(random_tc_allocation(rng),
                                lam=Simplex3(*rng.dirichlet([1.0, 1.0]), 0.0),
                                kappa=Simplex2(1.0, 0.0), gamma=Simplex2(1.0, 0.0))
        assert txcoop.rdpc_rate_pair(g, p, a) == txcoop.tc_rate_pair(g, p, a)
        r = txcoop.tc_phase_rates(g, p, a)
        assert (r.r1_3, r.r2_3, r.r1_d, r.r2_d) == (0.0, 0.0, 0.0, 0.0)


def test_rate_pair_nonnegative_finite_and_power_monotone():
    rng = np.random.default_rng(31)
    for _ in range(120):
        g = random_gains(rng)
        p = random_powers(rng)
        a = random_tc_allocation(rng)
        pair = txcoop.tc_rate_pair(g, p, a)
        assert pair.r1 >= 0.0 and pair.r2 >= 0.0
        assert math.isfinite(pair.r1) and math.isfinite(pair.r2)
        doubled = PowerBudget(2 * p.p1, 2 * p.p2, 2 * p.p3, 2 * p.p4)
        bigger = txcoop.tc_rate_pair(g, doubled, a)
        assert bigger.r1 >= pair.r1 - 1e-12
        assert bigger.r2 >= pair.r2 - 1e-12


def test_rate_pair_power_monotone_while_clean_beam_turns():
    # user 1 clean: as both powers grow the clean beam turns from in phase
    # towards antiphase, yet neither its received power nor the rate pair falls
    g = ChannelGains(c12=10.0, c13=2.0, c14=1.0, c23=1.0, c24=1.0, c34=1.0)
    a = make_alloc(lam=(0.1, 0.1, 0.8), kappa=(0.2, 0.8), gamma=(0.2, 0.8),
                   mu=(0.4, 0.3, 0.3), eta=(0.4, 0.3, 0.3))
    rhos, received, pairs = [], [], []
    for k in range(25):
        power = 0.25 * 2 ** (k / 2)
        p = PowerBudget(power, power)
        a11, a12, a22 = txcoop.tc_budget_covariances(g, p, a).sigma1
        rhos.append(a12 / math.sqrt(a11 * a22))
        received.append(g.c13 ** 2 * a11 + 2 * g.c13 * g.c23 * a12 + g.c23 ** 2 * a22)
        pairs.append(txcoop.tc_rate_pair(g, p, a))
    assert rhos[0] > 0.7 and rhos[-1] < -0.99
    assert all(later < earlier for earlier, later in zip(rhos, rhos[1:]))
    assert all(later >= earlier for earlier, later in zip(received, received[1:]))
    for lo, hi in zip(pairs, pairs[1:]):
        assert hi.r1 >= lo.r1 and hi.r2 >= lo.r2


def test_rate_pair_monotone_in_conferencing_gain(ref_powers):
    rng = np.random.default_rng(37)
    base = {"c13": 1.0, "c14": SQRT2, "c23": SQRT2, "c24": 1.0, "c34": 10.0}
    for _ in range(40):
        a = random_tc_allocation(rng)
        low = txcoop.tc_rate_pair(ChannelGains(c12=5.0, **base), ref_powers, a)
        high = txcoop.tc_rate_pair(ChannelGains(c12=10.0, **base), ref_powers, a)
        assert high.r1 >= low.r1 - 1e-12
        assert high.r2 >= low.r2 - 1e-12


def test_branch_tie_evaluates_both_orders():
    # exactly on the ordering boundary: both constructions must evaluate
    g_tie = ChannelGains(c12=10.0, c13=1.0, c14=2.0, c23=2.0, c24=1.0, c34=1.0)
    g_direct = ChannelGains(c12=10.0, c13=1.0 + 1e-9, c14=2.0, c23=2.0, c24=1.0, c34=1.0)
    p = PowerBudget(5.0, 5.0)
    a = make_alloc()
    tie = txcoop.tc_rate_pair(g_tie, p, a)
    direct = txcoop.tc_rate_pair(g_direct, p, a)
    assert not txcoop.tc_phase3_covariances(g_tie, p, a).user1_clean
    assert txcoop.tc_phase3_covariances(g_direct, p, a).user1_clean
    assert all(math.isfinite(v) for v in (tie.r1, tie.r2, direct.r1, direct.r2))


def test_rate_pair_rejects_infinite_gain(ref_powers):
    g = ChannelGains(c12=math.inf, c13=1.0, c14=1.0, c23=1.0, c24=1.0, c34=1.0)
    with pytest.raises(InfiniteGain):
        txcoop.tc_rate_pair(g, ref_powers, make_alloc())


# ---------------------------------------------------------------------------
# infinite-conferencing limit


def test_limit_rate_pair_requires_infinite_gain(ref_gains, ref_powers):
    with pytest.raises(NotInfinite):
        txcoop.tc_limit_rate_pair(ref_gains, ref_powers,
                                  Simplex3(0, 1, 0), Simplex3(0, 1, 0), True)


def test_limit_rate_pair_sum_point(ref_powers):
    g = ChannelGains(c12=math.inf, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0)
    # one joint stream per user at full node power: the pair sits on the
    # pooled-power broadcast sum boundary
    for order in (True, False):
        pair = txcoop.tc_limit_rate_pair(g, ref_powers, Simplex3(0, 1, 0),
                                         Simplex3(0, 1, 0), order)
        assert pair.total == pytest.approx(math.log2(56.0), rel=1e-12)


def test_limit_rate_pair_single_user_corner(ref_powers):
    g = ChannelGains(c12=math.inf, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0)
    pair = txcoop.tc_limit_rate_pair(g, ref_powers, Simplex3(0, 1, 0),
                                     Simplex3(0, 0, 1), False)
    assert pair.r1 == pytest.approx(math.log2(31.0), rel=1e-12)
    assert pair.r2 == 0.0


def test_limit_region_zero_powers():
    g = ChannelGains(c12=math.inf, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0)
    fr = txcoop.tc_limit_region(g, PowerBudget(0.0, 0.0))
    assert fr.vertices() == [(0.0, 0.0)]


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP defect 1: the c12 = inf limit shapes the clean stream with "
                          "the wrong gains and overspends the other stream's power; direction F "
                          "fixes it")
def test_limit_trace_within_bc_sum_capacity():
    # c14 != c23, where the out-gains h and the in-gains g differ.  The two
    # sources with a pooled budget are a two-antenna broadcast transmitter,
    # so no vertex may beat its sum capacity.  Today the max sum is 5.8990
    # against 5.6724.
    g = ChannelGains(c12=math.inf, c13=1.0, c14=2.0, c23=0.5, c24=1.0, c34=1.0)
    p = PowerBudget(5.0, 5.0, 5.0, 5.0)
    opts = frontier.TraceOptions(weights=frontier.default_weights(9), restarts=4,
                                 max_iter=150, seed=0)
    sums = [r1 + r2 for r1, r2 in frontier.trace("TC", g, p, opts).vertices()]
    assert max(sums) <= bounds.mimo_bc_sum_bound(g, p.p1 + p.p2) + 1e-9
