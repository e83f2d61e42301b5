"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 6 (outer-bound containment) holds for transmitter cooperation
because its phase-3 covariances keep each source within its own power
budget (``txcoop.tc_budget_covariances``), the per-node model the relay
cut-set bound assumes.  The paper's pooled duality construction
(``txcoop.tc_phase3_covariances``) lets a source radiate more than its
share, and its traced points can exceed the cut-set cap.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    gains_dict,
    powers_dict,
    random_gains,
    random_powers,
    random_rc_allocation,
    random_tc_allocation,
    rc_allocation_dict,
    tc_allocation_dict,
    zero_cooperation_channels,
)
from coopic import bounds, frontier, rxcoop, txcoop
from coopic.model import (
    ChannelGains,
    InvalidAllocation,
    PowerBudget,
    Simplex2,
    Simplex3,
    cap,
    det_pair,
    inverse,
)
from reference_eval import rc_reference, tc_reference

SQRT2 = math.sqrt(2.0)
REF_POWERS = PowerBudget(5.0, 5.0, 5.0, 5.0)
LOG2_56 = math.log2(56.0)

TRACE_OPTS = frontier.TraceOptions(weights=frontier.default_weights(9),
                                   restarts=8, max_iter=250, seed=0)
NESTING_OPTS = frontier.TraceOptions(weights=frontier.default_weights(7),
                                     restarts=6, max_iter=200, seed=0)
SUITE_OPTS = frontier.TraceOptions(weights=frontier.default_weights(5),
                                   restarts=3, max_iter=150, seed=0)
ZERO_COOPERATION_OPTS = frontier.TraceOptions(weights=frontier.default_weights(5),
                                             restarts=4, max_iter=150, seed=0)


def ref_gains_with(c12=10.0, c34=10.0) -> ChannelGains:
    return ChannelGains(c12=c12, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=c34)


@contextmanager
def report(label: str):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


@pytest.fixture(scope="module")
def tc_ref_frontier():
    return frontier.trace("TC", ref_gains_with(), REF_POWERS, TRACE_OPTS)


@pytest.fixture(scope="module")
def rdpc_ref_frontier():
    return frontier.trace("RDPC", ref_gains_with(), REF_POWERS, TRACE_OPTS)


@pytest.fixture(scope="module")
def rc_ref_frontier():
    return frontier.trace("RC", ref_gains_with(), REF_POWERS, TRACE_OPTS)


def test_criterion_1_tc_limit_equivalence():
    """TC at infinite conferencing gain meets the pooled broadcast region."""
    with report("criterion 1: TC limit equivalence"):
        start = time.monotonic()
        fr = frontier.trace("TC", ref_gains_with(c12=math.inf), REF_POWERS)
        elapsed = time.monotonic() - start
        max_sum = max(r1 + r2 for r1, r2 in fr.vertices())
        bc_sum = bounds.mimo_bc_sum_bound(ref_gains_with(), 10.0)
        assert bc_sum == pytest.approx(LOG2_56, abs=1e-9)
        assert abs(max_sum - bc_sum) <= 1e-2, f"max sum {max_sum} vs bound {bc_sum}"
        bc_poly = bounds.bc_region_vertices(ref_gains_with(), 10.0)
        dist = frontier.hausdorff(fr, bc_poly)
        assert dist <= 1e-2, f"Hausdorff distance {dist}"
        assert elapsed < 60.0, f"limit trace took {elapsed:.1f}s"
        print(f"  max sum {max_sum:.6f} (target {LOG2_56:.6f}), "
              f"Hausdorff {dist:.2e}, {elapsed:.1f}s", end=" ")


def test_criterion_2_rc_limit_equivalence():
    """RC at infinite conferencing gain meets the multiple-access region."""
    with report("criterion 2: RC limit equivalence"):
        fr = frontier.trace("RC", ref_gains_with(c34=math.inf), REF_POWERS)
        max_sum = max(r1 + r2 for r1, r2 in fr.vertices())
        assert abs(max_sum - LOG2_56) <= 1e-2
        corner_r1 = fr.points[0].r1
        assert abs(corner_r1 - 4.0) <= 1e-3, f"corner R1 {corner_r1}"
        print(f"  sum {max_sum:.6f}, corner R1 {corner_r1:.6f}", end=" ")


def test_criterion_3_tc_dominates_rdpc(tc_ref_frontier, rdpc_ref_frontier):
    """Transmitter cooperation beats the parallel-DPC baseline at gain 10."""
    with report("criterion 3: TC dominates RDPC"):
        assert frontier.dominates(tc_ref_frontier, rdpc_ref_frontier, tol=1e-6)
        gap = (frontier.equal_rate_value(tc_ref_frontier)
               - frontier.equal_rate_value(rdpc_ref_frontier))
        assert gap > 1e-6, f"equal-rate gap {gap}"
        print(f"  equal-rate gap {gap:.4f} bits (TC over RDPC)", end=" ")


def test_criterion_4_tc_dominates_rc(tc_ref_frontier, rc_ref_frontier):
    """Transmitter cooperation contains receiver cooperation at equal gains."""
    with report("criterion 4: TC dominates RC"):
        outside = frontier.region_deviation(rc_ref_frontier, tc_ref_frontier)
        assert frontier.dominates(tc_ref_frontier, rc_ref_frontier, tol=1e-6), \
            f"RC exceeds TC by {outside}"
        print(f"  RC outside TC: {outside:.2e} bits", end=" ")


def test_criterion_5_strong_ic_baseline(tc_ref_frontier, rc_ref_frontier):
    """Strong-IC capacity values, dominated by both cooperative schemes."""
    with report("criterion 5: strong-IC baseline"):
        region = bounds.strong_ic_region(ref_gains_with(), REF_POWERS)
        assert abs(region.r1_max - math.log2(6.0)) <= 1e-12
        assert abs(region.sum_max - 4.0) <= 1e-12
        ic_vertices = region.vertices()
        assert frontier.dominates(tc_ref_frontier, ic_vertices, tol=1e-6)
        assert frontier.dominates(rc_ref_frontier, ic_vertices, tol=1e-6)
        print(f"  r1_max {region.r1_max:.6f}, sum {region.sum_max:.6f}", end=" ")


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP defect 8: TC's phase 3 treats the fresh streams' "
                          "interference as noise, so at c12 <= 1 it misses the strong-IC "
                          "region; direction I fixes it")
def test_tc_contains_ic_region_at_weak_conferencing():
    """Conferencing can only add to the non-cooperative IC region, so TC
    contains it at every c12.  Today it lies 0.82 bits outside TC at
    c12 = 0.5 and 0.63 bits at c12 = 1 (``region_deviation``)."""
    with report("TC contains the strong-IC region at c12 in {0.5, 1, 2, 10}"):
        for c12 in (0.5, 1.0, 2.0, 10.0):
            g = ref_gains_with(c12=c12)
            tc = frontier.trace("TC", g, REF_POWERS, ZERO_COOPERATION_OPTS)
            ic = bounds.strong_ic_region(g, REF_POWERS)
            assert frontier.dominates(tc, ic, tol=1e-6), \
                f"IC outside TC by {frontier.region_deviation(ic, tc)} bits at c12 = {c12}"


def test_criterion_6_outer_bound_containment():
    """Every traced point satisfies the applicable outer-bound constraints.

    Both schemes keep every node within its own power budget, so a point
    outside its outer bound means a wrong rate formula or bound, not a weak
    search.  The paper's pooled joint-stream covariances would fail here on
    the transmitter-cooperation side: they overspend a source's power and
    break the relay cut-set cap.
    """
    with report("criterion 6: outer-bound containment"):
        rng = np.random.default_rng(2026)
        worst = {"TC": (-math.inf, None), "RC": (-math.inf, None)}
        channels = [(random_gains(rng), random_powers(rng)) for _ in range(50)]
        start = time.perf_counter()
        fronts = frontier.trace_many([(scheme, g, p) for g, p in channels
                                      for scheme in ("TC", "RC")], SUITE_OPTS)
        traces_s = time.perf_counter() - start
        bounds_s = 0.0
        for index, (g, p) in enumerate(channels):
            middle = time.perf_counter()
            regions = (bounds.tc_outer_region(g, p), bounds.rc_outer_region(g, p))
            bounds_s += time.perf_counter() - middle
            for scheme, fr, region in zip(("TC", "RC"), fronts[2 * index:2 * index + 2],
                                          regions):
                for r1, r2 in fr.vertices():
                    excess = region.violation(r1, r2)
                    if excess > worst[scheme][0]:
                        worst[scheme] = (excess, index)
        print(f"  worst TC violation {worst['TC'][0]:.3e} (config {worst['TC'][1]}), "
              f"worst RC violation {worst['RC'][0]:.3e} (config {worst['RC'][1]}); "
              f"outer bounds {bounds_s:.1f} s, traces {traces_s:.1f} s", end=" ")
        assert worst["RC"][0] <= 1e-9, f"RC containment violated: {worst['RC']}"
        assert worst["TC"][0] <= 1e-9, (
            f"TC containment violated by {worst['TC'][0]:.3e} bits "
            f"(config {worst['TC'][1]}); check txcoop.phase3_power_audit at the "
            "violating vertices")


def test_zero_cooperation_rc_lies_in_ic_outer_bound():
    """With c34 = 0 receiver cooperation runs on the plain interference
    channel, so every traced vertex lies in its outer bound."""
    with report("zero cooperation: RC inside the IC outer bound"):
        worst, worst_index = -math.inf, None
        channels = list(zero_cooperation_channels(2026, 20))
        fronts = frontier.trace_many([("RC", g, p) for g, p in channels], ZERO_COOPERATION_OPTS)
        for index, ((g, p), fr) in enumerate(zip(channels, fronts)):
            region = bounds.ic_outer_region(g, p)
            for r1, r2 in fr.vertices():
                if region.violation(r1, r2) > worst:
                    worst, worst_index = region.violation(r1, r2), index
        print(f"  worst violation {worst:.3e} bits (channel {worst_index})", end=" ")
        assert worst <= 1e-6, f"RC outside the IC outer bound by {worst} (channel {worst_index})"


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP defect 10, TC half: defect 7 lets TC and RDPC at c12 = 0 "
                          "exceed the IC outer bound; direction I fixes it")
def test_zero_cooperation_tc_lies_in_ic_outer_bound():
    """With c12 = 0 transmitter cooperation runs on the plain interference
    channel, so every traced TC and RDPC vertex lies in its outer bound.
    On defect 7's channel both lie 2.38 bits outside today."""
    with report("zero cooperation: TC and RDPC inside the IC outer bound"):
        g = ChannelGains(c12=0.0, c13=1.0, c14=0.1, c23=1.0, c24=1.0, c34=0.0)
        p = PowerBudget(10.0, 10.0, 10.0, 10.0)
        region = bounds.ic_outer_region(g, p)
        fronts = frontier.trace_many([("TC", g, p), ("RDPC", g, p)], ZERO_COOPERATION_OPTS)
        worst = {fr.scheme: max(region.violation(r1, r2) for r1, r2 in fr.vertices())
                 for fr in fronts}
        print(f"  worst violation TC {worst['TC']:.3e}, RDPC {worst['RDPC']:.3e} bits", end=" ")
        assert max(worst.values()) <= 1e-6, f"outside the IC outer bound by {worst} bits"


def test_criterion_7_frontier_nesting():
    """Frontiers are nested in the conferencing gain."""
    with report("criterion 7: frontier nesting in conferencing gain"):
        gains = (2.0, 5.0, 10.0)
        fronts = frontier.trace_many(
            [("TC", ref_gains_with(c12=c), REF_POWERS) for c in gains]
            + [("RC", ref_gains_with(c34=c), REF_POWERS) for c in gains], NESTING_OPTS)
        tc, rc = dict(zip(gains, fronts[:3])), dict(zip(gains, fronts[3:]))
        assert frontier.dominates(tc[5.0], tc[2.0], tol=1e-6)
        assert frontier.dominates(tc[10.0], tc[5.0], tol=1e-6)
        assert frontier.dominates(rc[5.0], rc[2.0], tol=1e-6)
        assert frontier.dominates(rc[10.0], rc[5.0], tol=1e-6)


def test_criterion_8_oracle_equivalence():
    """Evaluators match the straight-line reference on random inputs."""
    with report("criterion 8: dual-implementation oracle"):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(100):
            g = random_gains(rng)
            p = random_powers(rng)
            ta = random_tc_allocation(rng)
            got = txcoop.tc_rate_pair(g, p, ta)
            want = tc_reference(gains_dict(g), powers_dict(p), tc_allocation_dict(ta))
            worst = max(worst, abs(got.r1 - want[0]), abs(got.r2 - want[1]))
            ra = random_rc_allocation(rng)
            w = rng.uniform(0.0, 4.0)
            got = rxcoop.rc_rate_pair(g, p, ra, weight=w)
            want = rc_reference(gains_dict(g), powers_dict(p),
                                rc_allocation_dict(ra), weight=w)
            worst = max(worst, abs(got.r1 - want[0]), abs(got.r2 - want[1]))
        assert worst <= 1e-12, f"max deviation {worst}"
        print(f"  max |impl - reference| = {worst:.2e}", end=" ")


def test_criterion_9_property_suites():
    """Simplex, rank-1 log-det and det_pair, inverse round-trip, hull, determinism."""
    with report("criterion 9: property suites"):
        rng = np.random.default_rng(9)
        # simplex invariants
        for _ in range(100):
            w = rng.dirichlet([1.0, 1.0, 1.0])
            s = Simplex3(*w)
            assert abs(math.fsum(s) - 1.0) <= 1e-12
        with pytest.raises(InvalidAllocation):
            Simplex2(0.7, 0.7)
        with pytest.raises(InvalidAllocation):
            Simplex3(-0.1, 0.6, 0.5)
        # rank-1 log-det identity, and det_pair against the matrix determinant
        for _ in range(200):
            v = tuple(rng.uniform(0.0, 5.0, size=2))
            power = rng.uniform(0.0, 30.0)
            assert abs(math.log2(det_pair(v, power, (1.0, 1.0), 0.0))
                       - cap(power * (v[0] ** 2 + v[1] ** 2))) <= 1e-12
            u, (p, q) = rng.uniform(0.0, 3.0, size=2), rng.uniform(0.0, 10.0, size=2)
            want = np.linalg.det(np.eye(2) + p * np.outer(u, u) + q * np.outer(v, v))
            assert abs(det_pair(tuple(u), p, v, q) - want) <= 1e-12 * want
        # inverse round trip: (I + s u u^T) * inverse(u, s) = I
        for _ in range(200):
            u0, u1 = rng.uniform(-3.0, 3.0, size=2)
            power = rng.uniform(0.0, 10.0)
            m11, m12, m22 = 1.0 + power * u0 * u0, power * u0 * u1, 1.0 + power * u1 * u1
            i11, i12, i22 = inverse((u0, u1), power)
            prod_err = max(
                abs(m11 * i11 + m12 * i12 - 1.0),
                abs(m11 * i12 + m12 * i22),
                abs(m12 * i12 + m22 * i22 - 1.0))
            assert prod_err < 1e-10
        # hull idempotence
        for _ in range(20):
            pts = [tuple(q) for q in rng.uniform(0.0, 5.0, size=(40, 2))]
            h = frontier.hull(pts)
            assert frontier.hull(h) == h
        # frontier determinism (bit-identical repeated runs)
        tiny = frontier.TraceOptions(weights=frontier.default_weights(3),
                                     restarts=2, max_iter=100, seed=4)
        g = ref_gains_with()
        for scheme in ("TC", "RC"):
            first = frontier.trace(scheme, g, REF_POWERS, tiny)
            second = frontier.trace(scheme, g, REF_POWERS, tiny)
            assert first.vertices() == second.vertices()
