"""Outer bounds and baselines."""

import math

import numpy as np
import pytest

from conftest import random_gains, random_powers
from coopic.model import ChannelGains, NotStrongInterference, PowerBudget, Sym2, cap, logdet2
from coopic import bounds

SQRT2 = math.sqrt(2.0)


def gains_with(c12=10.0, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=10.0):
    return ChannelGains(c12=c12, c13=c13, c14=c14, c23=c23, c24=c24, c34=c34)


# ---------------------------------------------------------------------------
# relay cut-set bound


def test_cutset_dead_conferencing_link_collapses_to_direct(ref_powers):
    g = gains_with(c12=0.0)
    got = bounds.relay_cutset_bound(g, ref_powers, 1)
    assert got == pytest.approx(cap(g.c13 ** 2 * ref_powers.p1), abs=1e-9)


def test_cutset_infinite_conferencing_closed_form(ref_powers):
    g = gains_with(c12=math.inf)
    want = cap((math.sqrt(5.0) + math.sqrt(10.0)) ** 2)
    assert bounds.relay_cutset_bound(g, ref_powers, 1) == pytest.approx(want, rel=1e-13)
    # approached from below (convergence in the conferencing gain is slow)
    big = bounds.relay_cutset_bound(gains_with(c12=1e6), ref_powers, 1)
    assert big < want


def test_cutset_zero_powers(ref_gains):
    assert bounds.relay_cutset_bound(ref_gains, PowerBudget(0.0, 0.0), 1) == 0.0


def test_cutset_receiver_cooperation_limit(ref_powers):
    # infinite forwarding link: the two receivers act as one two-antenna node
    g = gains_with(c34=math.inf)
    got = bounds.relay_cutset_bound(g, ref_powers, 1, cooperation="rx")
    assert got == pytest.approx(cap((g.c13 ** 2 + g.c14 ** 2) * ref_powers.p1), rel=1e-13)
    assert got == pytest.approx(4.0, rel=1e-13)


def test_cutset_monotone_in_conferencing_gain_and_power(ref_powers):
    values = [bounds.relay_cutset_bound(gains_with(c12=c), ref_powers, 1)
              for c in (0.5, 2.0, 5.0, 10.0, 50.0)]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
    small = bounds.relay_cutset_bound(gains_with(), PowerBudget(2.0, 2.0), 1)
    large = bounds.relay_cutset_bound(gains_with(), PowerBudget(4.0, 4.0), 1)
    assert small <= large + 1e-9


def test_cutset_dominates_burst_exchange_rate(ref_gains, ref_powers):
    # the scheme's conferencing hop bursts its power; the bound must sit above
    # the direct-plus-exchange flow it certifies: spot-check the listen cut
    bound = bounds.relay_cutset_bound(ref_gains, ref_powers, 1)
    assert bound >= cap(ref_gains.c13 ** 2 * ref_powers.p1)
    assert bound <= cap((math.sqrt(5.0) + math.sqrt(10.0)) ** 2)


def test_cutset_user_arguments(ref_gains, ref_powers):
    # symmetric channel: both users see the same bound
    b1 = bounds.relay_cutset_bound(ref_gains, ref_powers, 1)
    b2 = bounds.relay_cutset_bound(ref_gains, ref_powers, 2)
    assert b1 == pytest.approx(b2, rel=1e-9)
    with pytest.raises(ValueError):
        bounds.relay_cutset_bound(ref_gains, ref_powers, 3)


# ---------------------------------------------------------------------------
# broadcast / multiple-access sum bounds


def test_bc_sum_bound_values(ref_gains):
    assert bounds.mimo_bc_sum_bound(ref_gains, 0.0) == 0.0
    got = bounds.mimo_bc_sum_bound(ref_gains, 10.0)
    assert got == pytest.approx(math.log2(56.0), abs=1e-9)


def test_bc_sum_bound_rank1_reduction():
    g = gains_with(c14=0.0, c24=0.0)  # second receiver deaf
    norm = g.c13 ** 2 + g.c23 ** 2
    assert bounds.mimo_bc_sum_bound(g, 10.0) == pytest.approx(cap(10.0 * norm), abs=1e-9)


def test_mac_sum_bound_values(ref_gains, ref_powers):
    assert bounds.mimo_mac_sum_bound(ref_gains, PowerBudget(0.0, 0.0)) == 0.0
    got = bounds.mimo_mac_sum_bound(ref_gains, ref_powers)
    assert got == pytest.approx(math.log2(56.0), rel=1e-13)
    g = gains_with(c23=0.0, c24=0.0)  # second transmitter silent
    assert bounds.mimo_mac_sum_bound(g, ref_powers) == pytest.approx(
        cap((g.c13 ** 2 + g.c14 ** 2) * ref_powers.p1), rel=1e-13)


def test_bc_bound_at_least_mac_bound():
    rng = np.random.default_rng(11)
    for _ in range(40):
        g = random_gains(rng)
        p = random_powers(rng)
        bc = bounds.mimo_bc_sum_bound(g, p.p1 + p.p2)
        mac = bounds.mimo_mac_sum_bound(g, p)
        assert bc >= mac - 1e-9


def test_bc_equals_mac_on_symmetric_channel(ref_gains, ref_powers):
    bc = bounds.mimo_bc_sum_bound(ref_gains, ref_powers.p1 + ref_powers.p2)
    mac = bounds.mimo_mac_sum_bound(ref_gains, ref_powers)
    assert bc == pytest.approx(mac, abs=1e-9)


# ---------------------------------------------------------------------------
# assembled regions and baselines


def test_outer_regions_compose(ref_gains, ref_powers):
    tc = bounds.tc_outer_region(ref_gains, ref_powers)
    assert tc.kind == "TC"
    assert tc.r1_max == pytest.approx(
        bounds.relay_cutset_bound(ref_gains, ref_powers, 1), rel=1e-12)
    assert tc.sum_max == pytest.approx(
        bounds.mimo_bc_sum_bound(ref_gains, ref_powers.p1 + ref_powers.p2), rel=1e-12)
    rc = bounds.rc_outer_region(ref_gains, ref_powers)
    assert rc.kind == "RC"
    assert rc.sum_max == pytest.approx(
        bounds.mimo_mac_sum_bound(ref_gains, ref_powers), rel=1e-12)


def test_outer_bound_geometry():
    region = bounds.OuterBound(r1_max=3.0, r2_max=2.0, sum_max=4.0, kind="TC")
    assert region.contains(3.0, 1.0)
    assert not region.contains(3.0, 1.0 + 1e-6)
    assert region.violation(3.5, 1.0) == pytest.approx(0.5)
    assert region.vertices() == [(3.0, 1.0), (2.0, 2.0)]
    assert region.corner(0.0) == (3.0, 1.0)
    assert region.corner(math.inf) == (2.0, 2.0)
    assert region.corner(1.0) == (3.0, 1.0)  # both corners sum to 4: the tie goes to user 1
    assert region.corner(1.5) == (2.0, 2.0)
    loose = bounds.OuterBound(r1_max=1.0, r2_max=1.0, sum_max=5.0, kind="TC")
    assert loose.vertices() == [(1.0, 1.0)]
    assert all(loose.corner(w) == (1.0, 1.0) for w in (0.0, 1.0, math.inf))


def test_strong_ic_region(ref_gains, ref_powers):
    region = bounds.strong_ic_region(ref_gains, ref_powers)
    assert region.r1_max == pytest.approx(math.log2(6.0), abs=1e-12)
    assert region.r2_max == pytest.approx(math.log2(6.0), abs=1e-12)
    assert region.sum_max == pytest.approx(4.0, abs=1e-12)
    assert bounds.strong_ic_region(ref_gains, PowerBudget(0.0, 0.0)).sum_max == 0.0


def test_strong_ic_boundary_admitted():
    g = gains_with(c13=1.0, c14=1.0, c23=1.0, c24=1.0)
    region = bounds.strong_ic_region(g, PowerBudget(3.0, 3.0))
    # constraints coincide with the multiple-access region at each receiver
    assert region.sum_max == pytest.approx(cap(6.0), rel=1e-13)


def test_strong_ic_rejects_weak_interference(ref_powers):
    with pytest.raises(NotStrongInterference):
        bounds.strong_ic_region(gains_with(c13=2.0, c14=1.0), ref_powers)


# ---------------------------------------------------------------------------
# broadcast-region polygon


def test_bc_region_vertices(ref_gains):
    verts = bounds.bc_region_vertices(ref_gains, 10.0)
    assert verts[0][0] == pytest.approx(math.log2(31.0), rel=1e-12)
    assert verts[0][1] == 0.0
    assert verts[-1][1] == pytest.approx(math.log2(31.0), rel=1e-12)
    assert max(x + y for x, y in verts) == pytest.approx(math.log2(56.0), abs=1e-6)
    # convex decreasing chain
    xs = [v[0] for v in verts]
    assert xs == sorted(xs, reverse=True)
    assert bounds.bc_region_vertices(ref_gains, 0.0) == [(0.0, 0.0)]
