"""User-swap symmetry: relabelling the two users swaps the rate pair.

Both schemes treat the users alike, so swapping users 1 and 2 (c13 <-> c24,
c14 <-> c23, p1 <-> p2, p3 <-> p4, and each allocation field with its
mirror) must swap (R1, R2).  Only the two tie-breaks go to a fixed user:
TC's encoding order at c13 + c23 = c14 + c24 and RC's pentagon corner at
weight 1, so the draws avoid both.
"""

import math

import numpy as np
import pytest

from conftest import (gains_dict, powers_dict, random_gains, random_powers,
                      random_rc_allocation, random_tc_allocation, tc_allocation_dict)
from coopic import rxcoop, txcoop
from reference_eval import tc_reference
from coopic.model import ChannelGains, PowerBudget, RcAllocation, Simplex3, TcAllocation

DRAWS = 4000
# RC's corner weight w becomes 1/w for the swapped users; 1 itself is a tie.
WEIGHTS = ((0.0, math.inf), (0.25, 4.0), (0.5, 2.0), (0.8, 1.25))


def swap_channel(g: ChannelGains, p: PowerBudget):
    return (ChannelGains(c12=g.c12, c13=g.c24, c14=g.c23, c23=g.c14, c24=g.c13, c34=g.c34),
            PowerBudget(p.p2, p.p1, p.p4, p.p3))


def swap_tc(a: TcAllocation) -> TcAllocation:
    lam1, lam2, lam3 = a.lam
    return TcAllocation(lam=Simplex3(lam2, lam1, lam3), kappa=a.gamma, gamma=a.kappa,
                        alpha=a.beta, beta=a.alpha, mu=a.eta, eta=a.mu)


def swap_rc(a: RcAllocation) -> RcAllocation:
    lam1, lam2, lam3 = a.lam
    m1, m2, m3 = a.mu
    e1, e2, e3 = a.eta
    return RcAllocation(lam=Simplex3(lam1, lam3, lam2), mu=Simplex3(e1, e3, e2),
                        eta=Simplex3(m1, m3, m2), alpha=a.beta, beta=a.alpha)


@pytest.mark.parametrize("scheme", ["TC", "RDPC", "RC"])
def test_swapping_the_users_swaps_the_rates(scheme):
    rng = np.random.default_rng(2009)
    worst, drawn = 0.0, 0
    for _ in range(DRAWS):
        g, p = random_gains(rng), random_powers(rng)
        if g.c13 + g.c23 == g.c14 + g.c24:
            continue
        gs, ps = swap_channel(g, p)
        if scheme == "RC":
            a = random_rc_allocation(rng)
            w, w_swapped = WEIGHTS[rng.integers(len(WEIGHTS))][::rng.choice((1, -1))]
            r = rxcoop.rc_rate_pair(g, p, a, w)
            rs = rxcoop.rc_rate_pair(gs, ps, swap_rc(a), w_swapped)
        else:
            rate_pair = txcoop.tc_rate_pair if scheme == "TC" else txcoop.rdpc_rate_pair
            a = random_tc_allocation(rng)
            r, rs = rate_pair(g, p, a), rate_pair(gs, ps, swap_tc(a))
        worst = max(worst, abs(r.r1 - rs.r2), abs(r.r2 - rs.r1))
        drawn += 1
    assert drawn > DRAWS * 0.99
    assert worst <= 1e-12


@pytest.mark.parametrize("scheme", ["TC", "RDPC"])
def test_reference_order_for_user_1_is_the_swapped_order_for_user_2(scheme, ref_gains,
                                                                    ref_powers):
    # The reference channel maps to itself under the swap and sits on the
    # encoding-order tie, where the rule gives user 2 the clean slot.  The
    # oracle with user 1 clean is then the swap of the oracle with user 2
    # clean on the swapped allocation; None (or no order) keeps the rule's bits.
    rng = np.random.default_rng(36)
    g, p = gains_dict(ref_gains), powers_dict(ref_powers)
    assert swap_channel(ref_gains, ref_powers) == (ref_gains, ref_powers)
    assert not ref_gains.c13 + ref_gains.c23 > ref_gains.c14 + ref_gains.c24
    rdpc = scheme == "RDPC"
    moved = 0.0
    for _ in range(200):
        a = random_tc_allocation(rng)
        ad = tc_allocation_dict(a)
        clean1 = tc_reference(g, p, ad, rdpc, user1_clean=True)
        r1, r2 = tc_reference(g, p, tc_allocation_dict(swap_tc(a)), rdpc, user1_clean=False)
        assert abs(clean1[0] - r2) <= 1e-12 and abs(clean1[1] - r1) <= 1e-12
        assert tc_reference(g, p, {**ad, "user1_clean": True}, rdpc) == clean1
        today = tc_reference(g, p, ad, rdpc)
        for order in (None, False):
            assert tc_reference(g, p, ad, rdpc, user1_clean=order, weight=2.0) == today
            assert tc_reference(g, p, {**ad, "user1_clean": order}, rdpc) == today
        moved = max(moved, abs(clean1[0] - today[0]))
    assert moved > 1e-3  # the order matters on the tie
