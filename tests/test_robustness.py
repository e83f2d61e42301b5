"""Validated input never raises anything but an EvaluatorError.

Gains and powers are drawn log-uniformly over most of the validated range,
where large nearly parallel gain vectors used to cancel a 2x2 determinant
to zero or below.  The pooled duality covariances (the c12 = +inf limit and
the paper's phase-3 construction) must not raise at all there, and the
limit's rates must match the same formulas in exact rational arithmetic.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_tc_allocation
from coopic import bounds, rxcoop, txcoop
from coopic.model import (
    ChannelGains,
    EvaluatorError,
    InfiniteGain,
    InvalidAllocation,
    PowerBudget,
    RcAllocation,
    Simplex2,
    Simplex3,
    TcAllocation,
    cap,
)

DRAWS = 2000

U2 = Simplex2(0.5, 0.5)
U3 = Simplex3(1 / 3, 1 / 3, 1 / 3)
TC_UNIFORM = TcAllocation(lam=U3, kappa=U2, gamma=U2, alpha=U2, beta=U2, mu=U3, eta=U3)
RC_UNIFORM = RcAllocation(lam=U3, mu=U3, eta=U3, alpha=U2, beta=U2)


TC_VIEWS = (txcoop.tc_rate_pair, txcoop.rdpc_rate_pair, txcoop.tc_phase_rates,
            txcoop.phase3_power_audit, txcoop.tc_phase3_covariances,
            txcoop.tc_budget_covariances, txcoop.rdpc_covariances)
RC_VIEWS = (rxcoop.rc_rate_pair, rxcoop.rc_phase_rates)


@pytest.mark.parametrize("view", TC_VIEWS + RC_VIEWS, ids=lambda view: view.__name__)
def test_views_take_only_their_own_allocation(view, ref_gains, ref_powers):
    # Raw weight lists, which no simplex checked (all ones spend a multiple
    # of the budget, and TC scored them far above the same shares as an
    # allocation), the other scheme's allocation and a bare tuple of the
    # right simplices are each an InvalidAllocation, after the gain-mode
    # check.
    own, other, link = ((TC_UNIFORM, RC_UNIFORM, "c12") if view in TC_VIEWS
                        else (RC_UNIFORM, TC_UNIFORM, "c34"))
    view(ref_gains, ref_powers, own)
    infinite = dataclasses.replace(ref_gains, **{link: math.inf})
    for bad in ([[1.0 for _ in simplex] for simplex in own], other, tuple(own)):
        with pytest.raises(InvalidAllocation):
            view(ref_gains, ref_powers, bad)
        with pytest.raises(InfiniteGain):
            view(infinite, ref_powers, bad)


def log_uniform_channels(seed: int, n: int):
    """n (gains, powers): gains in 1e-3..1e8, powers in 0.1..1e4."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield ChannelGains(*10.0 ** rng.uniform(-3.0, 8.0, size=6)), \
            PowerBudget(*10.0 ** rng.uniform(-1.0, 4.0, size=4))


def test_validated_channels_raise_only_evaluator_errors():
    failures = []
    for g, p in log_uniform_channels(7, DRAWS):
        # the sum bounds are defined for every channel: nothing may raise
        try:
            bounds.mimo_bc_sum_bound(g, p.p1 + p.p2)
            bounds.mimo_mac_sum_bound(g, p)
        except Exception as exc:  # noqa: BLE001 -- any exception is a failure here
            failures.append((g, p, "bounds", repr(exc)))
        for name, rate_pair, alloc in (("TC", txcoop.tc_rate_pair, TC_UNIFORM),
                                       ("RDPC", txcoop.rdpc_rate_pair, TC_UNIFORM),
                                       ("RC", rxcoop.rc_rate_pair, RC_UNIFORM)):
            try:
                rate_pair(g, p, alloc)
            except EvaluatorError:
                pass
            except Exception as exc:  # noqa: BLE001
                failures.append((g, p, name, repr(exc)))
    assert not failures, f"{len(failures)} failures, first: {failures[0]}"


def exact_tc_limit_pair(g: ChannelGains, p: PowerBudget, mu, eta, user1_clean: bool):
    """The pooled-duality limit rate pair with every SNR in rational arithmetic.

    The clean stream's covariance is s_clean (I + s_other u u^T)^-1 by the
    adjugate, the other stream's (1 + u^T sigma1 u) s_other I; each SNR is
    rounded to a float once, then passed to ``cap``.
    """
    c13, c14, c23, c24 = map(Fraction, (g.c13, g.c14, g.c23, g.c24))
    p1, p2 = Fraction(p.p1), Fraction(p.p2)
    mu, eta = [Fraction(w) for w in mu], [Fraction(w) for w in eta]
    s_joint1, s_joint2 = mu[1] * p1 + eta[2] * p2, mu[2] * p1 + eta[1] * p2
    if user1_clean:
        u0, u1, s_clean, s_other = c23, c24, s_joint1, s_joint2
    else:
        u0, u1, s_clean, s_other = c13, c14, s_joint2, s_joint1
    m11, m12, m22 = 1 + s_other * u0 * u0, s_other * u0 * u1, 1 + s_other * u1 * u1
    det = m11 * m22 - m12 * m12
    sigma1 = (s_clean * m22 / det, -s_clean * m12 / det, s_clean * m11 / det)

    def quad(v0, v1, a):
        return v0 * v0 * a[0] + 2 * v0 * v1 * a[1] + v1 * v1 * a[2]

    scale = (1 + quad(u0, u1, sigma1)) * s_other
    sigma2 = (scale, 0, scale)
    i1_at3, i1_at4 = c13 ** 2 * mu[0] * p1, c14 ** 2 * mu[0] * p1
    i2_at4, i2_at3 = c24 ** 2 * eta[0] * p2, c23 ** 2 * eta[0] * p2
    if user1_clean:
        leak = quad(c14, c24, sigma1)
        return (cap(float(i1_at3)) + cap(float(quad(c13, c23, sigma1) / (1 + i1_at3))),
                cap(float(i2_at4 / (1 + leak + i1_at4)))
                + cap(float(quad(c14, c24, sigma2) / (1 + leak + i1_at4 + i2_at4))))
    leak = quad(c13, c23, sigma1)
    return (cap(float(i1_at3 / (1 + leak + i2_at3)))
            + cap(float(quad(c13, c23, sigma2) / (1 + leak + i1_at3 + i2_at3))),
            cap(float(i2_at4)) + cap(float(quad(c14, c24, sigma1) / (1 + i2_at4))))


def test_pooled_duality_covariances_raise_nothing_and_stay_exact():
    rng = np.random.default_rng(11)
    failures, worst = [], 0.0
    for g, p in log_uniform_channels(7, DRAWS):
        a = random_tc_allocation(rng)
        g_inf = ChannelGains(math.inf, g.c13, g.c14, g.c23, g.c24, g.c34)
        try:
            txcoop.tc_phase_rates(g, p, a, cov=txcoop.tc_phase3_covariances(g, p, a))
        except Exception as exc:  # noqa: BLE001 -- any exception is a failure here
            failures.append((g, p, "paper phase 3", repr(exc)))
        for user1_clean in (True, False):
            try:
                got = txcoop.tc_limit_rate_pair(g_inf, p, a.mu, a.eta, user1_clean)
            except Exception as exc:  # noqa: BLE001
                failures.append((g, p, f"TC limit, user1_clean={user1_clean}", repr(exc)))
                continue
            want = exact_tc_limit_pair(g, p, a.mu, a.eta, user1_clean)
            worst = max(worst, abs(got.r1 - want[0]), abs(got.r2 - want[1]))
    assert not failures, f"{len(failures)} failures, first: {failures[0]}"
    assert worst <= 1e-9, f"TC limit off its exact rates by {worst} bits"
