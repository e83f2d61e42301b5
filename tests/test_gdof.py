"""High-SNR slopes at zero cooperation: generalized degrees of freedom (GDoF).

On the symmetric family c13 = c24 = 1, c14 = c23 = SNR^((alpha - 1) / 2),
with all four powers SNR and c12 = c34 = 0, the interference-to-noise ratio
is SNR^alpha.  No node can help another, so no scheme's equal-rate value may
grow faster in log2 SNR than the symmetric GDoF W(alpha) of the two-user
Gaussian interference channel (Etkin, Tse and Wang 2008), and the capacity
outer bound must grow at exactly that rate.  The slope between SNR 1e5 and
1e8 estimates the GDoF to about 0.01.
"""

import math

import pytest

from coopic import bounds, frontier
from coopic.model import ChannelGains, PowerBudget

SNRS = (1e5, 1e8)
TOL = 0.02
OPTS = frontier.TraceOptions(weights=frontier.default_weights(5), restarts=4, max_iter=200,
                             seed=0)
ALPHAS = (0.3, 0.5, 0.75, 1.5)


def w_curve(alpha: float) -> float:
    """Etkin-Tse-Wang symmetric GDoF (the "W" curve) at INR = SNR^alpha."""
    if alpha <= 0.5:
        return 1.0 - alpha
    if alpha <= 2.0 / 3.0:
        return alpha
    if alpha <= 1.0:
        return 1.0 - alpha / 2.0
    return min(alpha / 2.0, 1.0)


def channel(alpha: float, snr: float) -> tuple[ChannelGains, PowerBudget]:
    cross = snr ** ((alpha - 1.0) / 2.0)
    return (ChannelGains(c12=0.0, c13=1.0, c14=cross, c23=cross, c24=1.0, c34=0.0),
            PowerBudget(snr, snr, snr, snr))


def slope(region_of, alpha: float) -> float:
    """Growth of the equal-rate value in bits per bit of SNR."""
    lo, hi = (frontier.equal_rate_value(region_of(*channel(alpha, snr))) for snr in SNRS)
    return (hi - lo) / math.log2(SNRS[1] / SNRS[0])


def traced(scheme: str):
    return lambda g, p: frontier.trace(scheme, g, p, OPTS)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_outer_bound_slope_is_the_w_curve(alpha):
    assert slope(bounds.ic_outer_region, alpha) == pytest.approx(w_curve(alpha), abs=TOL)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("scheme", ["RC", "IC"])
def test_achievable_slope_within_w_curve(scheme, alpha):
    region_of = bounds.strong_ic_region if scheme == "IC" else traced(scheme)
    assert slope(region_of, alpha) <= w_curve(alpha) + TOL


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP defect 7: TC's clean receiver ignores the other source's "
                          "fresh stream, so TC and RDPC grow faster than any code can (0.661 "
                          "and 0.606 against 0.5); direction I fixes it")
def test_tc_and_rdpc_slopes_within_w_curve():
    assert max(slope(traced("TC"), 0.5), slope(traced("RDPC"), 0.5)) <= w_curve(0.5) + TOL
