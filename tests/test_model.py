"""Domain types and the 2x2 toolkit."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coopic.model import (
    GAIN_MAX,
    POWER_MAX,
    ChannelGains,
    EvaluatorError,
    InvalidAllocation,
    NegativeSnr,
    NonPositiveDefinite,
    PowerBudget,
    RatePair,
    Simplex2,
    Simplex3,
    Singular,
    Sym2,
    cap,
    inverse,
    logdet2,
    quad,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# cap


@pytest.mark.parametrize("x,expected", [(0.0, 0.0), (15.0, 4.0), (1.0, 1.0)])
def test_cap_values(x, expected):
    assert cap(x) == pytest.approx(expected, abs=1e-15)


def test_cap_infinite_and_negative():
    assert cap(math.inf) == math.inf
    assert cap(-1e-13) == 0.0
    with pytest.raises(NegativeSnr):
        cap(-1e-6)


# ---------------------------------------------------------------------------
# quad / logdet2 / inverse


def test_quad_form_examples():
    assert quad(1.0, 0.0, 1.0, 0.0, 1.0) == 1.0
    assert quad(1.0, SQRT2, 5.0, 0.0, 5.0) == pytest.approx(15.0, rel=1e-15)
    assert quad(1.0, 1.0, 1.0, 0.5, 1.0) == pytest.approx(3.0, rel=1e-15)


def test_quad_form_clamps_tiny_negative():
    assert quad(1.0, 0.0, -5e-11, 0.0, 1.0) == 0.0


def test_logdet2_examples():
    assert logdet2(Sym2(0.0, 0.0, 0.0)) == 0.0
    assert logdet2(Sym2(1.0, 0.0, 3.0)) == pytest.approx(3.0, rel=1e-15)
    # g1^T*5*g1 + g2^T*5*g2 for the reference channel: det(I+M) = 56
    m = Sym2(15.0, 10.0 * SQRT2, 15.0)
    assert logdet2(m) == pytest.approx(math.log2(56.0), rel=1e-15)


def test_logdet2_rejects_nonpositive():
    with pytest.raises(NonPositiveDefinite):
        logdet2(Sym2(-1.0, 0.0, 0.0))


def test_inv2_examples():
    assert inverse(1.0, 0.0, 1.0) == (1.0, -0.0, 1.0)
    assert inverse(2.0, 0.0, 4.0) == (0.5, -0.0, 0.25)
    a11, a12, a22 = inverse(2.0, 1.0, 2.0)
    assert a11 == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert a12 == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert a22 == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_inv2_singular():
    with pytest.raises(Singular):
        inverse(1.0, 1.0, 1.0)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 3))
def test_inv2_round_trip(l11, l21, l22, bump):
    """m * inverse(m) = I within 1e-10 for well-conditioned PSD inputs."""
    # L L^T + bump*I is symmetric positive definite
    m = (l11 * l11 + l21 * l21 + bump, l21 * l22, l22 * l22 + bump)
    inv = inverse(*m)
    prod = np.array([[m[0], m[1]], [m[1], m[2]]]) @ \
        np.array([[inv[0], inv[1]], [inv[1], inv[2]]])
    assert np.max(np.abs(prod - np.eye(2))) < 1e-10


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(-5, 5), st.floats(-5, 5))
def test_quad_form_nonnegative_on_psd(a, b, c, v0, v1):
    """v M v^T >= 0 when M = L L^T."""
    assert quad(v0, v1, a * a + b * b, b * c, c * c) >= 0.0


@given(st.floats(0, 100))
def test_logdet2_scaled_identity(a):
    assert logdet2(Sym2(a, 0.0, a)) == pytest.approx(2.0 * math.log2(1.0 + a), rel=1e-12)


# ---------------------------------------------------------------------------
# simplexes


def test_simplex_normalizes_within_tolerance():
    s = Simplex3(0.2 + 1e-10, 0.3, 0.5)
    assert math.fsum(s) == pytest.approx(1.0, abs=1e-12)
    s2 = Simplex2(0.25, 0.75)
    assert (s2.w1, s2.w2) == (0.25, 0.75)


def test_simplex_rejects_negative_and_bad_sum():
    with pytest.raises(InvalidAllocation):
        Simplex2(-0.1, 1.1)
    with pytest.raises(InvalidAllocation, match="simplex sum"):
        Simplex2(0.4, 0.5)
    with pytest.raises(InvalidAllocation, match="simplex sum"):
        Simplex3(0.5, 0.5, 0.5)


@given(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0), st.floats(1e-9, 1.0))
def test_simplex3_exact_sum_after_construction(a, b, c):
    total = a + b + c
    s = Simplex3(a / total, b / total, c / total)
    assert abs(math.fsum(s) - 1.0) <= 1e-12
    assert all(w >= 0 for w in s)


def test_zero_weights_allowed():
    assert list(Simplex3(0.0, 0.0, 1.0)) == [0.0, 0.0, 1.0]
    assert list(Simplex2(1.0, 0.0)) == [1.0, 0.0]


# ---------------------------------------------------------------------------
# gains / powers / rate pairs


def test_channel_gains_vectors_recomputed():
    g = ChannelGains(c12=10.0, c13=1.0, c14=2.0, c23=3.0, c24=4.0, c34=5.0)
    assert g.g1 == (1.0, 3.0)
    assert g.g2 == (2.0, 4.0)
    assert g.h1 == (1.0, 2.0)
    assert g.h2 == (3.0, 4.0)


def test_channel_gains_validation():
    with pytest.raises(EvaluatorError):
        ChannelGains(c12=1.0, c13=-0.5, c14=1.0, c23=1.0, c24=1.0, c34=1.0)
    with pytest.raises(EvaluatorError):
        ChannelGains(c12=1.0, c13=math.inf, c14=1.0, c23=1.0, c24=1.0, c34=1.0)
    # only the conferencing links may be infinite
    g = ChannelGains(c12=math.inf, c13=1.0, c14=1.0, c23=1.0, c24=1.0, c34=math.inf)
    assert math.isinf(g.c12) and math.isinf(g.c34)
    # finite gains above GAIN_MAX, where c^2 * P could overflow, are rejected
    assert ChannelGains(*[GAIN_MAX] * 6).c13 == GAIN_MAX
    for name in ("c12", "c13", "c14", "c23", "c24", "c34"):
        for value in (1e200, GAIN_MAX * (1.0 + 1e-15), math.nan, -math.inf):
            gains = dict(c12=1.0, c13=1.0, c14=1.0, c23=1.0, c24=1.0, c34=1.0)
            gains[name] = value
            with pytest.raises(EvaluatorError, match=name):
                ChannelGains(**gains)


def test_power_budget_validation():
    with pytest.raises(EvaluatorError):
        PowerBudget(-1.0, 1.0)
    with pytest.raises(EvaluatorError):
        PowerBudget(math.inf, 1.0)
    assert PowerBudget(1.0, 2.0).p3 == 0.0
    assert PowerBudget(*[POWER_MAX] * 4).p4 == POWER_MAX
    for index in range(4):
        for value in (1e200, POWER_MAX * (1.0 + 1e-15), math.nan):
            powers = [1.0] * 4
            powers[index] = value
            with pytest.raises(EvaluatorError, match=f"p{index + 1}"):
                PowerBudget(*powers)


def test_rate_pair():
    pair = RatePair(1.5, 2.5)
    assert pair.total == 4.0
    assert tuple(pair) == (1.5, 2.5)
    with pytest.raises(EvaluatorError):
        RatePair(-0.1, 0.0)
