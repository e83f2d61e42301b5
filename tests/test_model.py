"""Domain types and the 2x2 toolkit."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coopic.model import (
    BURST_POWER_MAX,
    GAIN_MAX,
    POWER_MAX,
    ChannelGains,
    EvaluatorError,
    InvalidAllocation,
    NegativeSnr,
    PowerBudget,
    RatePair,
    RcAllocation,
    Simplex2,
    Simplex3,
    TcAllocation,
    cap,
    det_pair,
    inverse,
    phase_power,
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
# quad / det_pair / inverse


def test_quad_form_examples():
    assert quad(1.0, 0.0, 1.0, 0.0, 1.0) == 1.0
    assert quad(1.0, SQRT2, 5.0, 0.0, 5.0) == pytest.approx(15.0, rel=1e-15)
    assert quad(1.0, 1.0, 1.0, 0.5, 1.0) == pytest.approx(3.0, rel=1e-15)


def test_quad_form_clamps_tiny_negative():
    assert quad(1.0, 0.0, -5e-11, 0.0, 1.0) == 0.0


def matrix_form(u, p, v, q):
    """(1 + a11)(1 + a22) - a12^2 for A = p u u^T + q v v^T, the cancelling form."""
    a11 = p * u[0] * u[0] + q * v[0] * v[0]
    a12 = p * u[0] * u[1] + q * v[0] * v[1]
    a22 = p * u[1] * u[1] + q * v[1] * v[1]
    return (1.0 + a11) * (1.0 + a22) - a12 * a12


def exact_det(u, p, v, q) -> float:
    """det(I + p u u^T + q v v^T) in rational arithmetic, rounded once."""
    u0, u1, v0, v1, p, q = map(Fraction, (*u, *v, p, q))
    a11, a12, a22 = p * u0 * u0 + q * v0 * v0, p * u0 * u1 + q * v0 * v1, p * u1 * u1 + q * v1 * v1
    return float((1 + a11) * (1 + a22) - a12 * a12)


def test_det_pair_examples():
    assert det_pair((0.0, 0.0), 0.0, (0.0, 0.0), 0.0) == 1.0
    assert det_pair((1.0, 0.0), 1.0, (0.0, 1.0), 3.0) == 8.0
    # g1 g1^T * 5 + g2 g2^T * 5 for the reference channel: det(I + M) = 56
    assert det_pair((1.0, SQRT2), 5.0, (SQRT2, 1.0), 5.0) == pytest.approx(56.0, rel=1e-15)


@pytest.mark.parametrize("u, p, v, q", [
    # rank one at large gain: the BC sum bound's endpoint on a channel where
    # ``coopic bounds`` used to fail
    ((3247826.058790772, 3368229.9878108758), 3085.426147953607, (0.25, 1e5), 0.0),
    # near-parallel pair at large gain
    ((1e8, 1e8), 1e4, (1e8, 1e8 * (1.0 + 2.0 ** -40)), 1e4),
], ids=["rank_one", "near_parallel"])
def test_det_pair_stays_at_least_one_where_matrix_form_cancels(u, p, v, q):
    assert matrix_form(u, p, v, q) <= 0.0
    got, want = det_pair(u, p, v, q), exact_det(u, p, v, q)
    assert got >= 1.0
    # Only the cross term x = u0 v1 - u1 v0 cancels; its two products round
    # by eps/2 each, which moves p q x^2 by at most about
    # 2 p q |x| eps (|u0 v1| + |u1 v0|).  Every other term is accurate to eps.
    eps = 2.0 ** -52
    x = u[0] * v[1] - u[1] * v[0]
    slack = 2.0 * p * q * abs(x) * eps * (abs(u[0] * v[1]) + abs(u[1] * v[0]))
    assert abs(got - want) <= slack + 4.0 * eps * want


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 10),
       st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 10))
def test_det_pair_matches_numpy_det(u0, u1, p, v0, v1, q):
    """Well-conditioned draws agree with np.linalg.det(I + p u u^T + q v v^T)."""
    u, v = np.array([u0, u1]), np.array([v0, v1])
    want = np.linalg.det(np.eye(2) + p * np.outer(u, u) + q * np.outer(v, v))
    got = det_pair((u0, u1), p, (v0, v1), q)
    assert got >= 1.0
    assert got == pytest.approx(want, rel=1e-12)


def test_inv2_examples():
    assert inverse((0.0, 0.0), 0.0) == (1.0, -0.0, 1.0)
    assert inverse((1.0, 0.0), 1.0) == (0.5, -0.0, 1.0)
    a11, a12, a22 = inverse((1.0, 1.0), 1.0)  # (I + [[1, 1], [1, 1]])^-1
    assert a11 == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert a12 == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert a22 == pytest.approx(2.0 / 3.0, rel=1e-15)


def exact_inverse(u, s):
    """Entries of (I + s u u^T)^-1 by the adjugate in rational arithmetic, rounded once."""
    u0, u1, s = map(Fraction, (*u, s))
    m11, m12, m22 = 1 + s * u0 * u0, s * u0 * u1, 1 + s * u1 * u1
    d = m11 * m22 - m12 * m12
    return (float(m22 / d), float(-m12 / d), float(m11 / d))


def test_inv2_large_gain():
    """Exact where the adjugate (1 + s u0^2)(1 + s u1^2) - (s u0 u1)^2 cancels to <= 0."""
    for u, s in (((1e8, 1e8), 1e4), ((3e7, 5e7), 1e3),
                 ((9400961.257952627, 36382790.555757426), 1e3)):
        a11, a12, a22 = 1.0 + s * u[0] * u[0], s * u[0] * u[1], 1.0 + s * u[1] * u[1]
        assert a11 * a22 - a12 * a12 <= 0.0
        for got, want in zip(inverse(u, s), exact_inverse(u, s)):
            assert got == pytest.approx(want, rel=1e-15)


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 10))
def test_inv2_round_trip(u0, u1, s):
    """(I + s u u^T) * inverse(u, s) = I within 1e-10."""
    inv = inverse((u0, u1), s)
    m = np.eye(2) + s * np.outer((u0, u1), (u0, u1))
    prod = m @ np.array([[inv[0], inv[1]], [inv[1], inv[2]]])
    assert np.max(np.abs(prod - np.eye(2))) < 1e-10


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(-5, 5), st.floats(-5, 5))
def test_quad_form_nonnegative_on_psd(a, b, c, v0, v1):
    """v M v^T >= 0 when M = L L^T."""
    assert quad(v0, v1, a * a + b * b, b * c, c * c) >= 0.0


@given(st.floats(0, 100))
def test_det_pair_scaled_identity(a):
    """a I = a e1 e1^T + a e2 e2^T, so det(I + a I) = (1 + a)^2."""
    assert math.log2(det_pair((1.0, 0.0), a, (0.0, 1.0), a)) == pytest.approx(
        2.0 * math.log2(1.0 + a), rel=1e-12)


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


def test_simplex_rejects_weights_whose_sum_overflows():
    # Their fsum overflows; it raised fsum's OverflowError, not an EvaluatorError.
    with pytest.raises(InvalidAllocation, match="simplex sum inf"):
        Simplex2(1e308, 1e308)
    with pytest.raises(InvalidAllocation, match="simplex sum inf"):
        Simplex3(1e308, 1e308, 0.0)


def test_simplex_is_an_immutable_value():
    s = Simplex3(0.2, 0.3, 0.5)
    assert repr(s) == "Simplex3(w1=0.2, w2=0.3, w3=0.5)"
    assert s == Simplex3(0.2, 0.3, 0.5) and hash(s) == hash(Simplex3(0.2, 0.3, 0.5))
    assert Simplex2(1.0, 0.0) != Simplex3(1.0, 0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.w1 = 1.0


@given(st.floats(1e-9, 1.0), st.floats(1e-9, 1.0), st.floats(1e-9, 1.0))
def test_simplex3_exact_sum_after_construction(a, b, c):
    total = a + b + c
    s = Simplex3(a / total, b / total, c / total)
    assert abs(math.fsum(s) - 1.0) <= 1e-12
    assert all(w >= 0 for w in s)


def test_zero_weights_allowed():
    assert list(Simplex3(0.0, 0.0, 1.0)) == [0.0, 0.0, 1.0]
    assert list(Simplex2(1.0, 0.0)) == [1.0, 0.0]


@pytest.mark.parametrize("cls, field, value", [
    (TcAllocation, "mu", [100.0, 0.0, 0.0]),
    (TcAllocation, "eta", (100.0, 0.0, 0.0)),
    (TcAllocation, "lam", Simplex2(0.5, 0.5)),
    (RcAllocation, "mu", [50.0, 0.0, 0.0]),
    (RcAllocation, "alpha", Simplex3(1.0, 0.0, 0.0)),
    (RcAllocation, "beta", None),
], ids=["tc-list", "tc-tuple", "tc-simplex2", "rc-list", "rc-simplex3", "rc-none"])
def test_allocation_rejects_a_field_that_is_not_its_simplex(cls, field, value):
    # A list block skipped the simplex checks: at the reference channel a
    # phase-3-only TC allocation with mu = eta = [100, 0, 0] gave r2 = 8.97
    # bits, above the 5.81-bit broadcast sum bound, and a phase-1-only RC
    # one with mu = eta = [50, 0, 0] gave r1 = 7.97.
    # A Simplex2 in a Simplex3 field raised a plain ValueError when evaluated.
    s2, s3 = Simplex2(0.5, 0.5), Simplex3(0.2, 0.3, 0.5)
    blocks = (dict(lam=s3, kappa=s2, gamma=s2, alpha=s2, beta=s2, mu=s3, eta=s3)
              if cls is TcAllocation else dict(lam=s3, mu=s3, eta=s3, alpha=s2, beta=s2))
    cls(**blocks)
    with pytest.raises(InvalidAllocation, match=f"^{field} must be a Simplex"):
        cls(**{**blocks, field: value})


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


def test_phase_power_burst_cap():
    assert phase_power(0.0, 5.0, 0.0, "x") == 0.0
    assert phase_power(0.5, 4.0, 0.25, "x") == 8.0
    assert phase_power(1.0, BURST_POWER_MAX, 1.0, "x") == BURST_POWER_MAX
    with pytest.raises(InvalidAllocation, match="zero-duration"):
        phase_power(0.5, 4.0, 0.0, "x")
    # a positive but tiny duration would burst past the cap (or overflow to inf)
    for duration in (5e-324, 1e-300, 1e-93):
        with pytest.raises(InvalidAllocation, match="kappa1: burst power"):
            phase_power(0.5, POWER_MAX, duration, "kappa1")
    # at the cap a burst SNR, and the product of two, stays inside the float range
    assert math.isfinite((GAIN_MAX ** 2 * BURST_POWER_MAX) ** 2)


def test_rate_pair():
    pair = RatePair(1.5, 2.5)
    assert pair.total == 4.0
    assert tuple(pair) == (1.5, 2.5)
    with pytest.raises(EvaluatorError):
        RatePair(-0.1, 0.0)
