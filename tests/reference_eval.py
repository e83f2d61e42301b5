"""Independent straight-line reference evaluation of both schemes.

Deliberately shares no code with the package: plain dict inputs, numpy 2x2
matrix algebra, every rate expression written out once in evaluation order.
Used as the dual-implementation oracle for the achievable-rate evaluators.
"""

import math

import numpy as np

LN2 = math.log(2.0)


def _c(x):
    return math.log1p(x) / LN2


def _budget_covariances(g_other, clean, first):
    """Per-source powers as allotted: the first stream in phase, the clean
    stream with correlation 1 + 2*r, r the correlation coefficient of
    inv(I + s g_other g_other^T) at the first stream's power s."""
    s = first[0] + first[1]
    m = np.linalg.inv(np.eye(2) + s * np.outer(g_other, g_other))
    rho = 1.0 + 2.0 * m[0, 1] / math.sqrt(m[0, 0] * m[1, 1])
    amp_clean = np.sqrt(np.asarray(clean, dtype=float))
    amp_first = np.sqrt(np.asarray(first, dtype=float))
    corr = np.array([[1.0, rho], [rho, 1.0]])
    return np.outer(amp_clean, amp_clean) * corr, np.outer(amp_first, amp_first)


def tc_reference(g: dict, p: dict, a: dict, rdpc: bool = False, paper: bool = False,
                 user1_clean=None, weight=None) -> tuple[float, float]:
    """Transmitter-cooperation rate pair from the printed per-phase formulas.

    a carries tuples: lam (3), kappa, gamma, alpha, beta (2), mu, eta (3).
    The joint streams keep each source's allotted power by default, the diagonal
    baseline with ``rdpc``, and the paper's pooled duality construction with
    ``paper``.  Phase 3 encodes user 1's stream last (clean) where
    ``user1_clean``, else ``a["user1_clean"]`` when present, is true; None
    keeps the rule c13 + c23 > c14 + c24.  ``weight`` is accepted for a
    weight-dependent scheme and not read: these rates do not depend on it.
    """
    c12, c13, c14, c23, c24 = g["c12"], g["c13"], g["c14"], g["c23"], g["c24"]
    p1, p2 = p["p1"], p["p2"]
    lam, kap, gam = a["lam"], a["kappa"], a["gamma"]
    al, be, mu, eta = a["alpha"], a["beta"], a["mu"], a["eta"]
    if user1_clean is None:
        user1_clean = a.get("user1_clean")
    if user1_clean is None:
        user1_clean = c13 + c23 > c14 + c24

    p1_1 = kap[0] * p1 / lam[0] if kap[0] > 0 else 0.0
    p2_1 = gam[0] * p2 / lam[1] if gam[0] > 0 else 0.0
    p1_3 = kap[1] * p1 / lam[2] if kap[1] > 0 else 0.0
    p2_3 = gam[1] * p2 / lam[2] if gam[1] > 0 else 0.0

    r1_r1 = lam[0] * _c(c12 ** 2 * al[0] * p1_1)
    if c13 > c14:
        r1_1 = lam[0] * _c(c13 ** 2 * al[0] * p1_1)
        r2_1 = lam[0] * _c(c14 ** 2 * al[1] * p1_1 / (1 + c14 ** 2 * al[0] * p1_1))
    else:
        r1_1 = lam[0] * _c(c13 ** 2 * al[0] * p1_1 / (1 + c13 ** 2 * al[1] * p1_1))
        r2_1 = lam[0] * _c(c14 ** 2 * al[1] * p1_1)

    r2_r1 = lam[1] * _c(c12 ** 2 * be[0] * p2_1)
    if c24 > c23:
        r2_2 = lam[1] * _c(c24 ** 2 * be[0] * p2_1)
        r1_2 = lam[1] * _c(c23 ** 2 * be[1] * p2_1 / (1 + c23 ** 2 * be[0] * p2_1))
    else:
        r2_2 = lam[1] * _c(c24 ** 2 * be[0] * p2_1 / (1 + c24 ** 2 * be[1] * p2_1))
        r1_2 = lam[1] * _c(c23 ** 2 * be[1] * p2_1)

    if lam[2] == 0.0:
        r1_3 = r2_3 = r1_d = r2_d = 0.0
    else:
        g1 = np.array([c13, c23])
        g2 = np.array([c14, c24])
        h1 = np.array([c13, c14])
        h2 = np.array([c23, c24])
        s_w = mu[1] * p1_3 + eta[2] * p2_3
        s_v = mu[2] * p1_3 + eta[1] * p2_3
        iw3 = c13 ** 2 * mu[0] * p1_3
        iw4 = c14 ** 2 * mu[0] * p1_3
        iv4 = c24 ** 2 * eta[0] * p2_3
        iv3 = c23 ** 2 * eta[0] * p2_3
        if user1_clean:
            if rdpc:
                s1 = np.diag([mu[1] * p1_3, eta[2] * p2_3])
                s2 = np.diag([mu[2] * p1_3, eta[1] * p2_3])
            elif not paper:
                s1, s2 = _budget_covariances(g2, (mu[1] * p1_3, eta[2] * p2_3),
                                             (mu[2] * p1_3, eta[1] * p2_3))
            else:
                b1 = np.eye(2) + np.outer(h2, h2) * s_v
                s1 = np.linalg.inv(b1) * s_w
                s2 = (1 + h2 @ s1 @ h2) * s_v * np.eye(2)
            r1_3 = lam[2] * _c((g1 @ s1 @ g1) / (1 + iw3))
            r1_d = lam[2] * _c(iw3)
            r2_3 = lam[2] * _c((g2 @ s2 @ g2) / (1 + g2 @ s1 @ g2 + iw4 + iv4))
            r2_d = lam[2] * _c(iv4 / (1 + g2 @ s1 @ g2 + iw4))
        else:
            if rdpc:
                s1p = np.diag([mu[2] * p1_3, eta[1] * p2_3])
                s2p = np.diag([mu[1] * p1_3, eta[2] * p2_3])
            elif not paper:
                s1p, s2p = _budget_covariances(g1, (mu[2] * p1_3, eta[1] * p2_3),
                                               (mu[1] * p1_3, eta[2] * p2_3))
            else:
                b1p = np.eye(2) + np.outer(h1, h1) * s_w
                s1p = np.linalg.inv(b1p) * s_v
                s2p = (1 + h1 @ s1p @ h1) * s_w * np.eye(2)
            r1_3 = lam[2] * _c((g1 @ s2p @ g1) / (1 + g1 @ s1p @ g1 + iw3 + iv3))
            r1_d = lam[2] * _c(iw3 / (1 + g1 @ s1p @ g1 + iv3))
            r2_3 = lam[2] * _c((g2 @ s1p @ g2) / (1 + iv4))
            r2_d = lam[2] * _c(iv4)

    return (r1_d + min(r1_r1, r1_1 + r1_2 + r1_3),
            r2_d + min(r2_r1, r2_1 + r2_2 + r2_3))


def rc_reference(g: dict, p: dict, a: dict, weight: float = 1.0) -> tuple[float, float]:
    """Receiver-cooperation rate pair from the printed per-phase formulas.

    a carries tuples: lam, mu, eta (3), alpha, beta (2).
    """
    c13, c14, c23, c24, c34 = g["c13"], g["c14"], g["c23"], g["c24"], g["c34"]
    p1, p2, p3, p4 = p["p1"], p["p2"], p["p3"], p["p4"]
    lam, mu, eta, al, be = a["lam"], a["mu"], a["eta"], a["alpha"], a["beta"]

    p1_1 = mu[0] * p1 / lam[0] if mu[0] > 0 else 0.0
    p2_1 = eta[0] * p2 / lam[0] if eta[0] > 0 else 0.0
    p1_2 = mu[1] * p1 / lam[1] if mu[1] > 0 else 0.0
    p2_2 = eta[1] * p2 / lam[1] if eta[1] > 0 else 0.0
    p1_3 = mu[2] * p1 / lam[2] if mu[2] > 0 else 0.0
    p2_3 = eta[2] * p2 / lam[2] if eta[2] > 0 else 0.0
    p4_1 = al[0] * p4 / lam[1] if lam[1] > 0 else 0.0
    p4_2 = al[1] * p4 / lam[1] if lam[1] > 0 else 0.0
    p3_1 = be[0] * p3 / lam[2] if lam[2] > 0 else 0.0
    p3_2 = be[1] * p3 / lam[2] if lam[2] > 0 else 0.0

    d2 = 1 + c13 ** 2 * p1_2 + c23 ** 2 * p2_2
    r1_2r2 = lam[1] * _c(c34 ** 2 * p4_2 / (d2 + c34 ** 2 * p4_1))
    r1_s = lam[1] * _c(c34 ** 2 * p4_1 / d2)
    r2_2r1 = lam[1] * _c(c23 ** 2 * p2_2 / (1 + c13 ** 2 * p1_2))
    r1_d = lam[1] * _c(c13 ** 2 * p1_2)

    d3 = 1 + c14 ** 2 * p1_3 + c24 ** 2 * p2_3
    r2_2r2 = lam[2] * _c(c34 ** 2 * p3_2 / (d3 + c34 ** 2 * p3_1))
    r2_s = lam[2] * _c(c34 ** 2 * p3_1 / d3)
    r1_2r1 = lam[2] * _c(c14 ** 2 * p1_3 / (1 + c24 ** 2 * p2_3))
    r2_d = lam[2] * _c(c24 ** 2 * p2_3)

    if lam[0] > 0.0:
        g1 = np.array([c13, c23])
        g2 = np.array([c14, c24])
        sx = np.diag([p1_1, p2_1])
        a3 = 1 + g1 @ sx @ g1
        a4 = 1 + g2 @ sx @ g2
        cx = g1 @ sx @ g2
        num = a3 * a4 - cx * cx

        def noise(rs, term):
            x = rs / lam[0]
            if x <= 0:
                return math.inf
            if x > 512:
                return 0.0
            grow = math.expm1(x * LN2)  # 2**x - 1 without cancellation
            if grow == 0.0:
                return math.inf
            return float(num) / float(term) / grow

        s1 = noise(r2_s, a4)
        s2 = noise(r1_s, a3)
        z1 = 0.0 if math.isinf(s1) else 1.0 / (1.0 + s1)
        z2 = 0.0 if math.isinf(s2) else 1.0 / (1.0 + s2)
        c13v = np.array([c13, math.sqrt(z2) * c14])
        c23v = np.array([c23, math.sqrt(z2) * c24])
        c14v = np.array([math.sqrt(z1) * c13, c14])
        c24v = np.array([math.sqrt(z1) * c23, c24])
        snr1 = np.outer(c13v, c13v) * p1_1
        inr1 = np.outer(c23v, c23v) * p2_1
        snr2 = np.outer(c24v, c24v) * p2_1
        inr2 = np.outer(c14v, c14v) * p1_1

        def ld(m):
            return math.log2(np.linalg.det(np.eye(2) + m))

        # Each receiver on its own: interference heard at least as well as
        # at its intended receiver is strong and decoded (the receiver's
        # multiple-access region); weaker interference is treated as noise.
        if c23v @ c23v >= c24v @ c24v:
            a1, sum3 = ld(snr1), ld(snr1 + inr1)
        else:
            a1, sum3 = ld(snr1 + inr1) - ld(inr1), math.inf
        if c14v @ c14v >= c13v @ c13v:
            a2, sum4 = ld(snr2), ld(snr2 + inr2)
        else:
            a2, sum4 = ld(snr2 + inr2) - ld(inr2), math.inf
        cap1, cap2, both = lam[0] * a1, lam[0] * a2, lam[0] * min(sum3, sum4)
        x1 = min(cap1, both)
        corner_a = (x1, min(cap2, max(both - x1, 0.0)))
        y2 = min(cap2, both)
        corner_b = (min(cap1, max(both - y2, 0.0)), y2)
        r1_r1, r2_r1 = corner_a if weight <= 1.0 else corner_b
    else:
        r1_r1 = r2_r1 = 0.0

    return (r1_d + r1_r1 + min(r1_2r1, r1_2r2),
            r2_d + r2_r1 + min(r2_2r1, r2_2r2))
