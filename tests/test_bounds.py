"""Outer bounds and baselines."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_gains, random_powers, tie_heavy_points, zero_cooperation_channels
from coopic.model import (GAIN_MAX, POWER_MAX, ChannelGains, EvaluatorError, NegativeSnr,
                          PowerBudget, cap, det_pair)
from coopic import bounds, frontier

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


@pytest.mark.parametrize("user", [True, False, 1.0, 2.0])
def test_cutset_rejects_a_user_that_is_not_an_int(ref_gains, ref_powers, user):
    with pytest.raises(ValueError, match="user must be 1 or 2"):
        bounds.relay_cutset_bound(ref_gains, ref_powers, user)


def test_cutset_rejects_an_unknown_cooperation(ref_gains, ref_powers):
    with pytest.raises(ValueError, match="cooperation must be 'tx' or 'rx'"):
        bounds.relay_cutset_bound(ref_gains, ref_powers, 1, "both")


def _cutset_triples(g, p):
    """(sd, sr, rd, p_src, p_rel) of each (cooperation, user), as relay_cutset_bound maps them."""
    return {("tx", 1): (g.c13, g.c12, g.c23, p.p1, p.p2),
            ("tx", 2): (g.c24, g.c12, g.c14, p.p2, p.p1),
            ("rx", 1): (g.c13, g.c14, g.c34, p.p1, p.p4),
            ("rx", 2): (g.c24, g.c23, g.c34, p.p2, p.p3)}


def _one_shot_grid(sd, sr, rd, p_src, p_rel):
    """(rho, value) of the best point of the 81^3 grid, broadcast in one shot."""
    n = 81
    ln2 = math.log(2.0)
    rho = np.linspace(0.0, 1.0, n).reshape(-1, 1, 1)
    alpha = np.linspace(0.0, 1.0, n).reshape(1, -1, 1)
    e = np.linspace(0.0, 1.0, n).reshape(1, 1, -1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a_safe = np.maximum(alpha, 1e-300)
        b_safe = np.maximum(1.0 - alpha, 1e-300)
        pa = e * p_src / a_safe
        pb = (1.0 - e) * p_src / b_safe
        pr = p_rel / b_safe
        listen1 = np.where(alpha > 0.0, alpha * np.log1p((sr * sr + sd * sd) * pa) / ln2, 0.0)
        listen2 = np.where(alpha > 0.0, alpha * np.log1p(sd * sd * pa) / ln2, 0.0)
        fwd1 = np.where(alpha < 1.0,
                        (1.0 - alpha) * np.log1p((1.0 - rho) * sd * sd * pb) / ln2, 0.0)
        phi = np.sqrt(rho * sd * sd * rd * rd * pb * pr)
        fwd2 = np.where(alpha < 1.0,
                        (1.0 - alpha) * np.log1p(sd * sd * pb + rd * rd * pr + 2.0 * phi) / ln2,
                        0.0)
        grid_val = np.minimum(listen1 + fwd1, listen2 + fwd2)
    grid_val = np.nan_to_num(grid_val, nan=-math.inf)
    i = int(np.argmax(grid_val))
    return float(rho.ravel()[i // (n * n)]), float(grid_val.ravel()[i])


def _grid_golden_cutset(sd, sr, rd, p_src, p_rel):
    """Slow reference: the 81^3 grid, its +-1.5-cell correlation window and a
    three-level golden-section search (rho, then alpha, then e) in that window."""
    if p_src == 0.0:
        return 0.0
    n = 81
    rho_best, best = _one_shot_grid(sd, sr, rd, p_src, p_rel)
    lo = max(0.0, rho_best - 1.5 / (n - 1))
    hi = min(1.0, rho_best + 1.5 / (n - 1))

    def cuts(r, a, s):
        lt = ft = lf = ff = 0.0
        if a > 0.0 and s > 0.0:
            pa = s * p_src / a
            lt = a * cap((sr * sr + sd * sd) * pa)
            ft = a * cap(sd * sd * pa)
        if a < 1.0:
            pb = (1.0 - s) * p_src / (1.0 - a)
            pr = p_rel / (1.0 - a)
            lf = (1.0 - a) * cap((1.0 - r) * sd * sd * pb)
            ff = (1.0 - a) * cap(sd * sd * pb + rd * rd * pr
                                 + 2.0 * math.sqrt(r * sd * sd * rd * rd * pb * pr))
        return min(lt + lf, ft + ff)

    def over_alpha_energy(r):
        return bounds._golden_max(
            lambda a: bounds._golden_max(lambda s: cuts(r, a, s), 0.0, 1.0, iters=40),
            0.0, 1.0, iters=40)

    return max(best, bounds._golden_max(over_alpha_energy, lo, hi, iters=30))


def test_cutset_matches_grid_golden_reference():
    rng = np.random.default_rng(77)
    configs = [(random_gains(rng), random_powers(rng)) for _ in range(20)]
    ref = gains_with()
    p = PowerBudget(5.0, 5.0, 5.0, 5.0)
    configs += [
        (gains_with(c13=0.0, c24=0.0), p),                # sd = 0
        (gains_with(c12=0.0, c14=0.0, c23=0.0), p),       # sr = 0 (both cooperation types)
        (gains_with(c23=0.0, c14=0.0, c34=0.0), p),       # rd = 0 (both cooperation types)
        (ref, PowerBudget(5.0, 0.0, 5.0, 0.0)),           # p_rel = 0 for user 1
        (ref, PowerBudget(0.0, 5.0, 0.0, 5.0)),           # p_rel = 0 for user 2
        (gains_with(c12=1e6), p),
    ]
    for k, (g, p) in enumerate(configs):
        # Random draws alternate the cooperation type; degenerate ones take all four.
        for (cooperation, user), triple in _cutset_triples(g, p).items():
            if k < 20 and cooperation != ("tx", "rx")[k % 2]:
                continue
            got = bounds.relay_cutset_bound(g, p, user, cooperation)
            want = _grid_golden_cutset(*triple)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (g, p, cooperation, user)



_GRID_EDGES = [
    (0.0, 2.0, 3.0, 5.0, 5.0),              # sd = 0: flat in rho, row 0 must win
    (0.0, 2.0, 0.0, 5.0, 5.0),              # sd = rd = 0: every column ties at 0
    (0.0, 2.0, 3.0, 5.0, 0.0),              # sd = p_rel = 0: every column ties at 0
    (1.0, 2.0, 0.0, 5.0, 5.0),              # rd = 0: cut 2 flat in rho
    (1.0, 0.0, 3.0, 5.0, 5.0),              # sr = 0
    (1.0, 2.0, 3.0, 5.0, 0.0),              # p_rel = 0
    (1e-6, 1e-6, 1e-6, 5.0, 5.0),
    (1e-6, 1e-9, 1e-8, 1.0, 1.0),           # listen gap below an ulp
    (1.0, 2.0, 3.0, POWER_MAX, POWER_MAX),
    (GAIN_MAX, GAIN_MAX, GAIN_MAX, POWER_MAX, POWER_MAX),
    (GAIN_MAX, GAIN_MAX, GAIN_MAX, 1e-9, 1e-9),
    (1.0, 0.5, 3.0, 5.0, 5.0),              # the best column's cuts cross below rho = 0
    (0.1, 1e8, 1.0, 5.0, 5.0),              # and beyond rho = 1
]


def _grid_cases():
    """(sd, sr, rd, p_src, p_rel) triples: 300 seeded draws and the edge cases."""
    rng = np.random.default_rng(22)
    cases = [t for _ in range(75)
             for t in _cutset_triples(random_gains(rng), random_powers(rng)).values()]
    return cases + _GRID_EDGES


@functools.cache
def _one_shot_bits(case):
    return tuple(float.hex(v) for v in _one_shot_grid(*case))


def _grid_mismatches(cases):
    """The cases whose grid (rho, value) differs from the one-shot grid's in any bit."""
    return [c for c in cases
            if tuple(float.hex(v) for v in bounds._cutset_grid(*c)) != _one_shot_bits(c)]


def test_cutset_grid_is_bit_identical_to_one_shot_grid():
    assert _grid_mismatches(_grid_cases()) == []


_POOL = Path(__file__).resolve().parent.parent / "bench" / "bounds_reference.json"


@functools.cache
def _pool_configs():
    """(gains, powers) of the 48 configurations of the benchmark's bounds pool."""
    return tuple((ChannelGains(*e["gains"]), PowerBudget(*e["powers"]))
                 for e in json.loads(_POOL.read_text())["pool"])


def _golden_max_of_three(f, lo, hi, iters):
    """The golden-section search as it took max(best, fc, fd) at every step."""
    a, b = lo, hi
    c = b - bounds._GOLDEN * (b - a)
    d = a + bounds._GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    best = max(fc, fd)
    for _ in range(iters):
        if b - a < 1e-12:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - bounds._GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + bounds._GOLDEN * (b - a)
            fd = f(d)
        best = max(best, fc, fd)
    return best


def _rho_max_per_call(sd2, sr2, rd2, p_src, p_rel, alpha, e, lo, hi):
    """``_cutset_over_rho(...)(e)`` with every term computed in the call."""
    log1p, ln2 = math.log1p, math.log(2.0)
    l1 = l2 = 0.0
    if alpha > 0.0 and e > 0.0:
        pa = e * p_src / alpha
        l1 = alpha * (log1p((sr2 + sd2) * pa) / ln2)
        l2 = alpha * (log1p(sd2 * pa) / ln2)
    if alpha >= 1.0:
        return min(l1, l2)
    f = 1.0 - alpha
    a = sd2 * ((1.0 - e) * p_src / f)
    b = rd2 * (p_rel / f)
    m = math.sqrt(a * b)
    cut2 = l2 + f * (log1p(a + b + 2.0 * m * math.sqrt(hi)) / ln2)
    if l1 + f * (log1p((1.0 - hi) * a) / ln2) >= cut2:
        return cut2
    cut1 = l1 + f * (log1p((1.0 - lo) * a) / ln2)
    if cut1 <= l2 + f * (log1p(a + b + 2.0 * m * math.sqrt(lo)) / ln2):
        return cut1
    tm1 = math.expm1((l1 - l2) / f * ln2)
    c = b - tm1 * (1.0 + a)
    if c >= 0.0:
        u = 0.0
    else:
        denom = 2.0 * m + math.sqrt(max(0.0, 4.0 * m * m - 4.0 * (1.0 + tm1) * a * c))
        u = -2.0 * c / denom if denom > 0.0 else math.inf
    u = min(max(u, math.sqrt(lo)), math.sqrt(hi))
    rho = u * u
    return min(l1 + f * (log1p((1.0 - rho) * a) / ln2),
               l2 + f * (log1p(a + b + 2.0 * m * math.sqrt(rho)) / ln2))


def _nested_golden_cutset(sd, sr, rd, p_src, p_rel):
    """The grid's best and the nested search over (alpha, e), written as
    lambdas over ``_rho_max_per_call`` (every term computed per evaluation)
    and the three-way max search: ``_relay_cutset`` at finite gains and
    p_src > 0."""
    rho_best, best = bounds._cutset_grid(sd, sr, rd, p_src, p_rel)
    lo = max(0.0, rho_best - 1.5 / 80)
    hi = min(1.0, rho_best + 1.5 / 80)
    sd2, sr2, rd2 = sd * sd, sr * sr, rd * rd

    def over_energy(alpha):
        return _golden_max_of_three(
            lambda e: _rho_max_per_call(sd2, sr2, rd2, p_src, p_rel, alpha, e, lo, hi),
            0.0, 1.0, 40)

    return max(best, _golden_max_of_three(over_energy, 0.0, 1.0, 40))


def test_cutset_search_equals_the_nested_golden_composition():
    # The per-listen objective and the search's one comparison per step give
    # the composition's floats exactly, on every pool triple and edge case,
    # and so does the per-listen objective at the alpha = 1 edge and inside.
    triples = [t for g, p in _pool_configs() for t in _cutset_triples(g, p).values()]
    for triple in triples + _GRID_EDGES:
        assert bounds._relay_cutset(*triple).hex() == _nested_golden_cutset(*triple).hex(), \
            triple
    for alpha in (0.0, 0.3, 1.0 - 1e-12, 1.0):
        for e in (0.0, 0.6, 1.0):
            args = (1.0, 4.0, 9.0, 5.0, 5.0, alpha, e, 0.2, 0.3)
            got = bounds._cutset_over_rho(1.0, 4.0, 9.0, 5.0, 5.0, alpha, 0.2, 0.3)(e)
            assert got.hex() == _rho_max_per_call(*args).hex(), args


@pytest.mark.parametrize("f", [
    lambda x: -(x - 0.3) * (x - 0.3),
    lambda x: math.nan if x > 0.5 else x,   # NaN late: never best
    lambda x: math.nan if x < 0.5 else x,   # NaN first: best for good
    lambda x: -0.0 if x < 0.4 else 0.0,     # equal zeros: the first stays
    lambda x: 0.0 if x < 0.4 else -0.0,
    lambda x: 1.0,
])
def test_golden_max_keeps_the_first_of_the_three_way_max(f):
    assert repr(bounds._golden_max(f, 0.0, 1.0, 40)) == repr(_golden_max_of_three(f, 0.0, 1.0, 40))


def _dispatch_digest():
    """SHA-256 of the broadcast-region vertices of every pool configuration
    and of the hull of a tie-heavy point set, by repr."""
    vertices = [bounds.bc_region_vertices(g, p.p1 + p.p2) for g, p in _pool_configs()]
    tied = frontier.hull(tie_heavy_points(np.random.default_rng(4), 3000))
    return hashlib.sha256(repr((vertices, tied)).encode()).hexdigest()


_GRID_PROBE = """
import sys
import numpy
print("numpy started", flush=True)
sys.path.insert(0, sys.argv[1])
import test_bounds
cases = test_bounds._grid_cases()
edges = test_bounds._GRID_EDGES
print(test_bounds._dispatch_digest())
print(test_bounds._grid_mismatches(cases[:-len(edges):5] + edges))
"""


def test_cutset_grid_is_bit_identical_at_baseline_cpu_dispatch():
    # The grid and the one-shot grid must pick the same numpy loops on every CPU:
    # every fifth draw and the edge cases, with every SIMD target numpy
    # dispatches on this host switched off (in the child only).  The
    # broadcast region and the hull (its stable sort and clamps) must give
    # the child the bits they give here.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    present = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if not present:
        pytest.skip("numpy dispatches no CPU feature on this host")
    tests = Path(__file__).resolve().parent
    src = str(Path(bounds.__file__).resolve().parent.parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(present),
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    lowered = subprocess.run([sys.executable, "-c", _GRID_PROBE, str(tests)], env=env,
                             capture_output=True, text=True)
    if not lowered.stdout.startswith("numpy started"):
        pytest.skip(f"the interpreter with {present} disabled cannot start: {lowered.stderr}")
    assert lowered.returncode == 0, lowered.stderr
    assert lowered.stdout.splitlines()[-2:] == [_dispatch_digest(), "[]"]


@pytest.mark.parametrize("estimate", ["row 0", "row 79", "random rows"])
def test_cutset_grid_is_exact_whatever_the_crossing_estimate(monkeypatch, estimate):
    # The bound on the skipped rows, not the crossing estimate, makes the
    # grid exact: with every column's crossing put at row 0, at the last
    # pair of rows or at random rows it still equals the one-shot grid.
    n = bounds._GRID
    rng = np.random.default_rng(9)
    rows = {"row 0": lambda: np.zeros((n, n), np.intp),
            "row 79": lambda: np.full((n, n), n - 2, np.intp),
            "random rows": lambda: rng.integers(0, n - 1, size=(n, n))}[estimate]
    monkeypatch.setattr(bounds, "_cutset_crossing_rows", lambda *terms: rows())
    cases = _grid_cases()
    assert _grid_mismatches(cases[:-len(_GRID_EDGES):5] + _GRID_EDGES) == []


def test_cutset_grid_evaluates_few_columns_in_full(monkeypatch, ref_gains, ref_powers):
    # The grid evaluates two rows of every column, then every row of the
    # columns its bound cannot rule out: at the reference triple the best
    # column and at most two more.
    n = bounds._GRID
    cuts, shapes = bounds._cuts, []

    def counting(*args):
        cut1, cut2 = cuts(*args)
        shapes.append(cut1.shape)
        return cut1, cut2

    monkeypatch.setattr(bounds, "_cuts", counting)
    bounds._cutset_grid(*_cutset_triples(ref_gains, ref_powers)[("tx", 1)])
    assert shapes[0] == (2, n, n)
    assert all(rows == n for rows, _ in shapes[1:])
    assert 1 <= sum(columns for _, columns in shapes[1:]) <= 3


def _peak_bytes(f, *args):
    """tracemalloc's peak over one call of f, after a warm-up call."""
    f(*args)
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cutset_bound_allocates_no_full_grid(ref_gains, ref_powers):
    # An 81^3 float64 temporary alone is 4.25 MB.  The grid keeps a few
    # 81^2 column arrays alive; one that ties everywhere (sd = rd = 0) is
    # evaluated in full, in chunks.
    assert _peak_bytes(bounds.relay_cutset_bound, ref_gains, ref_powers, 1) < 4e6
    assert _peak_bytes(bounds._cutset_grid,
                       *_cutset_triples(ref_gains, ref_powers)[("tx", 1)]) < 1e6
    assert _peak_bytes(bounds._cutset_grid, 0.0, 2.0, 0.0, 5.0, 5.0) < 4e6


def _scan_rho_max(sd2, sr2, rd2, p_src, p_rel, alpha, e, lo, hi):
    """max over rho in [lo, hi] of min(cut 1, cut 2) by dense scans: 10^4 points
    plus both endpoints, then three zooms onto the best point's neighbours (the
    min rises then falls in rho, so the maximum stays inside each zoom)."""
    ln2 = math.log(2.0)
    l1 = l2 = 0.0
    if e > 0.0:
        pa = e * p_src / alpha
        l1 = alpha * math.log1p((sr2 + sd2) * pa) / ln2
        l2 = alpha * math.log1p(sd2 * pa) / ln2
    f = 1.0 - alpha
    a = sd2 * (1.0 - e) * p_src / f
    b = rd2 * p_rel / f
    best = -math.inf
    for _ in range(4):
        rho = np.linspace(lo, hi, 10_002)
        v = np.minimum(l1 + f * np.log1p((1.0 - rho) * a) / ln2,
                       l2 + f * np.log1p(a + b + 2.0 * np.sqrt(rho * a * b)) / ln2)
        i = int(np.argmax(v))
        best = max(best, float(v[i]))
        lo, hi = float(rho[max(i - 1, 0)]), float(rho[min(i + 1, rho.size - 1)])
    return best


def test_cutset_closed_form_rho_step_matches_dense_scan():
    rng = np.random.default_rng(5)
    cases = []
    for k in range(60):
        g, p = random_gains(rng), random_powers(rng)
        sd, sr, rd, p_src, p_rel = _cutset_triples(g, p)[("tx", 1)]
        alpha, e = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        lo, hi = ((lo, hi), (0.0, hi), (lo, 1.0), (0.0, 1.0))[k % 4]  # windows touching 0 and 1
        cases.append((sd, sr, rd, p_src, p_rel, alpha, e, lo, hi))
        cases.append((0.0, sr, rd, p_src, p_rel, alpha, e, lo, hi))       # a = 0 (sd = 0)
        cases.append((sd, sr, rd, p_src, p_rel, alpha, 1.0, lo, hi))      # a = 0 (e = 1)
        cases.append((sd, sr, 0.0, p_src, p_rel, alpha, e, lo, hi))       # b = 0, m = 0
        cases.append((sd, sr, rd, p_src, 0.0, alpha, e, lo, hi))          # b = 0 (silent relay)
        cases.append((sd, sr, rd, p_src, p_rel, 1.0 - rng.uniform(1e-12, 1e-9), e, lo, hi))
    for sd, sr, rd, p_src, p_rel, alpha, e, lo, hi in cases:
        args = (sd * sd, sr * sr, rd * rd, p_src, p_rel, alpha, e, lo, hi)
        got = bounds._cutset_over_rho(sd * sd, sr * sr, rd * rd, p_src, p_rel, alpha, lo, hi)(e)
        want = _scan_rho_max(*args)
        assert abs(got - want) <= 1e-12 * max(1.0, want), (args, got, want)


def test_cutset_closed_form_rho_step_sub_ulp_listen_gap():
    # sd = 1e-6, sr = 1e-9: the listen terms (~1e-12) differ by ~1e-18, so
    # 2**((L1-L2)/(1-alpha)) rounds to 1 and the crossing must not be lost.
    # rd = 0 gives b = m = 0; rd = 1e-8 a tiny positive b.  Values are ~1e-12,
    # so the tolerances are relative.
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    for rd in (0.0, 1e-8):
        for alpha, e in ((1.0 - golden, 1.0 - golden), (golden, 1.0 - golden), (0.9, 0.1)):
            for lo, hi in ((0.0, 1.5 / 80), (0.0, 1.0), (0.3, 1.0)):
                args = (1e-12, 1e-18, rd * rd, 1.0, 1.0, alpha, e, lo, hi)
                got = bounds._cutset_over_rho(1e-12, 1e-18, rd * rd, 1.0, 1.0, alpha, lo, hi)(e)
                want = _scan_rho_max(*args)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), args
        g = gains_with(c12=1e-9, c13=1e-6, c23=rd)
        p = PowerBudget(1.0, 1.0, 1.0, 1.0)
        want = _grid_golden_cutset(*_cutset_triples(g, p)[("tx", 1)])
        assert bounds.relay_cutset_bound(g, p, 1, "tx") == pytest.approx(want, rel=1e-9, abs=0.0)


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP defect 4: the grid's correlation window misses the cut-set "
                          "maximum at rho = 1; direction H fixes it")
def test_cutset_reaches_the_full_window_maximum():
    # pool[0] of bench/bounds_reference.json, RC user 1.  The nested golden
    # search over (alpha, e) with rho maximized over all of [0, 1] is a value
    # of the cut-set objective, so the bound may not lie below it.  Today it
    # gives 3.255780 against 3.259186.
    g = ChannelGains(5.885355950759363, 0.5785857492021551, 4.279526648197922,
                     3.2012778830213704, 4.80531607893294, 1.1800023147625776)
    p = PowerBudget(1.7505957147226896, 12.317380752678378, 9.851781316512724,
                    19.78231829610159)
    sd, sr, rd, p_src, p_rel = _cutset_triples(g, p)[("rx", 1)]

    def over_energy(alpha):
        return bounds._golden_max(
            lambda e: bounds._cutset_over_rho(sd * sd, sr * sr, rd * rd, p_src, p_rel,
                                              alpha, lo=0.0, hi=1.0)(e),
            0.0, 1.0, iters=40)

    want = bounds._golden_max(over_energy, 0.0, 1.0, iters=40)
    assert bounds.relay_cutset_bound(g, p, 1, "rx") >= want - 1e-12


# ---------------------------------------------------------------------------
# broadcast / multiple-access sum bounds


def test_bc_sum_bound_values(ref_gains):
    assert bounds.mimo_bc_sum_bound(ref_gains, 0.0) == 0.0
    got = bounds.mimo_bc_sum_bound(ref_gains, 10.0)
    assert got == pytest.approx(math.log2(56.0), abs=1e-9)


@pytest.mark.parametrize("p_total", [math.nan, math.inf, 1e300, -1.0])
def test_broadcast_bounds_reject_bad_total_power(ref_gains, p_total):
    # NaN used to give a NaN bound, 1e300 an infinite one, and -1 the origin
    # as a broadcast region.
    for fn in (bounds.mimo_bc_sum_bound, bounds.bc_region_vertices):
        with pytest.raises(EvaluatorError, match="p_total"):
            fn(ref_gains, p_total)


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
    assert tc.r1_max == pytest.approx(
        bounds.relay_cutset_bound(ref_gains, ref_powers, 1), rel=1e-12)
    assert tc.sum_max == pytest.approx(
        bounds.mimo_bc_sum_bound(ref_gains, ref_powers.p1 + ref_powers.p2), rel=1e-12)
    rc = bounds.rc_outer_region(ref_gains, ref_powers)
    assert rc.sum_max == pytest.approx(
        bounds.mimo_mac_sum_bound(ref_gains, ref_powers), rel=1e-12)


@pytest.mark.parametrize("region, cooperation",
                         [(bounds.tc_outer_region, "tx"), (bounds.rc_outer_region, "rx")])
def test_outer_region_searches_once_for_equal_relay_channels(monkeypatch, ref_gains,
                                                             ref_powers, region, cooperation):
    # Users whose relay channels have equal arguments share one search; the
    # bounds are each user's own call, bit for bit.  -0.0 for 0.0 is a
    # different argument.
    cutset, users = bounds.relay_cutset_bound, []

    def counting(g, p, user, how):
        users.append(user)
        return cutset(g, p, user, how)

    monkeypatch.setattr(bounds, "relay_cutset_bound", counting)
    lopsided = PowerBudget(5.0, 4.0, 5.0, 4.0)
    unsigned = gains_with(c13=0.0, c24=-0.0)
    for g, p, searches in ((ref_gains, ref_powers, [1]), (ref_gains, lopsided, [1, 2]),
                           (unsigned, ref_powers, [1, 2])):
        users.clear()
        got = region(g, p)
        assert users == searches
        want = (cutset(g, p, 1, cooperation), cutset(g, p, 2, cooperation))
        assert repr((got.r1_max, got.r2_max)) == repr(want)


def test_outer_bound_geometry():
    region = bounds.OuterBound(r1_max=3.0, r2_max=2.0, sum_max=4.0)
    assert region.contains(3.0, 1.0)
    assert not region.contains(3.0, 1.0 + 1e-6)
    assert region.violation(3.5, 1.0) == pytest.approx(0.5)
    assert region.vertices() == [(3.0, 1.0), (2.0, 2.0)]
    assert region.corner(0.0) == (3.0, 1.0)
    assert region.corner(math.inf) == (2.0, 2.0)
    assert region.corner(1.0) == (3.0, 1.0)  # both corners sum to 4: the tie goes to user 1
    assert region.corner(1.5) == (2.0, 2.0)
    loose = bounds.OuterBound(r1_max=1.0, r2_max=1.0, sum_max=5.0)
    assert loose.vertices() == [(1.0, 1.0)]
    assert all(loose.corner(w) == (1.0, 1.0) for w in (0.0, 1.0, math.inf))
    box = bounds.OuterBound(r1_max=1.0, r2_max=1.0, sum_max=math.inf)
    assert all(box.corner(w) == (1.0, 1.0) for w in (0.0, 1.0, 2.5, math.inf))


@pytest.mark.parametrize("weight", [math.nan, -1.0, -math.inf])
def test_pentagon_corner_rejects_bad_weight(weight):
    with pytest.raises(EvaluatorError):
        bounds.pentagon_corner(3.0, 2.0, 4.0, weight)
    with pytest.raises(EvaluatorError):
        bounds.OuterBound(r1_max=3.0, r2_max=2.0, sum_max=math.inf).corner(weight)


def _log2_det(*terms):
    """log2 det(I + sum p v v^T) over (v, p) terms, by numpy."""
    m = np.eye(2) + sum(p * np.outer(v, v) for v, p in terms)
    return math.log2(np.linalg.det(m))


def test_ic_pentagon_decides_per_receiver():
    # A receiver with strong interference decodes both messages: its user's
    # single-user rate, and its joint rate caps the sum.  A receiver with
    # weak interference treats it as noise.
    u1, v2, p1, p2 = (1.0, 0.2), (0.1, 1.0), 3.0, 2.0
    for strong4, strong3 in ((True, True), (True, False), (False, True), (False, False)):
        v1 = (0.2, 1.4) if strong4 else (0.2, 0.4)  # |v1|^2 vs |u1|^2 = 1.04
        u2 = (0.8, 0.9) if strong3 else (0.8, 0.3)  # |u2|^2 vs |v2|^2 = 1.01
        joint3 = _log2_det((u1, p1), (u2, p2))
        joint4 = _log2_det((v2, p2), (v1, p1))
        want1 = _log2_det((u1, p1)) if strong3 else joint3 - _log2_det((u2, p2))
        want2 = _log2_det((v2, p2)) if strong4 else joint4 - _log2_det((v1, p1))
        want12 = min([j for j, strong in ((joint3, strong3), (joint4, strong4)) if strong],
                     default=math.inf)
        got = bounds.ic_pentagon(u1, u2, v1, v2, p1, p2)
        assert got == pytest.approx((want1, want2, want12), rel=1e-13)
        # swapping the users together with their receivers swaps the pentagon
        assert bounds.ic_pentagon(v2, v1, u2, u1, p2, p1) == (got[1], got[0], got[2])


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


def test_strong_ic_region_lies_in_ic_outer_region():
    # The per-receiver IC region is achievable on every channel, so it lies
    # in the IC outer bound; on strong channels the two coincide.
    worst = worst_gap = 0.0
    strong = 0
    for g, p in zero_cooperation_channels(16, 2500):
        region, outer = bounds.strong_ic_region(g, p), bounds.ic_outer_region(g, p)
        worst = max(worst, region.r1_max - outer.r1_max, region.r2_max - outer.r2_max,
                    *(outer.violation(r1, r2) for r1, r2 in region.vertices()))
        if g.c14 >= g.c13 and g.c23 >= g.c24:
            strong += 1
            worst_gap = max(worst_gap, abs(region.r1_max - outer.r1_max),
                            abs(region.r2_max - outer.r2_max),
                            abs(region.sum_max - outer.sum_max))
    assert worst <= 1e-12
    assert strong >= 400 and worst_gap <= 1e-12


def test_ic_outer_region_values(ref_gains, ref_powers):
    # Sato's one-sided bound cap(c13^2 p1 + c23^2 p2) binds on these channels:
    # log2 21 = 4.3923 and log2 101 = 6.6582 bits
    for (c13, c14, c23, c24), det in (((1.0, 0.1, 1.0, 1.0), 21.0),
                                      ((3.0, 0.5, 1.0, 0.9), 101.0)):
        g = gains_with(c13=c13, c14=c14, c23=c23, c24=c24)
        region = bounds.ic_outer_region(g, PowerBudget(10.0, 10.0))
        assert region.sum_max == pytest.approx(math.log2(det), abs=1e-12)
    ref = bounds.ic_outer_region(ref_gains, ref_powers)
    assert (ref.r1_max, ref.r2_max, ref.sum_max) == pytest.approx(
        (math.log2(6.0), math.log2(6.0), 4.0), abs=1e-12)
    assert bounds.ic_outer_region(ref_gains, PowerBudget(0.0, 0.0)).sum_max == 0.0


# ---------------------------------------------------------------------------
# broadcast-region polygon


def _loop_bc_vertices(g, p_total):
    """``bc_region_vertices`` as a loop over the 2001 splits on floats."""
    if p_total == 0.0:
        return [(0.0, 0.0)]
    n1 = g.c13 * g.c13 + g.c23 * g.c23
    n2 = g.c14 * g.c14 + g.c24 * g.c24
    points = []
    for i in range(2001):
        q1 = min(p_total * i / 2000, p_total)
        q2 = p_total - q1
        c1 = cap(q1 * n1)
        c2 = cap(q2 * n2)
        s = math.log2(det_pair(g.g1, q1, g.g2, q2))
        points.append((c1, max(s - c1, 0.0)))
        points.append((max(s - c2, 0.0), c2))
    return frontier.hull(points)


def test_bc_region_vertices_equal_a_loop_over_the_splits(ref_gains):
    for g, p in _pool_configs():
        assert repr(bounds.bc_region_vertices(g, p.p1 + p.p2)) == \
            repr(_loop_bc_vertices(g, p.p1 + p.p2))
    assert bounds.bc_region_vertices(ref_gains, 0.0) == _loop_bc_vertices(ref_gains, 0.0)


@pytest.mark.parametrize("p_total, unclamped_raises", [(50.48968555507705, False),
                                                       (171541.6924389731, True)])
def test_bc_region_vertices_last_split_above_the_total(ref_gains, p_total, unclamped_raises):
    # q1 = p_total * 2000 / 2000 rounds above p_total, so an unclamped last
    # split's q2 * n2 is negative: cap clamps it to 0, or raises NegativeSnr
    # below -1e-12.  Clamped at p_total, the last split spends the whole
    # budget on user 1 and the arrays do as the loop does.
    assert p_total * 2000 / 2000 > p_total
    n2 = ref_gains.c14 * ref_gains.c14 + ref_gains.c24 * ref_gains.c24
    unclamped = (p_total - p_total * 2000 / 2000) * n2
    assert (unclamped < -1e-12) == unclamped_raises
    if unclamped_raises:
        with pytest.raises(NegativeSnr):
            cap(unclamped)
    else:
        assert cap(unclamped) == 0.0
    verts = bounds.bc_region_vertices(ref_gains, p_total)
    assert repr(verts) == repr(_loop_bc_vertices(ref_gains, p_total))
    assert verts[0][1] == 0.0 and verts[0][0] == cap(p_total * (ref_gains.c13 ** 2 + ref_gains.c23 ** 2))


def test_bc_region_vertices_splits_stay_inside_the_budget(ref_gains):
    # At these totals q1 = p_total * 2000 / 2000 rounds above p_total, so an
    # unclamped last split would spend a negative q2; clamped at p_total,
    # every split lies inside the budget and no total raises.  171541.69...
    # gave a q2 * n2 below -1e-12, which cap rejects with NegativeSnr.
    rng = np.random.default_rng(12)
    totals = [50.48968555507705, 171541.6924389731]
    while len(totals) < 22:
        t = float(rng.uniform(0.0, 2 * POWER_MAX))
        if t * 2000 / 2000 > t:
            totals.append(t)
    for g in (ref_gains, ChannelGains(GAIN_MAX, GAIN_MAX, 3.0, 0.5, GAIN_MAX, 1.0)):
        for p_total in totals:
            assert repr(bounds.bc_region_vertices(g, p_total)) == \
                repr(_loop_bc_vertices(g, p_total)), p_total


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
