"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``__init__`` (set-up),
runs one timed round in ``run_round`` and checks that round's outputs in
``check``.  A round is a list of operations, one public coopic call each; an
operation fails when it raises, when the CLI exits nonzero, or when a check
on its output fails.

* ``ref-region``: ``coopic region`` in-process on the paper's symmetric
  channel (TC, RDPC, RC at 9 weights, 8 restarts, 250 iterations, plus both
  outer bounds).  The seed is the optimizer seed in the generated config.
  Evaluators and allocation decode do most of the work.
* ``bounds-scan``: the outer bounds and the broadcast region for six random
  configurations, picked by the seed from a pool stored with its reference
  values (bounds_reference.json).  The relay cut-set grid does nearly all
  the work; no evaluator runs.
* ``gain-sweep``: TC and RC traces at conferencing gains 2, 5 and 10 with the
  frontier-nesting budget, and both infinite-gain limit regions.  A family of
  related configurations, and 6-dimensional limit searches where Nelder-Mead
  bookkeeping is the largest share.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np

from coopic import bounds, cli, frontier, rxcoop, txcoop
from coopic.model import ChannelGains, PowerBudget, Simplex3

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_TABLE = Path(__file__).resolve().parent / "bounds_reference.json"

TOL = 1e-9
SQRT2 = math.sqrt(2.0)
REF_POWERS = PowerBudget(5.0, 5.0, 5.0, 5.0)

# Quality guards, counted as failed output checks, so that a faster search
# cannot pass by finding worse frontiers.  Over optimizer seeds the values at
# the commit that added them are: RDPC area 8.81-8.90 and RC area 9.11-9.25
# bits^2, nesting gap 0.02-0.12 bits, TC-limit Hausdorff distance 0.0262 bits.
RDPC_AREA_FLOOR = 8.6
RC_AREA_FLOOR = 8.9
NESTING_GAP_CEILING = 0.25
TC_INF_HAUSDORFF_CEILING = 0.03


def _load_oracle():
    """The independent reference evaluator in tests/, imported read-only."""
    spec = importlib.util.spec_from_file_location(
        "coopic_bench_reference_eval", ROOT / "tests" / "reference_eval.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


def ref_gains(c12: float = 10.0, c34: float = 10.0) -> ChannelGains:
    """The paper's symmetric channel: direct 1, cross sqrt(2)."""
    return ChannelGains(c12=c12, c13=1.0, c14=SQRT2, c23=SQRT2, c24=1.0, c34=c34)


def gains_dict(g: ChannelGains) -> dict:
    return {k: getattr(g, k) for k in ("c12", "c13", "c14", "c23", "c24", "c34")}


def powers_dict(p: PowerBudget) -> dict:
    return {k: getattr(p, k) for k in ("p1", "p2", "p3", "p4")}


def region_area(vertices) -> float:
    """Area of the region under Pareto vertices ordered by r1 descending."""
    v = list(vertices)
    poly = [(0.0, 0.0), (v[0][0], 0.0)] + v + [(0.0, v[-1][1])]
    twice = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))
    return 0.5 * twice


def bc_summary(vertices) -> dict:
    """Fingerprint of a broadcast-region vertex list, compared within TOL."""
    return {"n": len(vertices), "r1_sum": math.fsum(v[0] for v in vertices),
            "r2_sum": math.fsum(v[1] for v in vertices), "area": region_area(vertices)}


def bound_triple(region) -> list[float]:
    return [region.r1_max, region.r2_max, region.sum_max]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


def _compare(what: str, got, want) -> list[str]:
    if isinstance(want, dict):
        return [e for k in want for e in _compare(f"{what}.{k}", got.get(k), want[k])]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{what}: length {len(got)} != {len(want)}"]
        return [e for i, (a, b) in enumerate(zip(got, want))
                for e in _compare(f"{what}[{i}]", a, b)]
    if got is None or not _close(float(got), float(want)):
        return [f"{what}: {got!r} != reference {want!r}"]
    return []


def _oracle_pair(scheme: str, g: ChannelGains, p: PowerBudget, alloc: dict,
                 weight) -> tuple[float, float]:
    a = {("lam" if k == "lambda" else k): tuple(v) for k, v in alloc.items()}
    if scheme in ("TC", "RDPC"):
        return oracle.tc_reference(gains_dict(g), powers_dict(p), a, rdpc=scheme == "RDPC")
    return oracle.rc_reference(gains_dict(g), powers_dict(p), a, weight=weight)


def check_vertex(scheme: str, g: ChannelGains, p: PowerBudget, r1: float, r2: float,
                 alloc: dict | None, weight) -> list[str]:
    """Re-evaluate one finite-gain frontier vertex through the oracle."""
    if alloc is None or (scheme == "RC" and weight is None):
        return [f"{scheme} vertex ({r1}, {r2}) has no allocation or weight"]
    want = _oracle_pair(scheme, g, p, alloc, weight)
    if abs(r1 - want[0]) > TOL or abs(r2 - want[1]) > TOL:
        return [f"{scheme} vertex ({r1!r}, {r2!r}) != oracle ({want[0]!r}, {want[1]!r})"]
    return []


def _allocation_dict(alloc) -> dict | None:
    if alloc is None:
        return None
    names = ("lambda", "kappa", "gamma", "alpha", "beta", "mu", "eta") \
        if hasattr(alloc, "kappa") else ("lambda", "mu", "eta", "alpha", "beta")
    return {n: list(getattr(alloc, "lam" if n == "lambda" else n)) for n in names}


def load_reference() -> dict:
    return json.loads(REFERENCE_TABLE.read_text())


def _attempt(fn, *args):
    """Call fn; an exception is returned as the operation's (failed) result."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


# ---------------------------------------------------------------------------
# ref-region

REF_REGION_SCHEMES = ("TC", "RDPC", "RC")


def ref_region_config(seed: int) -> dict:
    g = ref_gains()
    return {**gains_dict(g), **powers_dict(REF_POWERS),
            "schemes": list(REF_REGION_SCHEMES), "weights": 9, "restarts": 8,
            "max_iter": 250, "seed": seed}


def check_region_outputs(csv_path: Path, sidecar_path: Path, reference: dict) -> list[str]:
    """Check a `coopic region` CSV and JSON sidecar for the symmetric channel."""
    try:
        sidecar = json.loads(sidecar_path.read_text())
        rows = csv_path.read_text().splitlines()
    except (OSError, ValueError) as exc:
        return [f"cannot read region outputs: {exc}"]
    errors = []
    if not rows or rows[0] != "r1_bits,r2_bits,scheme,weight,seed":
        errors.append("CSV header missing")
    g = ref_gains()
    for scheme in REF_REGION_SCHEMES:
        points = sidecar.get("schemes", {}).get(scheme, {}).get("points", [])
        if not points:
            errors.append(f"sidecar has no {scheme} frontier")
        if sum(1 for row in rows[1:] if row.split(",")[2:3] == [scheme]) != len(points):
            errors.append(f"CSV and sidecar disagree on the {scheme} vertex count")
        for pt in points:
            errors += check_vertex(scheme, g, REF_POWERS, pt["r1_bits"], pt["r2_bits"],
                                   pt["allocation"], pt["weight"])
    for kind in ("TC", "RC"):
        got = sidecar.get("bounds", {}).get(kind, {})
        errors += _compare(f"{kind} bound",
                           [got.get("r1_max"), got.get("r2_max"), got.get("sum_max")],
                           reference["ref"][f"{kind.lower()}_outer"])
    return errors


class RefRegion:
    name = "ref-region"
    layers = ("cli.main", "frontier.trace", "frontier.minimize",
              "frontier.tc_allocation_from_vector", "frontier.rc_allocation_from_vector",
              "frontier.hull", "txcoop.tc_rate_pair", "txcoop.rdpc_rate_pair",
              "rxcoop.rc_rate_pair", "bounds.tc_outer_region", "bounds.rc_outer_region",
              "bounds.relay_cutset_bound", "bounds.mimo_bc_sum_bound",
              "bounds.mimo_mac_sum_bound")

    def __init__(self, seed: int, workdir: Path):
        self.reference = load_reference()
        self.config_path = workdir / "config.json"
        self.csv_path = workdir / "region.csv"
        self.config_path.write_text(json.dumps(ref_region_config(seed)))

    def run_round(self) -> list:
        self.csv_path.unlink(missing_ok=True)
        self.csv_path.with_suffix(".json").unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            result = _attempt(cli.main, ["region", "--config", str(self.config_path),
                                         "--out", str(self.csv_path)])
        return [("region", result)]

    def check(self, ops: list) -> list[tuple[str, list[str]]]:
        (_, result), = ops
        if isinstance(result, Exception):
            return [("region", [f"raised {result!r}"])]
        if result != 0:
            return [("region", [f"exit code {result}"])]
        errors = check_region_outputs(self.csv_path, self.csv_path.with_suffix(".json"),
                                      self.reference)
        if not errors:
            q = self.quality(ops)
            if q["quality.rdpc_area_bits2"] < RDPC_AREA_FLOOR:
                errors.append(f"RDPC area {q['quality.rdpc_area_bits2']} < {RDPC_AREA_FLOOR}")
            if q["quality.rc_area_bits2"] < RC_AREA_FLOOR:
                errors.append(f"RC area {q['quality.rc_area_bits2']} < {RC_AREA_FLOOR}")
        return [("region", errors)]

    def quality(self, ops: list) -> dict[str, float]:
        sidecar = json.loads(self.csv_path.with_suffix(".json").read_text())
        area = {s: region_area([(pt["r1_bits"], pt["r2_bits"])
                                for pt in sidecar["schemes"][s]["points"]])
                for s in REF_REGION_SCHEMES}
        return {"quality.rdpc_area_bits2": area["RDPC"], "quality.rc_area_bits2": area["RC"],
                "frontier.tc_area_bits2": area["TC"]}


# ---------------------------------------------------------------------------
# bounds-scan

CONFIGS_PER_ROUND = 6


def bounds_record(g: ChannelGains, p: PowerBudget) -> dict:
    """Every bounds-scan output for one configuration (also builds the table)."""
    record = {"tc_outer": bound_triple(bounds.tc_outer_region(g, p)),
              "rc_outer": bound_triple(bounds.rc_outer_region(g, p)),
              "strong_ic": None,
              "bc_region": bc_summary(bounds.bc_region_vertices(g, p.p1 + p.p2))}
    if g.c14 >= g.c13 and g.c23 >= g.c24:
        record["strong_ic"] = bound_triple(bounds.strong_ic_region(g, p))
    return record


class BoundsScan:
    name = "bounds-scan"
    layers = ("bounds.tc_outer_region", "bounds.rc_outer_region",
              "bounds.relay_cutset_bound", "bounds.mimo_bc_sum_bound",
              "bounds.mimo_mac_sum_bound", "bounds.bc_region_vertices", "frontier.hull")

    def __init__(self, seed: int, workdir: Path):
        pool = load_reference()["pool"]
        picks = np.random.default_rng(seed).choice(len(pool), CONFIGS_PER_ROUND, replace=False)
        self.configs = [(int(i), ChannelGains(*pool[i]["gains"]),
                         PowerBudget(*pool[i]["powers"]), pool[i]) for i in picks]

    def run_round(self) -> list:
        ops = []
        for index, g, p, entry in self.configs:
            ops += [((index, "tc_outer"), _attempt(bounds.tc_outer_region, g, p)),
                    ((index, "rc_outer"), _attempt(bounds.rc_outer_region, g, p)),
                    ((index, "bc_region"), _attempt(bounds.bc_region_vertices, g, p.p1 + p.p2))]
            if entry["strong_ic"] is not None:
                ops.append(((index, "strong_ic"), _attempt(bounds.strong_ic_region, g, p)))
        return ops

    def check(self, ops: list) -> list[tuple[str, list[str]]]:
        entries = {i: entry for i, _, _, entry in self.configs}
        out = []
        for (index, what), result in ops:
            name = f"pool[{index}].{what}"
            if isinstance(result, Exception):
                out.append((name, [f"raised {result!r}"]))
                continue
            got = bc_summary(result) if what == "bc_region" else bound_triple(result)
            out.append((name, _compare(name, got, entries[index][what])))
        return out

    def quality(self, ops: list) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# gain-sweep

FAMILY_GAINS = (2.0, 5.0, 10.0)


class GainSweep:
    name = "gain-sweep"
    layers = ("frontier.trace", "frontier.trace_tc_limit", "frontier.trace_rc_limit",
              "frontier.minimize", "frontier.tc_allocation_from_vector",
              "frontier.rc_allocation_from_vector", "frontier.hull",
              "txcoop.tc_rate_pair", "rxcoop.rc_rate_pair", "txcoop.tc_limit_rate_pair",
              "rxcoop.rc_limit_rate_pair")

    def __init__(self, seed: int, workdir: Path):
        self.family_opts = frontier.TraceOptions(
            weights=frontier.default_weights(7), restarts=6, max_iter=200, seed=seed)
        self.limit_opts = frontier.TraceOptions(
            weights=frontier.default_weights(17), restarts=4, max_iter=250, seed=seed)
        self.jobs = [(f"TC@{c:g}", "TC", ref_gains(c12=c)) for c in FAMILY_GAINS]
        self.jobs += [(f"RC@{c:g}", "RC", ref_gains(c34=c)) for c in FAMILY_GAINS]
        self.tc_inf = ref_gains(c12=math.inf)
        self.rc_inf = ref_gains(c34=math.inf)
        self.bc_polygon = None

    def run_round(self) -> list:
        ops = [(name, _attempt(frontier.trace, scheme, g, REF_POWERS, self.family_opts))
               for name, scheme, g in self.jobs]
        ops.append(("TC@inf", _attempt(txcoop.tc_limit_region, self.tc_inf, REF_POWERS,
                                       self.limit_opts)))
        ops.append(("RC@inf", _attempt(rxcoop.rc_limit_region, self.rc_inf, REF_POWERS,
                                       self.limit_opts)))
        return ops

    def check(self, ops: list) -> list[tuple[str, list[str]]]:
        gains = {name: g for name, _, g in self.jobs}
        out = []
        for name, fr in ops:
            if isinstance(fr, Exception):
                out.append((name, [f"raised {fr!r}"]))
                continue
            errors = [] if fr.points else [f"{name}: empty frontier"]
            for pt in fr.points:
                if name == "TC@inf":
                    mu, eta, order = pt.allocation
                    want = txcoop.tc_limit_rate_pair(self.tc_inf, REF_POWERS, Simplex3(*mu),
                                                     Simplex3(*eta), order)
                elif name == "RC@inf":
                    want = rxcoop.rc_limit_rate_pair(self.rc_inf, REF_POWERS, weight=pt.weight)
                else:
                    errors += check_vertex(name[:2], gains[name], REF_POWERS, pt.r1, pt.r2,
                                           _allocation_dict(pt.allocation), pt.weight)
                    continue
                if abs(pt.r1 - want.r1) > TOL or abs(pt.r2 - want.r2) > TOL:
                    errors.append(f"{name} vertex ({pt.r1!r}, {pt.r2!r}) != "
                                  f"re-evaluation ({want.r1!r}, {want.r2!r})")
            out.append((name, errors))
        guards = []
        if not any(errors for _, errors in out):
            q = self.quality(ops)
            if q["quality.nesting_gap_bits"] > NESTING_GAP_CEILING:
                guards.append(f"nesting gap {q['quality.nesting_gap_bits']} > "
                              f"{NESTING_GAP_CEILING}")
            if q["quality.tc_inf_hausdorff_bits"] > TC_INF_HAUSDORFF_CEILING:
                guards.append(f"TC limit Hausdorff {q['quality.tc_inf_hausdorff_bits']} > "
                              f"{TC_INF_HAUSDORFF_CEILING}")
        return out + [("quality", guards)]

    def quality(self, ops: list) -> dict[str, float]:
        fr = dict(ops)
        gap = max(frontier.region_deviation(fr[f"{s}@{lo:g}"], fr[f"{s}@{hi:g}"])
                  for s in ("TC", "RC") for lo, hi in zip(FAMILY_GAINS, FAMILY_GAINS[1:]))
        if self.bc_polygon is None:
            self.bc_polygon = bounds.bc_region_vertices(ref_gains(), REF_POWERS.p1 + REF_POWERS.p2)
        return {"quality.nesting_gap_bits": gap,
                "quality.tc_inf_hausdorff_bits": frontier.hausdorff(fr["TC@inf"], self.bc_polygon),
                "frontier.tc_area_bits2": region_area(fr["TC@10"].vertices())}


WORKLOADS = {w.name: w for w in (RefRegion, BoundsScan, GainSweep)}
