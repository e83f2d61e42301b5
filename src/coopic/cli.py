"""Command-line surface: evaluate allocations, trace regions, print bounds.

Subcommands:

* ``eval``    -- evaluate one scheme at one explicit allocation and print a
                 machine-readable per-stream rate record (JSON).
* ``region``  -- trace frontiers for the configured schemes (one
                 ``frontier.trace_many`` call, so TC and RDPC share a
                 lockstep) and write a CSV (plus a JSON sidecar with the
                 achieving allocations and each trace's ``Frontier.stats``);
                 ``--stats`` also prints each trace's counts and timing
                 (``_stats_line``).
* ``bounds``  -- print the outer-bound constants for the configured channel.
* ``compare`` -- trace two configurations and report the dominance verdict.

Configuration is a flat JSON file; every key has a default mirroring the
reference symmetric setup (direct gains 1, cross gains sqrt(2), powers 5,
conferencing gains 10).  A number is a JSON number, not a bool or a
numeric string, and a gain, power, weight or allocation entry may also be
"inf" (or "+inf", "infinity").  Only c12/c34 accept inf, and
``frontier.trace`` routes it to the limit-mode tracers.  Gains and powers
outside the range ``ChannelGains`` and ``PowerBudget`` accept exit 2.

Exit codes: 0 success, 2 validation failure, 3 evaluator error,
4 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import bounds as bounds_mod
from . import frontier, rxcoop, txcoop
from .model import (
    ChannelGains,
    EvaluatorError,
    PowerBudget,
    RcAllocation,
    TcAllocation,
    _Simplex,
)

EXIT_VALIDATION = 2
EXIT_EVALUATOR = 3
EXIT_OUTPUT = 4

_SQRT2 = math.sqrt(2.0)

DEFAULT_CONFIG = {
    "c12": 10.0, "c13": 1.0, "c14": _SQRT2, "c23": _SQRT2, "c24": 1.0, "c34": 10.0,
    "p1": 5.0, "p2": 5.0, "p3": 5.0, "p4": 5.0,
    "scheme": "TC",
    "schemes": ["TC", "RDPC", "IC"],
    "weights": 33,
    "restarts": 32,
    "max_iter": 400,
    "seed": 0,
    "weight": 1.0,
    "allocation": None,
    "out": "region.csv",
}

_SCHEMES = ("TC", "RDPC", "RC", "IC")
_TRACED = _SCHEMES[:3]  # the schemes eval and compare accept


class ValidationFailure(Exception):
    """Raised for anything the config layer rejects (exit code 2)."""


def _valid(what: str, build, *args, **kwargs):
    """build(*args, **kwargs), with the TypeError, ValueError or OverflowError
    of a bad config value (an EvaluatorError is a ValueError) reported as a
    validation failure."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationFailure(f"{what}: {exc}") from exc


def _is_number(value) -> bool:
    """True for a JSON number: an int or float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(key: str, value) -> float:
    """A config number: a JSON number or an "inf" spelling, as a float.

    Range checks are left to the types built from it (``ChannelGains``
    decides which gains may be infinite)."""
    if isinstance(value, str) and value.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    if not _is_number(value):
        raise ValidationFailure(f"{key} must be a number or 'inf', got {value!r}")
    return _valid(key, float, value)


def _count(key: str, value) -> int:
    """A count or seed: a nonnegative integer (an integral float is accepted)."""
    n = _valid(key, int, value) if _is_number(value) else None
    if n is None or n < 0 or n != value:
        raise ValidationFailure(f"{key} must be a nonnegative integer, got {value!r}")
    return n


def _text(key: str, value) -> str:
    """A config value that must be a string."""
    if not isinstance(value, str):
        raise ValidationFailure(f"{key} must be a string, got {value!r}")
    return value


def _schemes(names, allowed: tuple[str, ...], one: bool = False) -> list[str]:
    """The scheme names of a --scheme list or config entry, upper-cased and
    checked: a nonempty list, each name in ``allowed``, none named twice,
    and exactly one if ``one``."""
    if not isinstance(names, list):
        raise ValidationFailure(f"schemes must be a list of scheme names, got {names!r}")
    schemes = [_text("scheme", s).upper() for s in names]
    if not schemes:
        raise ValidationFailure("empty scheme list")
    if one and len(schemes) > 1:
        raise ValidationFailure(f"one scheme expected, got {schemes}")
    for s in schemes:
        if s not in allowed:
            raise ValidationFailure(f"unknown scheme {s!r}; expected one of {allowed}")
    if len(set(schemes)) < len(schemes):
        raise ValidationFailure(f"scheme list {schemes} names a scheme twice")
    return schemes


def load_config(path: str | None) -> dict:
    """Merge a JSON config file over the defaults, rejecting unknown keys."""
    config = dict(DEFAULT_CONFIG)
    if path is None:
        return config
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValidationFailure(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationFailure("config root must be a JSON object")
    unknown = sorted(set(raw) - set(DEFAULT_CONFIG))
    if unknown:
        raise ValidationFailure(f"unknown config keys: {', '.join(unknown)}")
    config.update(raw)
    return config


def build_channel(config: dict) -> tuple[ChannelGains, PowerBudget]:
    """The config's ChannelGains and PowerBudget, each built from its own
    fields in declaration order, gains first."""
    return tuple(_valid(what, cls, **{k: _number(k, config[k]) for k in cls.__dataclass_fields__})
                 for what, cls in (("gains", ChannelGains), ("powers", PowerBudget)))


def build_options(config: dict) -> frontier.TraceOptions:
    return _valid("options", frontier.TraceOptions,
                  weights=_valid("weights", frontier.default_weights,
                                 _count("weights", config["weights"])),
                  restarts=_count("restarts", config["restarts"]),
                  max_iter=_count("max_iter", config["max_iter"]),
                  seed=_count("seed", config["seed"]))


def _key(name: str) -> str:
    """The config and sidecar key of an allocation field: "lambda" for ``lam``."""
    return "lambda" if name == "lam" else name


def build_allocation(scheme: str, spec: dict):
    """Build a Tc/RcAllocation from the config's allocation mapping."""
    if not isinstance(spec, dict):
        raise ValidationFailure("allocation must be a JSON object")
    cls = TcAllocation if scheme in ("TC", "RDPC") else RcAllocation
    expected = {_key(name): simplex for name, simplex in cls._layout.items()}
    unknown = sorted(set(spec) - set(expected))
    if unknown:
        raise ValidationFailure(f"unknown allocation keys: {', '.join(unknown)}")
    missing = sorted(set(expected) - set(spec))
    if missing:
        raise ValidationFailure(f"missing allocation keys: {', '.join(missing)}")
    parts = []
    for key, simplex in expected.items():
        values, size = spec[key], len(simplex.__dataclass_fields__)
        if not isinstance(values, (list, tuple)) or len(values) != size:
            raise ValidationFailure(f"allocation {key} must be a list of {size} numbers")
        what = f"allocation {key}"
        parts.append(_valid(what, simplex, *[_number(what, v) for v in values]))
    return cls(*parts)


def _allocation_to_dict(alloc) -> dict | None:
    if isinstance(alloc, (TcAllocation, RcAllocation)):
        # A simplex as its weights, any other field (an encoding order) as the
        # scalar it is, as the limit's user1_clean.
        record = {}
        for f in fields(alloc):
            value = getattr(alloc, f.name)
            record[_key(f.name)] = list(value) if isinstance(value, _Simplex) else value
        return record
    if isinstance(alloc, tuple) and len(alloc) == 3:  # limit-mode (mu, eta, order)
        return {"mu": list(alloc[0]), "eta": list(alloc[1]), "user1_clean": alloc[2]}
    return None


def _bound_record(region: bounds_mod.OuterBound) -> dict:
    """The JSON record of a pentagon's three constraints; an infinite one is
    written "inf" (as ``_fmt`` does), since strict JSON has no Infinity."""
    return {name: value if math.isfinite(value) else _fmt(value)
            for name, value in asdict(region).items()}


def _fmt(value: float) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return f"{value:.12g}"


def _stats_line(fr: frontier.Frontier, wall_s: float) -> str:
    """One line of ``region --stats``: a trace's ``Frontier.stats`` (penalized
    evaluations in total and by error type) and its wall time, also per
    evaluation ("-" when it made none).  Wall time covers the whole trace
    (searches, re-validation, hull), so it is printed, never in the sidecar.
    Traces that share a lockstep cannot be timed one by one: ``region``
    times its one ``trace_many`` call and gives each trace the share of
    that time its evaluations make of all of them (an equal share when none
    made any), so the lines' wall_s add up to the call's and they all show
    its mean cost per evaluation."""
    st = fr.stats
    fields = [f"evaluations={st.evaluations}", f"penalized={sum(st.penalized.values())}"]
    fields += [f"penalized.{name}={n}" for name, n in st.penalized.items()]
    per_eval = f"{1e6 * wall_s / st.evaluations:.2f}" if st.evaluations else "-"
    fields += [f"runs={st.runs}", f"unconverged={st.unconverged}", f"dropped={st.dropped}",
               f"wall_s={wall_s:.3f}", f"us_per_eval={per_eval}"]
    return f"stats {fr.scheme}: " + " ".join(fields)


def cmd_eval(args) -> int:
    config = load_config(args.config)
    scheme, = _schemes(args.scheme or [config["scheme"]], _TRACED, one=True)
    if config["allocation"] is None:
        raise ValidationFailure("eval requires an 'allocation' entry in the config")
    g, p = build_channel(config)
    alloc = build_allocation(scheme, config["allocation"])
    if scheme in ("TC", "RDPC"):
        cov = None if scheme == "TC" else txcoop.rdpc_covariances(g, p, alloc)
        rates = txcoop.tc_phase_rates(g, p, alloc, cov=cov)
        pair = txcoop.tc_rate_pair(g, p, alloc) if scheme == "TC" \
            else txcoop.rdpc_rate_pair(g, p, alloc)
    else:
        weight = _number("weight", config["weight"])
        if not weight >= 0.0:
            raise ValidationFailure(f"weight must be >= 0 (inf allowed), got {weight}")
        rates = rxcoop.rc_phase_rates(g, p, alloc, weight=weight)
        pair = rxcoop.rc_rate_pair(g, p, alloc, weight=weight)
    record = {
        "scheme": scheme,
        "r1_bits": pair.r1,
        "r2_bits": pair.r2,
        "streams": asdict(rates),
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_region(args) -> int:
    config = load_config(args.config)
    _apply_flag_overrides(config, args)
    schemes = _schemes(args.scheme or config["schemes"], _SCHEMES)
    g, p = build_channel(config)
    opts = build_options(config)
    seed = opts.seed
    out = Path(args.out or _text("out", config["out"]))
    sidecar_path = _valid("out", out.with_suffix, ".json")
    targets = {out.resolve(), sidecar_path.resolve()}
    if len(targets) < 2 or (args.config and Path(args.config).resolve() in targets):
        raise ValidationFailure(f"out {out}: CSV, sidecar and config must be three files")

    rows: list[tuple[float, float, str, float | None]] = []
    sidecar: dict = {"seed": seed, "schemes": {}, "bounds": {}}
    traced = [scheme for scheme in schemes if scheme != "IC"]
    start = time.perf_counter()
    fronts = dict(zip(traced, frontier.trace_many([(s, g, p) for s in traced], opts)))
    wall_s = time.perf_counter() - start
    evaluations = sum(fr.stats.evaluations for fr in fronts.values())
    for scheme in schemes:
        if scheme == "IC":
            region = bounds_mod.strong_ic_region(g, p)
            rows.extend((r1, r2, "IC", None) for r1, r2 in region.vertices())
            sidecar["schemes"]["IC"] = _bound_record(region)
            continue
        fr = fronts[scheme]
        if args.stats:
            share = fr.stats.evaluations / evaluations if evaluations else 1 / len(fronts)
            print(_stats_line(fr, wall_s * share))
        for pt in fr.points:
            rows.append((pt.r1, pt.r2, fr.scheme, pt.weight))
        sidecar["schemes"][fr.scheme] = {
            "points": [{"r1_bits": pt.r1, "r2_bits": pt.r2, "weight": pt.weight,
                        "allocation": _allocation_to_dict(pt.allocation)}
                       for pt in fr.points],
            "weights": [_fmt(w) for w in opts.weights],
            "restarts": opts.restarts,
            "stats": asdict(fr.stats),
        }
    for kind, users, outer in (("TC", ("TC", "RDPC"), bounds_mod.tc_outer_region),
                               ("RC", ("RC",), bounds_mod.rc_outer_region)):
        if any(s in users for s in schemes):
            region = outer(g, p)
            rows.extend((r1, r2, "bound", None) for r1, r2 in region.vertices())
            sidecar["bounds"][kind] = _bound_record(region)

    lines = ["r1_bits,r2_bits,scheme,weight,seed"]
    for r1, r2, scheme, weight in rows:
        lines.append(f"{_fmt(r1)},{_fmt(r2)},{scheme},{_fmt(weight)},{seed}")
    try:
        out.write_text("\n".join(lines) + "\n")
        sidecar_path.write_text(json.dumps(sidecar, indent=2))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    print(f"wrote {len(rows)} rows to {out} (+ sidecar {sidecar_path})")
    return 0


def cmd_bounds(args) -> int:
    config = load_config(args.config)
    g, p = build_channel(config)
    record = {"TC": _bound_record(bounds_mod.tc_outer_region(g, p)),
              "RC": _bound_record(bounds_mod.rc_outer_region(g, p)),
              "IC": _bound_record(bounds_mod.strong_ic_region(g, p))}
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    tol = 1e-6
    frontiers = []
    for path in (args.config_a, args.config_b):
        config = load_config(path)
        _apply_flag_overrides(config, args)
        scheme, = _schemes(args.scheme or [config["scheme"]], _TRACED, one=True)
        g, p = build_channel(config)
        frontiers.append(frontier.trace(scheme, g, p, build_options(config)))
    fa, fb = frontiers
    b_outside_a = frontier.region_deviation(fb, fa)
    a_outside_b = frontier.region_deviation(fa, fb)
    if b_outside_a <= tol and a_outside_b <= tol:
        verdict = "equal within tolerance"
    elif b_outside_a <= tol:
        verdict = "A dominates B"
    elif a_outside_b <= tol:
        verdict = "B dominates A"
    else:
        verdict = "incomparable"
    print(f"verdict: {verdict}")
    print(f"max gap A outside B: {_fmt(a_outside_b)} bits")
    print(f"max gap B outside A: {_fmt(b_outside_a)} bits")
    return 0


def _apply_flag_overrides(config: dict, args) -> None:
    for key in ("seed", "weights", "restarts"):
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopic",
        description="Rate regions for the half-duplex cooperative interference channel")
    sub = parser.add_subparsers(dest="command", required=True)
    p_eval = sub.add_parser("eval", help="evaluate one allocation")
    p_region = sub.add_parser("region", help="trace frontiers to CSV")
    p_bounds = sub.add_parser("bounds", help="print outer bounds")
    p_cmp = sub.add_parser("compare", help="dominance verdict for two configs")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")

    # Each subcommand registers only the flags it reads.
    for p in (p_eval, p_region, p_bounds):
        p.add_argument("--config", help="JSON configuration file")
    for p in (p_eval, p_region, p_cmp):
        p.add_argument("--scheme", action="append",
                       help="scheme selection (repeatable for region)")
    for p in (p_region, p_cmp):
        p.add_argument("--seed", type=int, help="optimizer seed override")
        p.add_argument("--weights", type=int, help="number of scalarization weights")
        p.add_argument("--restarts", type=int, help="multi-start restarts per weight")
    p_region.add_argument("--out", help="output CSV path")
    p_region.add_argument("--stats", action="store_true",
                          help="print each trace's evaluation counts and timing")
    for p, func in ((p_eval, cmd_eval), (p_region, cmd_region), (p_bounds, cmd_bounds),
                    (p_cmp, cmd_compare)):
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EvaluatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATOR


if __name__ == "__main__":
    sys.exit(main())
