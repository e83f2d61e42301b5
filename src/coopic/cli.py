"""Command-line surface: evaluate allocations, trace regions, print bounds.

Subcommands:

* ``eval``    -- evaluate one scheme at one explicit allocation and print a
                 machine-readable per-stream rate record (JSON).
* ``region``  -- trace frontiers for the configured schemes and write a CSV
                 (plus a JSON sidecar with the achieving allocations and
                 each trace's ``Frontier.stats``).
* ``bounds``  -- print the outer-bound constants for the configured channel.
* ``compare`` -- trace two configurations and report the dominance verdict.

Configuration is a flat JSON file; every key has a default mirroring the
reference symmetric setup (direct gains 1, cross gains sqrt(2), powers 5,
conferencing gains 10).  "inf" is accepted for c12/c34 and routes tracing
to the limit-mode evaluators.

Exit codes: 0 success, 2 validation failure, 3 evaluator error,
4 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import bounds as bounds_mod
from . import frontier, rxcoop, txcoop
from .model import (
    ChannelGains,
    EvaluatorError,
    PowerBudget,
    RcAllocation,
    Simplex2,
    Simplex3,
    TcAllocation,
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

_GAIN_KEYS = ("c12", "c13", "c14", "c23", "c24", "c34")
_POWER_KEYS = ("p1", "p2", "p3", "p4")
_SCHEMES = ("TC", "RDPC", "RC", "IC")


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


def _count(key: str, value) -> int:
    """A count or seed: a nonnegative integer (an integral float is accepted)."""
    n = _valid(key, int, value)
    if n < 0 or (isinstance(value, float) and n != value):
        raise ValidationFailure(f"{key} must be a nonnegative integer, got {value!r}")
    return n


def _text(key: str, value) -> str:
    """A config value that must be a string."""
    if not isinstance(value, str):
        raise ValidationFailure(f"{key} must be a string, got {value!r}")
    return value


def _scheme_list(value) -> list[str]:
    """The region scheme list: a JSON list of scheme names."""
    if not isinstance(value, list):
        raise ValidationFailure(f"schemes must be a list of scheme names, got {value!r}")
    return [_text("schemes entry", s).upper() for s in value]


def _coerce_gain(key: str, value) -> float:
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "+inf", "infinity"):
            if key not in ("c12", "c34"):
                raise ValidationFailure(f"{key} must be finite; only c12/c34 accept inf")
            return math.inf
        raise ValidationFailure(f"{key}: cannot parse {value!r} as a gain")
    return _valid(key, float, value)


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


def build_gains(config: dict) -> ChannelGains:
    return _valid("gains", ChannelGains,
                  **{k: _coerce_gain(k, config[k]) for k in _GAIN_KEYS})


def build_powers(config: dict) -> PowerBudget:
    return _valid("powers", PowerBudget,
                  **{k: _valid(k, float, config[k]) for k in _POWER_KEYS})


def build_options(config: dict) -> frontier.TraceOptions:
    return frontier.TraceOptions(
        weights=frontier.default_weights(_count("weights", config["weights"])),
        restarts=_count("restarts", config["restarts"]),
        max_iter=_count("max_iter", config["max_iter"]),
        seed=_count("seed", config["seed"]),
    )


# Allocation keys with their simplex sizes, in sidecar order; "lambda" is
# the allocation's ``lam`` field.
_TC_ALLOC_KEYS = {"lambda": 3, "kappa": 2, "gamma": 2, "alpha": 2, "beta": 2,
                  "mu": 3, "eta": 3}
_RC_ALLOC_KEYS = {"lambda": 3, "mu": 3, "eta": 3, "alpha": 2, "beta": 2}


def _field(key: str) -> str:
    return "lam" if key == "lambda" else key


def build_allocation(scheme: str, spec: dict):
    """Build a Tc/RcAllocation from the config's allocation mapping."""
    if not isinstance(spec, dict):
        raise ValidationFailure("allocation must be a JSON object")
    tc = scheme in ("TC", "RDPC")
    expected = _TC_ALLOC_KEYS if tc else _RC_ALLOC_KEYS
    unknown = sorted(set(spec) - set(expected))
    if unknown:
        raise ValidationFailure(f"unknown allocation keys: {', '.join(unknown)}")
    missing = sorted(set(expected) - set(spec))
    if missing:
        raise ValidationFailure(f"missing allocation keys: {', '.join(missing)}")
    parts = {}
    for key, size in expected.items():
        values = spec[key]
        if not isinstance(values, (list, tuple)) or len(values) != size:
            raise ValidationFailure(f"allocation {key} must be a list of {size} numbers")
        what = f"allocation {key}"
        cls = Simplex2 if size == 2 else Simplex3
        parts[_field(key)] = _valid(what, cls, *[_valid(what, float, v) for v in values])
    return (TcAllocation if tc else RcAllocation)(**parts)


def _allocation_to_dict(alloc) -> dict | None:
    if isinstance(alloc, (TcAllocation, RcAllocation)):
        keys = _TC_ALLOC_KEYS if isinstance(alloc, TcAllocation) else _RC_ALLOC_KEYS
        return {key: list(getattr(alloc, _field(key))) for key in keys}
    if isinstance(alloc, tuple) and len(alloc) == 3:  # limit-mode (mu, eta, order)
        return {"mu": list(alloc[0]), "eta": list(alloc[1]), "user1_clean": alloc[2]}
    return None


def _fmt(value: float) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "inf"
    return f"{value:.12g}"


def cmd_eval(args) -> int:
    config = load_config(args.config)
    _apply_flag_overrides(config, args)
    scheme = (args.scheme[0] if args.scheme else _text("scheme", config["scheme"])).upper()
    if scheme not in ("TC", "RDPC", "RC"):
        raise ValidationFailure(f"eval supports TC, RDPC or RC, got {scheme!r}")
    if config["allocation"] is None:
        raise ValidationFailure("eval requires an 'allocation' entry in the config")
    g = build_gains(config)
    p = build_powers(config)
    alloc = build_allocation(scheme, config["allocation"])
    if scheme in ("TC", "RDPC"):
        cov = None if scheme == "TC" else txcoop.rdpc_covariances(g, p, alloc)
        rates = txcoop.tc_phase_rates(g, p, alloc, cov=cov)
        pair = txcoop.tc_rate_pair(g, p, alloc) if scheme == "TC" \
            else txcoop.rdpc_rate_pair(g, p, alloc)
    else:
        weight = _valid("weight", float, config["weight"])
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


def _trace_scheme(scheme: str, g: ChannelGains, p: PowerBudget,
                  opts: frontier.TraceOptions):
    """Trace one scheme, routing infinite conferencing gains to limit mode."""
    if scheme == "TC" and math.isinf(g.c12):
        return txcoop.tc_limit_region(g, p, opts)
    if scheme == "RC" and math.isinf(g.c34):
        return rxcoop.rc_limit_region(g, p, opts)
    return frontier.trace(scheme, g, p, opts)


def cmd_region(args) -> int:
    config = load_config(args.config)
    _apply_flag_overrides(config, args)
    schemes = [s.upper() for s in args.scheme] if args.scheme \
        else _scheme_list(config["schemes"])
    if not schemes:
        raise ValidationFailure("empty scheme list")
    for s in schemes:
        if s not in _SCHEMES:
            raise ValidationFailure(f"unknown scheme {s!r}; expected one of {_SCHEMES}")
    g = build_gains(config)
    p = build_powers(config)
    opts = build_options(config)
    seed = opts.seed
    out = Path(args.out or _text("out", config["out"]))

    rows: list[tuple[float, float, str, float | None]] = []
    sidecar: dict = {"seed": seed, "schemes": {}, "bounds": {}}
    for scheme in schemes:
        if scheme == "IC":
            region = bounds_mod.strong_ic_region(g, p)
            for r1, r2 in region.vertices():
                rows.append((r1, r2, "IC", None))
            sidecar["schemes"]["IC"] = {
                "r1_max": region.r1_max, "r2_max": region.r2_max,
                "sum_max": region.sum_max}
            continue
        fr = _trace_scheme(scheme, g, p, opts)
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
    if any(s in ("TC", "RDPC") for s in schemes):
        region = bounds_mod.tc_outer_region(g, p)
        for r1, r2 in region.vertices():
            rows.append((r1, r2, "bound", None))
        sidecar["bounds"]["TC"] = {"r1_max": region.r1_max, "r2_max": region.r2_max,
                                   "sum_max": region.sum_max}
    if "RC" in schemes:
        region = bounds_mod.rc_outer_region(g, p)
        for r1, r2 in region.vertices():
            rows.append((r1, r2, "bound", None))
        sidecar["bounds"]["RC"] = {"r1_max": region.r1_max, "r2_max": region.r2_max,
                                   "sum_max": region.sum_max}

    lines = ["r1_bits,r2_bits,scheme,weight,seed"]
    for r1, r2, scheme, weight in rows:
        lines.append(f"{_fmt(r1)},{_fmt(r2)},{scheme},{_fmt(weight)},{seed}")
    try:
        out.write_text("\n".join(lines) + "\n")
        out.with_suffix(".json").write_text(json.dumps(sidecar, indent=2))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    print(f"wrote {len(rows)} rows to {out} (+ sidecar {out.with_suffix('.json')})")
    return 0


def cmd_bounds(args) -> int:
    config = load_config(args.config)
    _apply_flag_overrides(config, args)
    g = build_gains(config)
    p = build_powers(config)
    record: dict = {}
    tc = bounds_mod.tc_outer_region(g, p)
    rc = bounds_mod.rc_outer_region(g, p)
    record["TC"] = {"r1_max": tc.r1_max, "r2_max": tc.r2_max, "sum_max": tc.sum_max}
    record["RC"] = {"r1_max": rc.r1_max, "r2_max": rc.r2_max, "sum_max": rc.sum_max}
    try:
        ic = bounds_mod.strong_ic_region(g, p)
        record["IC"] = {"r1_max": ic.r1_max, "r2_max": ic.r2_max, "sum_max": ic.sum_max}
    except EvaluatorError as exc:
        record["IC"] = {"error": str(exc)}
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def cmd_compare(args) -> int:
    tol = 1e-6
    frontiers = []
    for path in (args.config_a, args.config_b):
        config = load_config(path)
        _apply_flag_overrides(config, args)
        scheme = (args.scheme[0] if args.scheme else _text("scheme", config["scheme"])).upper()
        if scheme not in ("TC", "RDPC", "RC"):
            raise ValidationFailure(f"compare supports TC, RDPC or RC, got {scheme!r}")
        g = build_gains(config)
        p = build_powers(config)
        frontiers.append(_trace_scheme(scheme, g, p, build_options(config)))
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
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    if getattr(args, "weights", None) is not None:
        config["weights"] = args.weights
    if getattr(args, "restarts", None) is not None:
        config["restarts"] = args.restarts


def _add_common(parser: argparse.ArgumentParser, with_config: bool = True) -> None:
    if with_config:
        parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--scheme", action="append",
                        help="scheme selection (repeatable for region)")
    parser.add_argument("--seed", type=int, help="optimizer seed override")
    parser.add_argument("--weights", type=int, help="number of scalarization weights")
    parser.add_argument("--restarts", type=int, help="multi-start restarts per weight")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopic",
        description="Rate regions for the half-duplex cooperative interference channel")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one allocation")
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_region = sub.add_parser("region", help="trace frontiers to CSV")
    _add_common(p_region)
    p_region.add_argument("--out", help="output CSV path")
    p_region.set_defaults(func=cmd_region)

    p_bounds = sub.add_parser("bounds", help="print outer bounds")
    _add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_cmp = sub.add_parser("compare", help="dominance verdict for two configs")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    _add_common(p_cmp, with_config=False)
    p_cmp.set_defaults(func=cmd_compare)
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
