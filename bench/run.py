"""coopic benchmark: three workloads, checked outputs, optional per-layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload ref-region --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25

A run sets up the workload, then repeats rounds of it until ``--seconds`` is
spent (at least one round), checks every round's outputs, and prints the
metrics by name with their units.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs each workload in turn in its own
process and prints all their metrics, prefixed with the workload name.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median,
over several fresh processes, of the time to import coopic and build the
inputs.  ``wall_norm_s`` is the median round time, normalized to a
reference host speed (see hostspeed.py).  ``peak_rss_mb`` is the run's peak
resident memory.  ``--trace 1`` alternates untraced rounds with rounds
in which every layer's public module attributes are wrapped (see layers.py)
and reports the per-layer metrics, the raw round wall time and the tracing
overhead against the untraced rounds.  A traced run fails its self-check
when a layer the workload must reach records no call.

BLAS and OpenMP threads are pinned to 1, and the run is a single process
apart from the set-up probes it starts and waits for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_run"
WORKLOAD_NAMES = ("ref-region", "bounds-scan", "gain-sweep")
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _require_sources() -> None:
    """Exit 2 unless the coopic sources and the oracle are in this checkout."""
    missing = [str(p.relative_to(ROOT)) for p in
               (ROOT / "src" / "coopic" / "__init__.py", ROOT / "tests" / "reference_eval.py")
               if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a coopic checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def setup(workload: str, seed: int):
    """Import coopic and build the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    workdir = WORKDIR / workload
    workdir.mkdir(parents=True, exist_ok=True)
    instance = workloads.WORKLOADS[workload](seed, workdir)
    return instance, time.perf_counter() - start


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process, as that process measures it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _warm_up() -> None:
    """Let lazy imports and first-call costs finish before timing."""
    from coopic import frontier
    from workloads import REF_POWERS, ref_gains

    opts = frontier.TraceOptions(weights=(1.0,), restarts=1, max_iter=20)
    for scheme in ("TC", "RC"):
        frontier.trace(scheme, ref_gains(), REF_POWERS, opts)


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, results) -> None:
        for op, errors in results:
            self.attempted += 1
            if errors:
                self.failed += 1
                self.messages.extend(f"{op}: {e}" for e in errors[:3])


@dataclass(frozen=True)
class Round:
    """One timed round: wall time without sampling, the mean calibration
    kernel time during the round, and the normalized round time."""

    traced: bool
    wall_s: float
    kernel_s: float
    norm_s: float


def _timed_round(workload, sampler):
    with sampler.sampling():
        base = sampler.spent
        t0 = time.perf_counter()
        ops = workload.run_round()
        wall = time.perf_counter() - t0 - (sampler.spent - base)
    return ops, wall


def measure(workload, seconds: float, tracer=None):
    """Repeat rounds until ``seconds`` are spent; with a tracer, alternate
    untraced and traced rounds.  Returns (rounds, runtime warnings per traced
    round, tally, last round's operations)."""
    import hostspeed

    sampler = hostspeed.Sampler()
    rounds: list[Round] = []
    caught = 0
    tally = Tally()
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and sum(r.traced for r in rounds) < len(rounds) / 2
        if traced:
            with tracer.installed(), warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always", RuntimeWarning)
                ops, wall = _timed_round(workload, sampler)
            caught += sum(issubclass(w.category, RuntimeWarning) for w in seen)
        else:
            ops, wall = _timed_round(workload, sampler)
        rounds.append(Round(traced, wall, sampler.kernel_s(), sampler.normalized(wall)))
        tally.add(workload.check(ops))
        untraced_only = tracer is not None and not any(r.traced for r in rounds)
        typical = statistics.median(r.wall_s for r in rounds)
        if not untraced_only and time.perf_counter() - begin + typical > seconds:
            break
    n_traced = sum(r.traced for r in rounds)
    return rounds, caught / n_traced if n_traced else 0.0, tally, ops


def end_to_end_metrics(setup_times, rounds) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as name -> (value, unit).  Round times are
    normalized to the reference host speed (see hostspeed.py)."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_norm_s": (statistics.median(r.norm_s for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_metrics(rounds, warnings_per_round: float,
                quality: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the run as a whole, from a traced run's rounds."""
    import layers

    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    m = {
        "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
        "host.kernel_ms": (1e3 * statistics.median(r.kernel_s for r in rounds), "ms"),
        "runtime_warnings": (warnings_per_round, "count"),
        "trace_overhead_frac": (statistics.median(r.norm_s for r in traced)
                                / statistics.median(r.norm_s for r in plain) - 1.0
                                if traced else 0.0, "1"),
    }
    for name in layers.QUALITY_NAMES:
        m[name] = (quality.get(name, 0.0), "bits2" if name.endswith("area_bits2") else "bits")
    return m


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    import scipy

    setup_times = [_probe_setup(workload_name, seed) for _ in range(SETUP_PROBES)]
    workload, own_setup = setup(workload_name, seed)
    _warm_up()
    print(f"# workload={workload_name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} threads=1")

    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
    rounds, warns, tally, ops = measure(workload, seconds, tracer)
    quality = workload.quality(ops) if not tally.failed else {}
    for i, r in enumerate(rounds):
        print(f"{'traced ' if r.traced else ''}round {i + 1}: {r.wall_s:.3f} s wall, "
              f"{1e3 * r.kernel_s:.3f} ms kernel, {r.norm_s:.3f} s normalized")
    for name, value in quality.items():
        print(f"{name} {value:.6f}")

    if trace:
        traced = [r for r in rounds if r.traced]
        summary = layers.Summary(tracer, len(traced))
        for t in summary.traces[:len(summary.traces) // len(traced)]:
            share = t["eval_s"] / t["wall_s"] if t["wall_s"] else 0.0
            us = 1e6 * t["eval_s"] / t["evals"] if t["evals"] else 0.0
            print(f"trace {t['scheme']}: {t['vertices']} vertices, {t['minimize']} NM runs, "
                  f"{t['evals']} evals x {us:.1f} us = {t['eval_s']:.3f} s of "
                  f"{t['wall_s']:.3f} s wall ({share:.0%}), {t['penalized']} penalized")
        calls = tracer.calls()
        silent = [name for name in workload.layers if calls[name] == 0]
        tally.add([("layer self-check", [f"{n} recorded no calls" for n in silent])])
        metrics = {**layers.per_layer_metrics(summary), **run_metrics(rounds, warns, quality)}
        tracer.save(WORKDIR / workload_name / "spans.npz")
    else:
        metrics = end_to_end_metrics(setup_times, rounds)
    print(f"# setup probes (s): {', '.join(f'{t:.4f}' for t in setup_times)}; "
          f"in-process set-up {own_setup:.4f} s")
    print(f"error_rate {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for message in tally.messages[:20]:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT, check=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _pin_threads()
    _require_sources()
    if args.setup_probe:
        _, seconds = setup(args.workload, args.seed)
        print(repr(seconds))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
