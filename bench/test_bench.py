"""Self-tests of the benchmark: metric names, failure counting, wrapper removal.

Run with ``python -m pytest -q bench``.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from coopic import cli, frontier  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_metric_names_match_declaration():
    rounds = [run.Round(False, 1.0, 2e-3, 1.2), run.Round(True, 1.1, 2e-3, 1.3)]
    per_layer = {**layers.per_layer_metrics(layers.Summary(layers.Tracer(), 1)),
                 **run.run_metrics(rounds, 0.0, {})}
    end_to_end = run.end_to_end_metrics([1.0], rounds)
    for produced, kind in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        assert {n: unit for n, (_, unit) in produced.items()} == _declared(kind)
        for name in produced:
            assert NAME.fullmatch(name) and len(name) <= 64, name
    assert set(SPEC["workloads"][i]["name"] for i in range(3)) == set(workloads.WORKLOADS)


def test_corrupted_sidecar_rate_counts_as_failure(tmp_path):
    ref = workloads.RefRegion(0, tmp_path)
    small = dict(workloads.ref_region_config(0), weights=1, restarts=1, max_iter=30,
                 schemes=["RDPC", "RC"])
    ref.config_path.write_text(json.dumps(small))
    ops = ref.run_round()
    assert ops == [("region", 0)]
    sidecar_path = ref.csv_path.with_suffix(".json")
    sidecar = json.loads(sidecar_path.read_text())
    # The reduced config traces no TC frontier; the check must say so and
    # find nothing else wrong.
    errors = workloads.check_region_outputs(ref.csv_path, sidecar_path, ref.reference)
    assert errors == ["sidecar has no TC frontier"]

    sidecar["schemes"]["RC"]["points"][0]["r1_bits"] += 1e-6
    sidecar_path.write_text(json.dumps(sidecar))
    errors = workloads.check_region_outputs(ref.csv_path, sidecar_path, ref.reference)
    assert any("RC vertex" in e and "oracle" in e for e in errors)
    tally = run.Tally()
    tally.add(ref.check(ops))
    assert (tally.attempted, tally.failed) == (1, 1)


class _TinyTrace:
    """A one-operation workload small enough for a unit test."""

    def run_round(self):
        opts = frontier.TraceOptions(weights=(1.0,), restarts=1, max_iter=20)
        return [("RC", frontier.trace("RC", workloads.ref_gains(), workloads.REF_POWERS, opts))]

    def check(self, ops):
        return [(name, [] if fr.points else ["empty"]) for name, fr in ops]


def test_traced_run_leaves_no_wrapper_installed():
    originals = {layers.label(m, a): getattr(m, a) for m, a in layers.TARGETS}
    tracer = layers.Tracer()
    rounds, _, tally, _ = run.measure(_TinyTrace(), 0.0, tracer)
    assert [r.traced for r in rounds] == [False, True] and tally.failed == 0
    calls = tracer.calls()
    assert calls["frontier.trace"] == 1 and calls["rxcoop.rc_rate_pair"] > 0
    assert calls["frontier.minimize"] == 1 and calls["cli.main"] == 0
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert cli.main is not originals["cli.main"]
            _ = 1 / 0
    for module, attr in layers.TARGETS:
        assert getattr(module, attr) is originals[layers.label(module, attr)], attr
    summary = layers.Summary(tracer, 1)
    assert summary.traces[0]["evals"] == calls["rxcoop.rc_rate_pair"]
    assert math.isclose(summary.calls("frontier.minimize"), 1.0)
