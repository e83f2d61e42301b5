"""The benchmark's layer tracer reaches every layer it declares.

``bench/layers.py`` wraps module attributes of coopic.  A refactor that binds
one of them at import, so that calls bypass the attribute, would leave its
layer empty in traced bench runs; this test runs one small instance of every
public entry point under the tracer and names any label that saw no call.
It also checks that the tracer counts every evaluator error by its own name.
"""

import contextlib
import dataclasses
import importlib.util
import io
import math
from pathlib import Path

import pytest

from coopic import bounds, cli, frontier, model, rxcoop, txcoop

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    """bench/layers.py, imported read-only under its own module name."""
    spec = importlib.util.spec_from_file_location("coopic_bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_records_calls(ref_gains, ref_powers):
    layers = _load_layers()
    tracer = layers.Tracer()
    opts = frontier.TraceOptions(weights=(1.0,), restarts=1, max_iter=20)
    with tracer.installed():
        for scheme in ("TC", "RDPC", "RC"):
            frontier.trace(scheme, ref_gains, ref_powers, opts)
        txcoop.tc_limit_region(dataclasses.replace(ref_gains, c12=math.inf), ref_powers, opts)
        rxcoop.rc_limit_region(dataclasses.replace(ref_gains, c34=math.inf), ref_powers, opts)
        bounds.tc_outer_region(ref_gains, ref_powers)
        bounds.rc_outer_region(ref_gains, ref_powers)
        bounds.strong_ic_region(ref_gains, ref_powers)
        bounds.bc_region_vertices(ref_gains, ref_powers.p1 + ref_powers.p2)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["bounds"]) == 0
    calls = tracer.calls()
    assert set(calls) == {layers.label(m, a) for m, a in layers.TARGETS}
    assert [name for name, n in calls.items() if n == 0] == []


def test_every_error_class_has_a_penalty_counter():
    # an error class missing from PENALTY_NAMES is counted under the base name
    layers = _load_layers()
    errors = {name for name, obj in vars(model).items()
              if isinstance(obj, type) and issubclass(obj, model.EvaluatorError)}
    assert sorted(errors - set(layers.PENALTY_NAMES)) == []


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP direction J: PENALTY_NAMES keeps four names no class "
                          "has (NonPositiveDefinite, Singular, DegeneratePhase, "
                          "NotStrongInterference)")
def test_every_penalty_counter_names_an_error_class():
    # the converse: a counter whose name no class has always reads 0
    layers = _load_layers()
    errors = {name for name, obj in vars(model).items()
              if isinstance(obj, type) and issubclass(obj, model.EvaluatorError)}
    assert sorted(set(layers.PENALTY_NAMES) - errors) == []
