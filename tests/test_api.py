"""Public API surface: ``__all__`` lists and the package re-exports agree."""

import ast
import dataclasses
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import coopic
from coopic import frontier, rxcoop, txcoop
from coopic.model import (InfiniteGain, NotInfinite, RcAllocation, Simplex2, Simplex3,
                          TcAllocation)

MODULES = sorted(info.name for info in pkgutil.iter_modules(coopic.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"coopic.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"coopic.{name}.__all__ names undefined {missing}"


def test_no_name_exported_twice():
    """Each exported name has one home module: a helper is never copied across modules."""
    homes: dict[str, list[str]] = {}
    for name in MODULES:
        for attr in getattr(importlib.import_module(f"coopic.{name}"), "__all__", ()):
            homes.setdefault(attr, []).append(name)
    twice = {attr: mods for attr, mods in homes.items() if len(mods) > 1}
    assert not twice, f"names exported by more than one coopic module: {twice}"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(coopic.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"coopic.{node.module}").__all__
        stale = [alias.name for alias in node.names if alias.name not in exported]
        assert not stale, f"coopic imports {stale} from coopic.{node.module}, not in its __all__"


def test_every_error_class_is_raised():
    """Each EvaluatorError class of ``model`` has a ``raise Name(...)`` in the package."""
    from coopic import model

    defined = {name for name, obj in vars(model).items()
               if isinstance(obj, type) and issubclass(obj, model.EvaluatorError)}
    raised = set()
    for path in Path(coopic.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    assert len(defined) > 1
    dead = sorted(defined - raised)
    assert not dead, f"coopic.model defines error classes nothing raises: {dead}"


def test_import_loads_no_scipy():
    """The package and its CLI run on numpy alone; scipy is a test dependency."""
    code = ("import sys, coopic, coopic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(coopic.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_kernels_read_no_positional_index():
    """The rate kernels unpack their gains ``c``, powers ``pw`` and allocation
    blocks into named locals: no ``s[k]``, ``c[k]`` or ``pw[k]`` read restates
    the layout the allocation and ``model.kernel_args`` declare."""
    reads = []
    for name in ("txcoop", "rxcoop"):
        path = Path(coopic.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                    and node.value.id in ("s", "c", "pw") \
                    and isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, int):
                reads.append(f"{name}.py:{node.lineno} {ast.unparse(node)}")
    assert not reads, f"positional kernel reads: {reads}"


def test_no_module_squares_with_pow():
    """Every square is ``x * x``: ``x ** 2`` is libm's ``pow``, which misrounds
    some squares that the column path's multiply rounds correctly."""
    squares = []
    for name in MODULES:
        path = Path(coopic.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                    and isinstance(node.right, ast.Constant) and node.right.value == 2:
                squares.append(f"{name}.py:{node.lineno} {ast.unparse(node)}")
    assert not squares, f"squares by **: {squares}"


_S2, _S3 = Simplex2(0.5, 0.5), Simplex3(0.2, 0.3, 0.5)
_TC = TcAllocation(_S3, _S2, _S2, _S2, _S2, _S3, _S3)
_RC = RcAllocation(_S3, _S3, _S3, _S2, _S2)
_TINY = frontier.TraceOptions(weights=(1.0,), restarts=1, max_iter=5)

# (call, its conferencing gain, whether it evaluates that gain's +inf limit)
_GAIN_MODES = {
    "tc_rate_pair": (lambda g, p: txcoop.tc_rate_pair(g, p, _TC), "c12", False),
    "rdpc_rate_pair": (lambda g, p: txcoop.rdpc_rate_pair(g, p, _TC), "c12", False),
    "tc_phase_rates": (lambda g, p: txcoop.tc_phase_rates(g, p, _TC), "c12", False),
    "tc_phase3_covariances": (lambda g, p: txcoop.tc_phase3_covariances(g, p, _TC), "c12", False),
    "tc_budget_covariances": (lambda g, p: txcoop.tc_budget_covariances(g, p, _TC), "c12", False),
    "rdpc_covariances": (lambda g, p: txcoop.rdpc_covariances(g, p, _TC), "c12", False),
    "phase3_power_audit": (lambda g, p: txcoop.phase3_power_audit(g, p, _TC), "c12", False),
    "rc_rate_pair": (lambda g, p: rxcoop.rc_rate_pair(g, p, _RC), "c34", False),
    "rc_phase_rates": (lambda g, p: rxcoop.rc_phase_rates(g, p, _RC), "c34", False),
    "trace_RDPC": (lambda g, p: frontier.trace("RDPC", g, p, _TINY), "c12", False),
    "tc_limit_rate_pair": (lambda g, p: txcoop.tc_limit_rate_pair(g, p, _S3, _S3, True),
                           "c12", True),
    "rc_limit_rate_pair": (lambda g, p: rxcoop.rc_limit_rate_pair(g, p), "c34", True),
    "trace_tc_limit": (lambda g, p: frontier.trace_tc_limit(g, p, _TINY), "c12", True),
    "trace_rc_limit": (lambda g, p: frontier.trace_rc_limit(g, p, _TINY), "c34", True),
}


@pytest.mark.parametrize("name", _GAIN_MODES)
def test_every_view_and_tracer_checks_its_gain_mode(name, ref_gains, ref_powers):
    """Each view and tracer raises InfiniteGain, or NotInfinite for a limit,
    when its own conferencing gain is in the other mode, and ignores the
    other link's gain."""
    call, link, limit = _GAIN_MODES[name]
    other = "c34" if link == "c12" else "c12"
    right = dataclasses.replace(ref_gains, **{link: math.inf if limit else 10.0})
    with pytest.raises(NotInfinite if limit else InfiniteGain):
        call(dataclasses.replace(right, **{link: 10.0 if limit else math.inf}), ref_powers)
    for g in (right, dataclasses.replace(right, **{other: math.inf})):
        call(g, ref_powers)
