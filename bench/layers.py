"""Per-layer tracing of coopic by wrapping public module attributes.

A span is one call of a wrapped attribute: its label, the span that was open
when it began (its parent), its start and end times, and the exception type
if it raised.  Spans are kept in memory and written once, when the run ends.
Nothing is placed inside the program: wrappers replace module attributes
while a traced round runs and the originals are restored before any
untraced round.  A span's self time is its duration minus the time of the
spans directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

from coopic import bounds, cli, frontier, rxcoop, txcoop
from coopic.model import EvaluatorError

# (module, attribute) pairs that are wrapped; the label is "<module>.<attr>".
TARGETS = (
    (frontier, "minimize"),
    (frontier, "tc_allocation_from_vector"),
    (frontier, "rc_allocation_from_vector"),
    (frontier, "trace"),
    (frontier, "trace_tc_limit"),
    (frontier, "trace_rc_limit"),
    (frontier, "hull"),
    (txcoop, "tc_rate_pair"),
    (txcoop, "rdpc_rate_pair"),
    (txcoop, "tc_limit_rate_pair"),
    (rxcoop, "rc_rate_pair"),
    (rxcoop, "rc_limit_rate_pair"),
    (bounds, "relay_cutset_bound"),
    (bounds, "mimo_bc_sum_bound"),
    (bounds, "mimo_mac_sum_bound"),
    (bounds, "tc_outer_region"),
    (bounds, "rc_outer_region"),
    (bounds, "strong_ic_region"),
    (bounds, "bc_region_vertices"),
    (cli, "main"),
)

TRACES = ("frontier.trace", "frontier.trace_tc_limit", "frontier.trace_rc_limit")
DECODES = ("frontier.tc_allocation_from_vector", "frontier.rc_allocation_from_vector")
RATE_PAIRS = ("txcoop.tc_rate_pair", "txcoop.rdpc_rate_pair", "txcoop.tc_limit_rate_pair",
              "rxcoop.rc_rate_pair", "rxcoop.rc_limit_rate_pair")
OUTER_REGIONS = ("bounds.tc_outer_region", "bounds.rc_outer_region")

# EvaluatorError subclasses reported by name; any other subclass is counted
# under the base class name.
# Output-quality numbers; a workload reports the ones it computes, 0 elsewhere.
QUALITY_NAMES = ("quality.rdpc_area_bits2", "quality.rc_area_bits2",
                 "quality.nesting_gap_bits", "quality.tc_inf_hausdorff_bits",
                 "frontier.tc_area_bits2")

PENALTY_NAMES = ("EvaluatorError", "NegativeSnr", "NonPositiveDefinite", "Singular",
                 "InfiniteGain", "NotInfinite", "DegeneratePhase", "InvalidAllocation",
                 "NotStrongInterference")


def label(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def _unconverged(result) -> int:
    return 0 if result.success else 1


def _frontier_note(result) -> tuple[int, str]:
    return len(result.points), result.scheme


# Labels whose return value is reduced to a small note per span.
_OBSERVERS = {
    "frontier.minimize": _unconverged,
    "frontier.trace": _frontier_note,
    "frontier.trace_tc_limit": _frontier_note,
    "frontier.trace_rc_limit": _frontier_note,
}


class Tracer:
    """Span recorder over TARGETS; install it only for the duration of a round."""

    def __init__(self):
        self.labels = [label(m, a) for m, a in TARGETS]
        self.span_label = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors: dict[int, type] = {}
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, observe):
        lab, par, start, end = self.span_label, self.span_parent, self.span_start, self.span_end
        stack, errors, notes = self._stack, self.errors, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            lab.append(index)
            par.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                stack.pop()
                errors[sid] = type(exc)
                raise
            end[sid] = clock()
            stack.pop()
            if observe is not None:
                notes[sid] = observe(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for index, (module, attr) in enumerate(TARGETS):
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr,
                        self._wrap(index, original, _OBSERVERS.get(self.labels[index])))
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as flat arrays (label names are in ``self.labels``)."""
        n = len(self.span_start)
        err = np.full(n, -1, dtype=np.int32)
        names = list(PENALTY_NAMES)
        for sid, cls in self.errors.items():
            err[sid] = names.index(cls.__name__) if cls.__name__ in names else 0
        return {
            "label": np.frombuffer(self.span_label, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "error": err,
        }

    def save(self, path) -> None:
        np.savez(path, labels=np.array(self.labels), **self.arrays())

    def calls(self) -> dict[str, int]:
        counts = np.bincount(np.frombuffer(self.span_label, dtype=np.int32),
                             minlength=len(self.labels))
        return dict(zip(self.labels, (int(c) for c in counts)))


class Summary:
    """Per-layer totals of a tracer's spans, divided over ``rounds`` rounds."""

    def __init__(self, tracer: Tracer, rounds: int):
        spans = tracer.arrays()
        self.labels = tracer.labels
        self.rounds = max(rounds, 1)
        lab, parent = spans["label"], spans["parent"]
        dur = spans["end"] - spans["start"]
        inner = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(inner, parent[nested], dur[nested])
        self_time = dur - inner
        k = len(self.labels)
        self.count = np.bincount(lab, minlength=k)
        self.total = np.bincount(lab, weights=dur, minlength=k)
        self.self_total = np.bincount(lab, weights=self_time, minlength=k)

        index = {name: i for i, name in enumerate(self.labels)}
        trace_ids = {index[t] for t in TRACES}
        eval_ids = {index[t] for t in DECODES + RATE_PAIRS}
        rate_ids = {index[t] for t in RATE_PAIRS}
        minimize_id = index["frontier.minimize"]

        # Attribute every span to the trace it ran in (parents precede children).
        lab_list, parent_list = lab.tolist(), parent.tolist()
        owner_list = [-1] * len(lab_list)
        for sid, (code, up) in enumerate(zip(lab_list, parent_list)):
            if code in trace_ids:
                owner_list[sid] = sid
            elif up >= 0:
                owner_list[sid] = owner_list[up]
        owner = np.array(owner_list, dtype=np.int64)
        in_trace = owner >= 0
        is_eval = in_trace & np.isin(lab, list(eval_ids))
        is_rate = in_trace & np.isin(lab, list(rate_ids))
        n = len(lab)
        evals = np.bincount(owner[is_rate], minlength=n)
        eval_s = np.bincount(owner[is_eval], weights=dur[is_eval], minlength=n)
        penalized = np.bincount(owner[is_eval & (spans["error"] >= 0)], minlength=n)
        nm_runs = np.bincount(owner[in_trace & (lab == minimize_id)], minlength=n)
        self.traces = [
            {"scheme": tracer.notes.get(int(sid), (0, "?"))[1], "wall_s": float(dur[sid]),
             "vertices": tracer.notes.get(int(sid), (0, "?"))[0], "evals": int(evals[sid]),
             "eval_s": float(eval_s[sid]), "penalized": int(penalized[sid]),
             "minimize": int(nm_runs[sid])}
            for sid in np.flatnonzero(np.isin(lab, list(trace_ids)))]

        self.penalized = dict.fromkeys(PENALTY_NAMES, 0)
        for sid, cls in tracer.errors.items():
            if owner[sid] >= 0 and lab[sid] in eval_ids and issubclass(cls, EvaluatorError):
                name = cls.__name__ if cls.__name__ in self.penalized else "EvaluatorError"
                self.penalized[name] += 1
        self.unconverged = sum(v for sid, v in tracer.notes.items() if lab[sid] == minimize_id)

    def _i(self, name: str) -> int:
        return self.labels.index(name)

    def calls(self, *names: str) -> float:
        return sum(float(self.count[self._i(n)]) for n in names) / self.rounds

    def seconds(self, *names: str) -> float:
        return sum(float(self.total[self._i(n)]) for n in names) / self.rounds

    def self_seconds(self, *names: str) -> float:
        return sum(float(self.self_total[self._i(n)]) for n in names) / self.rounds

    def per_call(self, scale: float, *names: str) -> float:
        calls = self.calls(*names)
        return scale * self.seconds(*names) / calls if calls else 0.0


def per_layer_metrics(summary: Summary) -> dict[str, tuple[float, str]]:
    """Every span-derived per-layer metric as name -> (value, unit)."""
    s = summary
    traces = s.traces
    evals = sum(t["evals"] for t in traces)
    eval_s = sum(t["eval_s"] for t in traces)
    penalized = sum(t["penalized"] for t in traces)
    nm_runs = sum(t["minimize"] for t in traces)
    searched_vertices = sum(t["vertices"] for t in traces if t["minimize"])
    m: dict[str, tuple[float, str]] = {
        "frontier.decode.calls": (s.calls(*DECODES), "count"),
        "frontier.decode.us_per_call": (s.per_call(1e6, *DECODES), "us"),
    }
    for name in ("txcoop.tc_rate_pair", "txcoop.rdpc_rate_pair", "rxcoop.rc_rate_pair",
                 "txcoop.tc_limit_rate_pair"):
        m[f"{name}.calls"] = (s.calls(name), "count")
        m[f"{name}.us_per_call"] = (s.per_call(1e6, name), "us")
    m["rxcoop.rc_limit_rate_pair.calls"] = (s.calls("rxcoop.rc_limit_rate_pair"), "count")
    m.update({
        "frontier.trace.calls": (s.calls(*TRACES), "count"),
        "frontier.trace.wall_s": (s.seconds(*TRACES), "s"),
        "frontier.evals_per_trace": (evals / len(traces) if traces else 0.0, "count"),
        "frontier.us_per_eval": (1e6 * eval_s / evals if evals else 0.0, "us"),
        "frontier.eval_s": (eval_s / s.rounds, "s"),
        "frontier.penalized_frac": (penalized / evals if evals else 0.0, "1"),
    })
    for name, count in s.penalized.items():
        m[f"frontier.penalized.{name}"] = (count / s.rounds, "count")
    m.update({
        "frontier.minimize.calls": (s.calls("frontier.minimize"), "count"),
        "frontier.minimize.self_s": (s.self_seconds("frontier.minimize"), "s"),
        "frontier.minimize.unconverged": (s.unconverged / s.rounds, "count"),
        "frontier.vertex_yield": (searched_vertices / nm_runs if nm_runs else 0.0, "count"),
        "frontier.trace.self_s": (s.self_seconds(*TRACES), "s"),
        "frontier.hull.self_s": (s.self_seconds("frontier.hull"), "s"),
        "bounds.relay_cutset_bound.calls": (s.calls("bounds.relay_cutset_bound"), "count"),
        "bounds.relay_cutset_bound.ms_per_call":
            (s.per_call(1e3, "bounds.relay_cutset_bound"), "ms"),
        "bounds.mimo_bc_sum_bound.ms_per_call":
            (s.per_call(1e3, "bounds.mimo_bc_sum_bound"), "ms"),
        "bounds.bc_region_vertices.ms_per_call":
            (s.per_call(1e3, "bounds.bc_region_vertices"), "ms"),
        "bounds.outer_region.self_s": (s.self_seconds(*OUTER_REGIONS), "s"),
        "cli.main.self_s": (s.self_seconds("cli.main"), "s"),
    })
    return m
