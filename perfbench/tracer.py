"""Span tracer for the hrsp modules, installed from outside the package.

hrsp's modules import each other's functions by name (``from .noise import
apply_channel``), so a call resolves through the *caller's* module globals
and patching ``hrsp.noise.apply_channel`` alone records nothing. install()
therefore rebinds every public hrsp function under every module name that
holds it, with one wrapper per function so each call makes one span.

A span is [name, start, end, parent index, operation id, note]. Spans stay
in memory; callers write them out once, at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "pipeline", "noise", "protocol", "states", "linalg")

#: complex multiply-add = 8 real flops; one Kraus term is A rho and (A rho) A^dag
FLOP_PER_TERM = 2 * 8
#: per term: the two matmuls read 2 and write 1 matrix each, the accumulation
#: reads 2 and writes 1 (complex128, 16 bytes per entry; caches ignored)
MATRICES_MOVED_PER_TERM = 9


def _channel_shape(args, kwargs, result):
    """[Kraus terms, dimension] of one apply_channel call."""
    scenario = kwargs["scenario"] if "scenario" in kwargs else args[1]
    if scenario.correlated:
        slots = len(scenario.noisy_parties)
    else:
        slots = sum(len(scenario.layout.qubits_of(p))
                    for p in scenario.noisy_parties)
    return [len(scenario.kraus.operators) ** slots, result.shape[0]]


#: extra facts recorded on a span, computed from the call and its result
NOTES = {
    "pipeline.sweep": lambda args, kwargs, result: result.config.receiver,
    "pipeline.run_eta": lambda args, kwargs, result: result.boundary_extended,
    "protocol.oracle_find_correction":
        lambda args, kwargs, result: len(result.gates),
    "noise.apply_channel": _channel_shape,
}


class Tracer:
    """Records a span for every call of a public hrsp function."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module("hrsp")]
        modules += [importlib.import_module(f"hrsp.{m}") for m in LAYERS]
        wrappers = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("hrsp.")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._saved.append((module, name, obj))
                setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced


# --------------------------------------------------------------------------
# Per-layer metrics. Each list of spans comes from one process (parent
# indices are local to it); values are per traced operation.
UNITS = {"calls": "count", "count": "count", "busy_s": "s", "self_s": "s",
         "overhead_s": "s", "process_overhead_s": "s", "kraus_terms": "count",
         "candidates": "count", "gflop_computed": "GFLOP",
         "gb_computed": "GB", "gflop_per_s": "GFLOP/s"}

CALLS = ("pipeline.sweep", "pipeline.run_eta", "pipeline.noisy_protocol_state",
         "noise.apply_channel", "protocol.scenario_for",
         "protocol.build_measurement_operator",
         "protocol.oracle_find_correction", "protocol.branch_vector",
         "states.verify_factorization", "states.zeta_basis",
         "linalg.partial_trace", "linalg.psd_sqrt", "linalg.kron")
BUSY = ("cli.main", "pipeline.reduce_to_receiver", "pipeline.apply_correction",
        "pipeline.fidelity", "noise.apply_channel", "protocol.scenario_for",
        "protocol.build_measurement_operator",
        "protocol.oracle_find_correction", "protocol.verify_table",
        "protocol.branch_vector", "states.verify_factorization",
        "linalg.partial_trace", "linalg.psd_sqrt", "linalg.kron")
SELF = ("pipeline.run_eta",)
RECEIVERS = ("bob", "charlie", "david")


def _unit(metric: str) -> str:
    suffix = metric.rpartition(".")[2]
    return UNITS.get(suffix, "1")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(span_lists, traced_walls, overhead_s: float) -> dict:
    """Per-layer metrics, per traced operation, as {name: {value, unit}}.

    traced_walls are the traced operations' wall times; overhead_s is their
    median minus that of the same operations run untraced.
    """
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    hits = extended = candidates = kraus_terms = flop = moved = 0
    per_receiver = defaultdict(lambda: [0, 0])  # [channel reads, points]
    for spans in span_lists:
        child_time = defaultdict(float)
        channel_parents = set()
        for name, start, end, parent, _op, _note in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "noise.apply_channel":
                    channel_parents.add(parent)
        for i, (name, start, end, parent, _op, note) in enumerate(spans):
            calls[name] += 1
            busy[name] += end - start
            self_time[name] += end - start - child_time[i]
            if name == "pipeline.noisy_protocol_state":
                hits += i not in channel_parents
            elif name == "pipeline.run_eta":
                extended += bool(note)
            elif name == "protocol.oracle_find_correction" and note:
                candidates += sum(10 ** d for d in range(1, note + 1))
            elif name == "noise.apply_channel" and note:
                terms, dim = note
                kraus_terms += terms
                flop += terms * FLOP_PER_TERM * dim ** 3
                moved += terms * MATRICES_MOVED_PER_TERM * 16 * dim ** 2
            if name in ("pipeline.run_eta", "pipeline.noisy_protocol_state"):
                receiver = _sweep_receiver(spans, parent)
                if receiver:
                    per_receiver[receiver][name == "pipeline.run_eta"] += 1

    n = len(traced_walls)
    values = {f"{name}.calls": calls[name] / n for name in CALLS}
    values.update({f"{name}.busy_s": busy[name] / n for name in BUSY})
    values.update({f"{name}.self_s": self_time[name] / n for name in SELF})
    cli_ops = calls["cli.main"] > 0
    values["cli.process_overhead_s"] = (
        (sum(traced_walls) - busy["cli.main"]) / n if cli_ops else 0.0)
    reads = calls["pipeline.noisy_protocol_state"]
    points = calls["pipeline.run_eta"]
    values["pipeline.noisy_protocol_state.hit_ratio"] = _ratio(hits, reads)
    values["pipeline.evaluations_per_point"] = _ratio(reads, points)
    for receiver in RECEIVERS:
        r_reads, r_points = per_receiver[receiver]
        values[f"pipeline.evaluations_per_point.{receiver}"] = _ratio(
            r_reads, r_points)
    values["pipeline.boundary_extended.count"] = extended / n
    values["noise.apply_channel.kraus_terms"] = kraus_terms / n
    values["noise.apply_channel.gflop_computed"] = flop / 1e9 / n
    values["noise.apply_channel.gb_computed"] = moved / 1e9 / n
    values["noise.apply_channel.gflop_per_s"] = _ratio(
        flop / 1e9, busy["noise.apply_channel"])
    values["protocol.oracle_find_correction.candidates"] = candidates / n
    values["protocol.oracle.useful_ratio"] = _ratio(
        calls["protocol.oracle_find_correction"], candidates)
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": v, "unit": _unit(name)}
            for name, v in sorted(values.items())}


def _sweep_receiver(spans, parent: int):
    """Receiver of the innermost enclosing pipeline.sweep span, if any."""
    while parent >= 0:
        name, _s, _e, grand, _op, note = spans[parent]
        if name == "pipeline.sweep":
            return note
        parent = grand
    return None
