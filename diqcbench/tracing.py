"""Spans around the calls into diqc's layers, recorded from outside.

The program is not instrumented: ``install`` swaps module attributes for
wrappers for the length of a ``with`` block and puts the originals back
afterwards. Each wrapper sits under the name its caller looks up, so a call
is recorded where it crosses a layer boundary (``experiment.block_fidelity``
is the name ``experiment`` resolves, although the function lives in
``matrixcore``). ``numpy.linalg.eigvalsh`` is wrapped once and records a
``certify.eigvalsh`` span only when its caller is ``diqc.certify``.

Spans stay in memory as plain lists ``[name, start, end, parent, extra]`` and
are aggregated or written out when the run ends. Importing this module
imports no numpy, so a launcher can time ``import diqc.cli`` before it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time

# (module, attribute) of every function wrapped as "module.attribute"
TARGETS = (
    ("cli", "main"),
    ("cli", "load_or_solve_cutoff"),
    ("certify", "find_cutoff"),
    ("certify", "certify_instrument"),
    ("certify", "raw_pipeline_bound"),
    ("bell", "bell_operator_grid"),
    ("bell", "correlators_from_state"),
    ("quantum", "apply_instrument"),
    ("experiment", "simulate_run"),
    ("experiment", "oracle_choi_fidelity"),
    ("experiment", "end_to_end"),
    ("experiment", "block_fidelity"),
    ("matrixcore", "uhlmann_fidelity"),
)


def _grid_matrices(kind, a, b):
    """Matrices in the stack bell_operator_grid(kind, a, b) returns."""
    return {"matrices": math.prod(getattr(x, "size", 1) for x in (a, b))}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs, extra=None):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, extra or {}]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name, extra_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = extra_of(*args, **kwargs) if extra_of else None
            return self.call(name, fn, args, kwargs, extra)

        return wrapper

    def wrap_emit_rows(self, fn):
        """emit_rows writes to stdout; count the bytes that pass through."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = {"bytes": 0}
            real = sys.stdout
            sys.stdout = _CountingWriter(real, extra)
            try:
                return self.call("cli.emit_rows", fn, args, kwargs, extra)
            finally:
                sys.stdout = real

        return wrapper

    def wrap_eigvalsh(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != "diqc.certify":
                return fn(a, *args, **kwargs)
            matrices = math.prod(a.shape[:-2])
            extra = {"matrices": matrices, "bytes_in": matrices * 16 * a.itemsize}
            return self.call("certify.eigvalsh", fn, (a,) + args, kwargs, extra)

        return wrapper


class _CountingWriter:
    def __init__(self, inner, extra):
        self._inner = inner
        self._extra = extra

    def write(self, text):
        self._extra["bytes"] += len(text.encode("utf-8"))
        return self._inner.write(text)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    import numpy

    swaps = []
    for mod_name, attr in TARGETS:
        mod = importlib.import_module(f"diqc.{mod_name}")
        name = f"{mod_name}.{attr}"
        extra_of = _grid_matrices if name == "bell.bell_operator_grid" else None
        swaps.append((mod, attr, tracer.wrap(getattr(mod, attr), name, extra_of)))
    cli = importlib.import_module("diqc.cli")
    swaps.append((cli, "emit_rows", tracer.wrap_emit_rows(cli.emit_rows)))
    swaps.append((numpy.linalg, "eigvalsh", tracer.wrap_eigvalsh(numpy.linalg.eigvalsh)))
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in swaps]
    try:
        for mod, attr, wrapper in swaps:
            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# aggregation


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per name: calls, total seconds, self seconds and summed extras."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _, extra), inner in zip(spans, child_time):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - inner
        for key, val in extra.items():
            agg[key] = agg.get(key, 0) + val
    return out


def cache_counts(spans: list[list]) -> tuple[int, int]:
    """(hits, misses): a hit is a load_or_solve_cutoff with no find_cutoff inside."""
    solved = {parent for name, _, _, parent, _ in spans if name == "certify.find_cutoff"}
    loads = [i for i, span in enumerate(spans) if span[0] == "cli.load_or_solve_cutoff"]
    misses = sum(1 for i in loads if i in solved)
    return len(loads) - misses, misses


# per-layer metric -> (span name, field, unit, better)
LAYER_FIELDS = [
    ("certify.eigvalsh.calls", "certify.eigvalsh", "calls", "count", "lower"),
    ("certify.eigvalsh.matrices", "certify.eigvalsh", "matrices", "count", "lower"),
    ("certify.eigvalsh.s", "certify.eigvalsh", "s", "s", "lower"),
    ("certify.eigvalsh.bytes_in", "certify.eigvalsh", "bytes_in", "B", "lower"),
    ("certify.find_cutoff.calls", "certify.find_cutoff", "calls", "count", "lower"),
    ("certify.find_cutoff.s", "certify.find_cutoff", "s", "s", "lower"),
    ("certify.find_cutoff.self_s", "certify.find_cutoff", "self_s", "s", "lower"),
    ("bell.bell_operator_grid.calls", "bell.bell_operator_grid", "calls", "count", "lower"),
    ("bell.bell_operator_grid.s", "bell.bell_operator_grid", "s", "s", "lower"),
    ("bell.bell_operator_grid.matrices", "bell.bell_operator_grid", "matrices", "count", "lower"),
    ("bell.correlators_from_state.calls", "bell.correlators_from_state", "calls", "count", "lower"),
    ("bell.correlators_from_state.s", "bell.correlators_from_state", "s", "s", "lower"),
    ("quantum.apply_instrument.calls", "quantum.apply_instrument", "calls", "count", "lower"),
    ("quantum.apply_instrument.s", "quantum.apply_instrument", "s", "s", "lower"),
]
for _fn in ("simulate_run", "oracle_choi_fidelity", "end_to_end"):
    LAYER_FIELDS += [
        (f"experiment.{_fn}.calls", f"experiment.{_fn}", "calls", "count", "lower"),
        (f"experiment.{_fn}.s", f"experiment.{_fn}", "s", "s", "lower"),
        (f"experiment.{_fn}.self_s", f"experiment.{_fn}", "self_s", "s", "lower"),
    ]
for _span in ("experiment.block_fidelity", "matrixcore.uhlmann_fidelity",
              "certify.certify_instrument", "certify.raw_pipeline_bound"):
    LAYER_FIELDS += [
        (f"{_span}.calls", _span, "calls", "count", "lower"),
        (f"{_span}.s", _span, "s", "s", "lower"),
    ]
LAYER_FIELDS += [
    ("cli.main.calls", "cli.main", "calls", "count", "lower"),
    ("cli.main.s", "cli.main", "s", "s", "lower"),
    ("cli.main.self_s", "cli.main", "self_s", "s", "lower"),
    ("cli.load_or_solve_cutoff.s", "cli.load_or_solve_cutoff", "s", "s", "lower"),
    ("cli.emit_rows.calls", "cli.emit_rows", "calls", "count", "lower"),
    ("cli.emit_rows.s", "cli.emit_rows", "s", "s", "lower"),
    ("cli.emit_rows.bytes", "cli.emit_rows", "bytes", "B", "lower"),
]

# metrics computed from several spans, with their unit and better direction
DERIVED = [
    ("certify.eigvalsh.calls_per_solve", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.cache.hits", "count", "higher"),
    ("cli.cache.misses", "count", "lower"),
    ("cli.cache.hit_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_metrics(spans: list[list], import_s: float, overhead_s: float) -> dict:
    """Every per-layer metric, zero where the workload never reached the layer."""
    agg = summarize(spans)
    values = {metric: agg.get(span, {}).get(field, 0)
              for metric, span, field, _, _ in LAYER_FIELDS}
    solves = agg.get("certify.find_cutoff", {}).get("calls", 0)
    hits, misses = cache_counts(spans)
    values["certify.eigvalsh.calls_per_solve"] = (
        values["certify.eigvalsh.calls"] / solves if solves else 0)
    values["cli.import_s"] = import_s
    values["cli.cache.hits"] = hits
    values["cli.cache.misses"] = misses
    values["cli.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    values["trace.overhead_s"] = overhead_s
    units = {m: u for m, _, _, u, _ in LAYER_FIELDS} | {m: u for m, u, _ in DERIVED}
    return {m: {"value": values[m], "unit": units[m]} for m in units}
