"""Spans around the public functions of each linkstat module.

The tracer replaces a function at every name its callers look it up by
(``linkstat.modeswitch.predict_opening``, ``linkstat.design.evaluate_design``
and so on), records one span per call while it is recording, and puts
the originals back on ``uninstall``.  A span is
``[name, start_ns, end_ns, parent, op, size]``: ``parent`` indexes the
enclosing span (-1 at the top), ``op`` is the benchmark operation it
served, and ``size`` is an optional per-call figure such as rows read.
Spans stay in memory until the run writes them out; ``drop_from`` lets
the run discard the spans of an operation that does not fit its budget.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from typing import Any, Callable, Iterator

_MODULES = ("linkstat", "linkstat.model", "linkstat.statics", "linkstat.modeswitch",
            "linkstat.paramfile", "linkstat.design", "linkstat.cli")


def _rows(args: tuple, result: Any) -> int:
    return len(result)


def _compared_rows(args: tuple, result: Any) -> int:
    return len(result.rows)


def _grid_points(args: tuple, result: Any) -> int:
    return len(result.samples)


def _command(args: tuple, result: Any) -> str:
    argv = args[0] if args else None
    return argv[0] if argv else ""


# Span name -> (home module, function name, size of one call or None).
TRACED: dict[str, tuple[str, str, Callable | None]] = {
    "paramfile.parse_parameter_document": ("linkstat.paramfile", "parse_parameter_document", None),
    "paramfile.parse_design_file": ("linkstat.paramfile", "parse_design_file", None),
    "paramfile.read_measurements": ("linkstat.paramfile", "read_measurements", _rows),
    "paramfile.compare_measurements": ("linkstat.paramfile", "compare_measurements", _compared_rows),
    "model.validate_parameters": ("linkstat.model", "validate_parameters", None),
    "statics.predict_opening": ("linkstat.statics", "predict_opening", None),
    "statics.assemble_system": ("linkstat.statics", "assemble_system", None),
    "statics.full_equilibrium": ("linkstat.statics", "full_equilibrium", None),
    "modeswitch.sweep": ("linkstat.modeswitch", "sweep_points", _grid_points),
    "modeswitch.opening_interval": ("linkstat.modeswitch", "opening_interval", None),
    "design.evaluate_design": ("linkstat.design", "evaluate_design", None),
    "design.optimize_design": ("linkstat.design", "optimize_design", None),
    "cli.main": ("linkstat.cli", "main", _command),
}


class Tracer:
    """Records spans inside ``active``, except where ``paused``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.recording = False
        self.op = -1
        self.dropped: set[str] = set()  # names of spans discarded by drop_from
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, size: Callable | None) -> Callable:
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self._stack
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [sys.modules[m] for m in _MODULES]
        for name, (home, attr, size) in TRACED.items():
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original, size)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        # with_values is a method: callers reach it through the class.
        cls = sys.modules["linkstat.model"].LinkageParameters
        original = cls.with_values
        self._undo.append((cls, "with_values", original))
        cls.with_values = self._wrap("model.with_values", original, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        """Install the wrappers and record, for the ``with`` body only."""
        self.install()
        self.recording = True
        try:
            yield
        finally:
            self.recording = False
            self.uninstall()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def drop_from(self, first: int) -> None:
        """Discard the spans from index ``first`` on, noting their names."""
        self.dropped.update(s[0] for s in self.spans[first:])
        del self.spans[first:]

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _durations(spans: list[list], name: str, keep=None) -> list[float]:
    return [(s[2] - s[1]) / 1e3 for s in spans
            if s[0] == name and (keep is None or keep(s))]


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _child_counts(spans: list[list], child: str, parents: set[str]) -> int:
    return sum(1 for s in spans if s[0] == child and s[3] >= 0
               and spans[s[3]][0] in parents)


def _count(spans: list[list], name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _per_row(spans: list[list], name: str) -> float | None:
    picked = [s for s in spans if s[0] == name]
    rows = sum(s[5] for s in picked)
    return _ratio(sum((s[2] - s[1]) / 1e3 for s in picked), rows)


def _optimize_self_ms(spans: list[list]) -> float | None:
    """optimize_design span minus the time of its evaluate_design children."""
    own = {i: s[2] - s[1] for i, s in enumerate(spans) if s[0] == "design.optimize_design"}
    for s in spans:
        if s[0] == "design.evaluate_design" and s[3] in own:
            own[s[3]] -= s[2] - s[1]
    return _median([v / 1e6 for v in own.values()])


DEFAULT_GRID_POINTS = 241

# Per-layer metric -> (unit, the span it is measured from, function of the
# span list; None = not called).
LAYER_METRICS: dict[str, tuple[str, str, Callable[[list[list]], float | None]]] = {
    "paramfile.parse_parameter_document_us": (
        "us", "paramfile.parse_parameter_document",
        lambda sp: _median(_durations(sp, "paramfile.parse_parameter_document"))),
    "paramfile.parse_design_file_us": (
        "us", "paramfile.parse_design_file",
        lambda sp: _median(_durations(sp, "paramfile.parse_design_file"))),
    "paramfile.read_measurements_us_per_row": (
        "us", "paramfile.read_measurements",
        lambda sp: _per_row(sp, "paramfile.read_measurements")),
    "paramfile.compare_measurements_us_per_row": (
        "us", "paramfile.compare_measurements",
        lambda sp: _per_row(sp, "paramfile.compare_measurements")),
    "model.validate_parameters_us": (
        "us", "model.validate_parameters",
        lambda sp: _median(_durations(sp, "model.validate_parameters"))),
    "model.with_values_us": (
        "us", "model.with_values", lambda sp: _median(_durations(sp, "model.with_values"))),
    "statics.predict_opening_us": (
        "us", "statics.predict_opening",
        lambda sp: _median(_durations(sp, "statics.predict_opening"))),
    "statics.assemble_system_us": (
        "us", "statics.assemble_system",
        lambda sp: _median(_durations(sp, "statics.assemble_system"))),
    "statics.assemble_per_verdict": (
        "count", "statics.predict_opening", lambda sp: _ratio(
            _child_counts(sp, "statics.assemble_system", {"statics.predict_opening"}),
            _count(sp, "statics.predict_opening"))),
    "statics.full_equilibrium_us": (
        "us", "statics.full_equilibrium",
        lambda sp: _median(_durations(sp, "statics.full_equilibrium"))),
    "modeswitch.sweep_ms": (
        "ms", "modeswitch.sweep", lambda sp: _median([d / 1e3 for d in _durations(
            sp, "modeswitch.sweep", lambda s: s[5] == DEFAULT_GRID_POINTS)])),
    "modeswitch.opening_interval_ms": (
        "ms", "modeswitch.opening_interval", lambda sp: _median([d / 1e3 for d in _durations(
            sp, "modeswitch.opening_interval")])),
    "modeswitch.verdicts_per_envelope": (
        "count", "modeswitch.opening_interval", lambda sp: _ratio(
            _child_counts(sp, "statics.predict_opening",
                          {"modeswitch.sweep", "modeswitch.opening_interval"}),
            _count(sp, "modeswitch.opening_interval"))),
    "design.evaluate_design_ms": (
        "ms", "design.evaluate_design",
        lambda sp: _median([d / 1e3 for d in _durations(sp, "design.evaluate_design")])),
    "design.evaluations_per_search": (
        "count", "design.optimize_design", lambda sp: _ratio(
            _child_counts(sp, "design.evaluate_design", {"design.optimize_design"}),
            _count(sp, "design.optimize_design"))),
    "design.optimize_self_ms": ("ms", "design.optimize_design", _optimize_self_ms),
    "cli.main_sweep_ms": (
        "ms", "cli.main", lambda sp: _median([d / 1e3 for d in _durations(
            sp, "cli.main", lambda s: s[5] == "sweep")])),
    "cli.main_ms": (
        "ms", "cli.main", lambda sp: _median([d / 1e3 for d in _durations(
            sp, "cli.main", lambda s: s[5] != "sweep")])),
}


def layer_metrics(spans: list[list], probe_spans: list[list],
                  dropped: set[str]) -> tuple[dict, list[str]]:
    """Per-layer figures from the workload's spans.

    A layer the workload never calls takes its figure from the probe's
    spans instead; the names of those metrics are returned alongside.  A
    layer the workload did call, but whose spans were all dropped for the
    span budget, is an error rather than a probe figure.
    """
    out: dict[str, dict] = {}
    probed: list[str] = []
    for name, (unit, source, fn) in LAYER_METRICS.items():
        value = fn(spans)
        if value is None:
            if source in dropped:
                raise RuntimeError(f"the workload's {source} spans were all dropped "
                                   f"for the span budget, so {name} has no figure")
            value = fn(probe_spans)
            probed.append(name)
        if value is None:
            raise RuntimeError(f"no span measures {name}")
        out[name] = {"value": value, "unit": unit}
    return out, probed


def span_counts(spans: list[list]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for s in spans:
        counts[s[0]] = counts.get(s[0], 0) + 1
    return counts
