"""Structured placement telemetry.

The placer's iterative loop (density → Poisson field → quadratic re-solve)
is a pipeline of hot phases; optimizing any of them starts with attributing
wall-clock and work counters to each.  This package provides:

- :mod:`~repro.observability.spans` — hierarchical span timers with
  counters and a zero-overhead null implementation,
- :mod:`~repro.observability.trace` — JSONL trace export of the span tree,
- :mod:`~repro.observability.events` — the service lifecycle event log
  (JSONL stream + counters + latency percentiles),
- :mod:`~repro.observability.bench` — the ``repro bench`` regression
  harness that seeds and regenerates ``BENCH_kraftwerk.json``
  (imported lazily by the CLI; importing it pulls in the placer).

Usage::

    from repro import KraftwerkPlacer, Telemetry

    tel = Telemetry()
    result = KraftwerkPlacer(netlist, region, telemetry=tel).place()
    print(tel.spans.totals()["density"]["seconds"])
    tel.write_trace("place.trace.jsonl")

Pass nothing and the placer runs against :data:`NULL_TELEMETRY`, whose
every operation is a no-op — instrumentation stays in the code at
effectively zero cost.  Telemetry records spans only: the per-iteration
record is :attr:`~repro.core.placer.PlacementResult.history`, and an
attached recorder does not make the placer compute its HPWL and max-force
columns (an ``iteration_hook``, ``verbose`` or a deadline does).
"""

from __future__ import annotations

import time
from typing import Callable

from .events import EVENT_SCHEMA, EventLog, latency_summary, percentile
from .spans import NullRecorder, NullSpan, NULL_RECORDER, Span, SpanRecorder
from .trace import (
    TRACE_SCHEMA,
    read_trace_jsonl,
    span_events,
    write_trace_jsonl,
)


class Telemetry:
    """Facade over a span recorder, with trace export."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans = SpanRecorder(clock)

    # -- spans ----------------------------------------------------------
    def span(self, name: str) -> Span:
        """A new nestable timed span (context manager)."""
        return self.spans.span(name)

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate a counter on the innermost open span."""
        self.spans.add(counter, value)

    # -- export ---------------------------------------------------------
    def write_trace(self, path) -> object:
        return write_trace_jsonl(path, self)


class NullTelemetry:
    """Telemetry-shaped no-op; the default for all instrumented code."""

    spans = NULL_RECORDER

    def span(self, name: str) -> NullSpan:
        return NULL_RECORDER.span(name)

    def add(self, counter: str, value: float = 1.0) -> None:
        pass


#: Shared no-op instance used as the default ``telemetry=`` everywhere.
NULL_TELEMETRY = NullTelemetry()


__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "latency_summary",
    "percentile",
    "NullRecorder",
    "NullSpan",
    "NULL_RECORDER",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "TRACE_SCHEMA",
    "read_trace_jsonl",
    "span_events",
    "write_trace_jsonl",
]
