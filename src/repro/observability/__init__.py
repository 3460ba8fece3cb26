"""Structured placement telemetry.

The placer's iterative loop (density → Poisson field → quadratic re-solve)
is a pipeline of hot phases; optimizing any of them starts with attributing
wall-clock and work counters to each.  This package provides:

- :mod:`~repro.observability.spans` — hierarchical span timers with
  counters and a zero-overhead null implementation,
- :mod:`~repro.observability.metrics` — per-iteration metric streams,
- :mod:`~repro.observability.trace` — JSONL trace export,
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
effectively zero cost.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from .events import EVENT_SCHEMA, EventLog, latency_summary, percentile
from .metrics import MetricStream, NullMetricStream, NULL_STREAM
from .spans import NullRecorder, NullSpan, NULL_RECORDER, Span, SpanRecorder
from .trace import (
    TRACE_SCHEMA,
    metric_events,
    read_trace_jsonl,
    span_events,
    write_trace_jsonl,
)


class Telemetry:
    """Facade bundling a span recorder with named metric streams."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans = SpanRecorder(clock)
        self._streams: Dict[str, MetricStream] = {}

    # -- spans ----------------------------------------------------------
    def span(self, name: str) -> Span:
        """A new nestable timed span (context manager)."""
        return self.spans.span(name)

    def add(self, counter: str, value: float = 1.0) -> None:
        """Accumulate a counter on the innermost open span."""
        self.spans.add(counter, value)

    # -- metric streams -------------------------------------------------
    def stream(self, name: str) -> MetricStream:
        """The named metric stream, created on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = MetricStream(name)
        return stream

    def streams(self) -> List[MetricStream]:
        return list(self._streams.values())

    # -- export ---------------------------------------------------------
    def write_trace(self, path) -> object:
        return write_trace_jsonl(path, self)


class NullTelemetry:
    """Telemetry-shaped no-op; the default for all instrumented code."""

    enabled = False

    spans = NULL_RECORDER

    def span(self, name: str) -> NullSpan:
        return NULL_RECORDER.span(name)

    def add(self, counter: str, value: float = 1.0) -> None:
        pass

    def stream(self, name: str) -> NullMetricStream:
        return NULL_STREAM

    def streams(self) -> List[MetricStream]:
        return []


#: Shared no-op instance used as the default ``telemetry=`` everywhere.
NULL_TELEMETRY = NullTelemetry()


__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "latency_summary",
    "percentile",
    "MetricStream",
    "NullMetricStream",
    "NULL_STREAM",
    "NullRecorder",
    "NullSpan",
    "NULL_RECORDER",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "TRACE_SCHEMA",
    "metric_events",
    "read_trace_jsonl",
    "span_events",
    "write_trace_jsonl",
]
