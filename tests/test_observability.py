"""Tests for the observability subsystem: spans, metrics, traces, and the
telemetry-threaded placer."""

from __future__ import annotations

import pytest

from repro import (
    KraftwerkPlacer,
    NULL_TELEMETRY,
    PlacerConfig,
    SpanRecorder,
    Telemetry,
    final_placement,
    read_trace_jsonl,
)
from repro.observability import (
    MetricStream,
    NullRecorder,
    NullTelemetry,
    TRACE_SCHEMA,
    span_events,
)


class TestSpanRecorder:
    def test_nesting_builds_a_tree(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner_a"):
                pass
            with rec.span("inner_b"):
                with rec.span("leaf"):
                    pass
        assert len(rec.roots) == 1
        outer = rec.roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        assert rec.current() is None

    def test_span_seconds_monotonic_and_contained(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        outer = rec.roots[0]
        inner = outer.children[0]
        assert outer.seconds >= inner.seconds >= 0.0

    def test_fake_clock_gives_exact_durations(self):
        ticks = iter([0.0, 1.0, 3.0, 10.0])
        rec = SpanRecorder(clock=lambda: next(ticks))
        with rec.span("outer"):  # starts at 0.0
            with rec.span("inner"):  # 1.0 .. 3.0
                pass
        outer = rec.roots[0]
        assert outer.seconds == 10.0
        assert outer.children[0].seconds == 2.0
        assert outer.child_seconds() == {"inner": 2.0}

    def test_counter_accumulation(self):
        rec = SpanRecorder()
        with rec.span("work") as span:
            span.add("items", 3)
            rec.add("items", 2)  # routes to the innermost open span
            rec.add("errors")
        assert span.counters == {"items": 5.0, "errors": 1.0}

    def test_add_outside_any_span_is_ignored(self):
        rec = SpanRecorder()
        rec.add("orphan", 5)
        assert rec.totals() == {}

    def test_totals_aggregates_same_name_spans(self):
        ticks = iter([0.0, 1.0, 2.0, 5.0])
        rec = SpanRecorder(clock=lambda: next(ticks))
        with rec.span("phase") as s1:
            s1.add("n", 1)
        with rec.span("phase") as s2:
            s2.add("n", 4)
        totals = rec.totals()
        assert totals["phase"]["count"] == 2
        assert totals["phase"]["seconds"] == 4.0
        assert totals["phase"]["n"] == 5.0

    def test_null_recorder_is_inert(self):
        rec = NullRecorder()
        with rec.span("anything") as span:
            span.add("x", 1)
            rec.add("y", 2)
        assert span.seconds == 0.0
        assert span.child_seconds() == {}
        assert rec.totals() == {}
        assert list(rec.walk()) == []
        assert not rec.enabled


class TestMetricStream:
    def test_record_and_series(self):
        stream = MetricStream("iterations")
        stream.record(iteration=0, hpwl_m=2.0)
        stream.record(iteration=1, hpwl_m=1.5, extra=7)
        assert len(stream) == 2
        assert stream.series("hpwl_m") == [2.0, 1.5]
        assert stream.series("extra") == [7]
        assert stream.last == {"iteration": 1, "hpwl_m": 1.5, "extra": 7}

    def test_telemetry_stream_factory_reuses_instances(self):
        tel = Telemetry()
        assert tel.stream("a") is tel.stream("a")
        assert tel.stream("a") is not tel.stream("b")
        assert {s.name for s in tel.streams()} == {"a", "b"}


class TestTraceRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        tel = Telemetry()
        with tel.span("place") as span:
            span.add("cells", 60)
            with tel.span("density"):
                pass
        tel.stream("iterations").record(iteration=0, hpwl_m=1.25)
        path = tmp_path / "trace.jsonl"
        tel.write_trace(path)

        events = read_trace_jsonl(path)
        assert events[0] == {"type": "header", "schema": TRACE_SCHEMA}
        spans = [e for e in events if e["type"] == "span"]
        metrics = [e for e in events if e["type"] == "metric"]
        by_name = {e["name"]: e for e in spans}
        assert by_name["place"]["depth"] == 0
        assert by_name["place"]["counters"] == {"cells": 60}
        assert by_name["density"]["depth"] == 1
        assert by_name["density"]["ts"] >= 0.0
        assert metrics == [
            {
                "type": "metric",
                "stream": "iterations",
                "row": {"iteration": 0, "hpwl_m": 1.25},
            }
        ]

    def test_span_events_empty_recorder(self):
        assert span_events(SpanRecorder()) == []


class TestPlacerIntegration:
    def test_placer_records_all_phases(self, tiny_circuit):
        tel = Telemetry()
        placer = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, PlacerConfig(),
            telemetry=tel,
        )
        result = placer.place(max_iterations=3)
        totals = tel.spans.totals()
        for phase in ("place", "iteration", "assemble", "density", "poisson",
                      "sample", "hold", "solve", "stats"):
            assert phase in totals, f"missing span {phase!r}"
            assert totals[phase]["seconds"] > 0.0
        assert totals["iteration"]["count"] == result.iterations
        # CG counters land on the hold/solve spans.
        assert totals["solve"]["cg_iterations"] > 0
        # Per-iteration stream mirrors the history.
        stream = tel.stream("iterations")
        assert len(stream) == result.iterations
        assert stream.series("hpwl_m") == [s.hpwl_m for s in result.history]
        row = stream.last
        assert {"s_density", "s_poisson", "s_solve", "s_hold"} <= set(row)
        # Phase seconds attach to every IterationStats.
        assert all(s.phase_seconds.get("density", 0) > 0 for s in result.history)

    def test_noop_recorder_leaves_result_untouched(self, tiny_circuit):
        placer = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, PlacerConfig()
        )
        assert placer.telemetry is NULL_TELEMETRY
        result = placer.place(max_iterations=3)
        assert all(s.phase_seconds == {} for s in result.history)

    def test_null_telemetry_singleton_shape(self):
        tel = NullTelemetry()
        assert tel.streams() == []
        assert len(tel.stream("whatever")) == 0

    def test_legalize_spans(self, tiny_circuit):
        tel = Telemetry()
        placer = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, PlacerConfig(),
            telemetry=tel,
        )
        result = placer.place()
        final_placement(result.placement, tiny_circuit.region, telemetry=tel)
        totals = tel.spans.totals()
        assert totals["legalize"]["seconds"] > 0.0
        assert "snap" in totals and "improve" in totals

    def test_telemetry_does_not_change_placement(self, tiny_circuit):
        cfg = PlacerConfig(seed=7)
        plain = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, cfg
        ).place(max_iterations=5)
        traced = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, cfg,
            telemetry=Telemetry(),
        ).place(max_iterations=5)
        assert (plain.placement.x == traced.placement.x).all()
        assert (plain.placement.y == traced.placement.y).all()
