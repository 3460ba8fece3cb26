"""Tests for the observability subsystem: spans, traces, and the
telemetry-threaded placer."""

from __future__ import annotations

import importlib
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import (
    KraftwerkPlacer,
    NULL_TELEMETRY,
    PlacerConfig,
    SpanRecorder,
    Telemetry,
    final_placement,
    read_trace_jsonl,
)
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.netlist.placement import placement_hash
from repro.observability import (
    NullRecorder,
    NullTelemetry,
    Span,
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
        assert rec.totals() == {}
        assert list(rec.walk()) == []


class TestTraceRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        tel = Telemetry()
        with tel.span("place") as span:
            span.add("cells", 60)
            with tel.span("density"):
                pass
        path = tmp_path / "trace.jsonl"
        tel.write_trace(path)

        events = read_trace_jsonl(path)
        assert events[0] == {"type": "header", "schema": TRACE_SCHEMA}
        spans = [e for e in events if e["type"] == "span"]
        by_name = {e["name"]: e for e in spans}
        assert by_name["place"]["depth"] == 0
        assert by_name["place"]["counters"] == {"cells": 60}
        assert by_name["density"]["depth"] == 1
        assert by_name["density"]["ts"] >= 0.0

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

    def test_noop_recorder_leaves_result_untouched(self, tiny_circuit):
        placer = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, PlacerConfig()
        )
        assert placer.telemetry is NULL_TELEMETRY
        placer.place(max_iterations=3)

    def test_null_telemetry_singleton_shape(self):
        # Spans are the one telemetry record: no metric streams, and no
        # switch that instrumented code could branch on.
        for tel in (Telemetry(), NullTelemetry()):
            for name in ("stream", "streams", "enabled"):
                assert not hasattr(tel, name), name
            assert not hasattr(tel.spans, "enabled")
        assert not hasattr(Span, "child_seconds")
        with pytest.raises(ImportError):
            importlib.import_module("repro.observability.metrics")

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


class TestOneRecord:
    """The span tree is the one telemetry record and ``history`` the one
    per-iteration record; a recorder does not switch on the diagnostics."""

    def test_recorder_alone_skips_hpwl_and_max_force(self, tiny_circuit):
        netlist, region = tiny_circuit.netlist, tiny_circuit.region
        plain = KraftwerkPlacer(netlist, region).place(max_iterations=5)
        traced = KraftwerkPlacer(
            netlist, region, telemetry=Telemetry()
        ).place(max_iterations=5)
        assert traced.history
        for stats in traced.history:
            assert np.isnan(stats.hpwl_m) and np.isnan(stats.max_force)
            assert np.isfinite(stats.overflow_fraction)
        assert placement_hash(traced.placement) == placement_hash(
            plain.placement
        )

        hooked = KraftwerkPlacer(
            netlist, region, telemetry=Telemetry()
        ).place(max_iterations=5, iteration_hook=lambda stats, _: None)
        for stats in hooked.history:
            assert np.isfinite(stats.hpwl_m) and stats.hpwl_m > 0
            assert np.isfinite(stats.max_force)
        assert placement_hash(hooked.placement) == placement_hash(
            plain.placement
        )

    def test_place_trace_is_spans_only(self, tmp_path):
        tel = Telemetry()
        repro.place("tiny", telemetry=tel, max_iterations=6)
        path = tel.write_trace(tmp_path / "place.trace.jsonl")
        events = read_trace_jsonl(path)
        assert events[0] == {"type": "header", "schema": TRACE_SCHEMA}
        assert {e["type"] for e in events[1:]} == {"span"}
        totals = tel.spans.totals()
        assert {"seconds", "count"} <= set(totals["iteration"])
        cg = sum(
            e.get("counters", {}).get("cg_iterations", 0.0) for e in events
        )
        assert cg > 0
        assert cg == sum(
            agg.get("cg_iterations", 0.0) for agg in totals.values()
        )

    def test_snapshot_with_phase_seconds_resumes(self, tiny_circuit, tmp_path):
        # Snapshots written before ``IterationStats.phase_seconds`` was
        # removed carry that key in every history row.
        netlist, region = tiny_circuit.netlist, tiny_circuit.region
        full = KraftwerkPlacer(netlist, region).place(max_iterations=8)
        ckpt = tmp_path / "old.ckpt.npz"
        KraftwerkPlacer(
            netlist, region,
            PlacerConfig(checkpoint_path=str(ckpt), checkpoint_every=4),
        ).place(max_iterations=4)
        snapshot = load_checkpoint(ckpt)
        old_rows = [
            dict(row, phase_seconds={"density": 0.001, "solve": 0.002})
            for row in snapshot.history
        ]
        save_checkpoint(ckpt, replace(snapshot, history=old_rows))
        resumed = KraftwerkPlacer(netlist, region).place(
            max_iterations=8, resume_from=ckpt
        )
        assert np.array_equal(resumed.placement.x, full.placement.x)
        assert np.array_equal(resumed.placement.y, full.placement.y)
        assert [s.iteration for s in resumed.history] == [
            s.iteration for s in full.history
        ]
