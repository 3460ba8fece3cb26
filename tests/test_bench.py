"""Tests for the ``repro bench`` regression harness and CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.observability.bench import (
    BENCH_SCHEMA,
    BENCH_SIZES,
    DEFAULT_SIZES,
    REPORT_PHASES,
    phase_shares,
    resolve_sizes,
    run_bench,
    write_bench_report,
)

pytestmark = pytest.mark.bench


class TestResolveSizes:
    def test_default_is_all_sizes(self):
        assert resolve_sizes(None) == ["tiny", "small", "medium"]
        assert resolve_sizes("all") == ["tiny", "small", "medium"]

    def test_comma_list(self):
        assert resolve_sizes("tiny,small") == ["tiny", "small"]
        assert resolve_sizes(" medium , tiny ") == ["medium", "tiny"]

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown bench size"):
            resolve_sizes("tiny,galactic")

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no bench sizes"):
            resolve_sizes(",,")


class TestRunBench:
    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown bench size"):
            run_bench("galactic")

    def test_tiny_report_shape(self):
        report = run_bench("tiny", seed=3)
        assert report["size"] == "tiny"
        assert report["iterations"] >= 1
        assert report["hpwl_m"] > 0
        assert report["final_hpwl_m"] > 0
        assert report["cg_iterations"] > 0
        assert list(report["phases"]) == list(REPORT_PHASES)
        for phase in ("setup", "density", "poisson", "solve", "snap",
                      "improve"):
            assert report["phases"][phase] > 0.0, f"no time in {phase!r}"
        det = report["determinism"]
        assert det["deterministic"]
        assert det["hash"] == det["repeat_hash"]
        assert len(det["hash"]) == 64  # sha256 hex

    def test_attribution_covers_the_wall(self):
        report = run_bench("tiny", seed=1)
        phases = report["phases"]
        # Every bucket is disjoint and the residual closes the budget, so
        # the sum reproduces the wall clock (up to per-bucket rounding).
        assert sum(phases.values()) == pytest.approx(
            report["total_seconds"], abs=1e-3
        )
        shares = report["phase_shares"]["shares"]
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.02)

    def test_machine_context_recorded(self):
        import numpy
        import scipy

        report = run_bench("tiny", seed=1, legalize=False)
        machine = report["machine"]
        assert machine["cpu_count"] >= 1
        assert machine["numpy"] == numpy.__version__
        assert machine["scipy"] == scipy.__version__
        assert machine["python"].count(".") == 2
        assert machine["platform"]

    def test_repeat_run_builds_its_own_setup(self, monkeypatch):
        # The determinism repeat is a fresh repro.place call: it builds
        # its own quadratic system, so the check covers setup too.
        from repro.core import quadratic

        built = []
        init = quadratic.QuadraticSystem.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(quadratic.QuadraticSystem, "__init__",
                            counting_init)
        report = run_bench("tiny", seed=1, legalize=False)
        assert len(built) == 2
        assert report["determinism"]["deterministic"]
        assert "reuse" not in report

    def test_profile_attaches_top_functions(self):
        report = run_bench("tiny", seed=1, profile=True)
        flow = report["profile"]["flow"]
        assert 0 < len(flow) <= 15
        top = flow[0]
        assert set(top) == {"function", "ncalls", "tottime", "cumtime"}
        assert top["cumtime"] > 0
        # Sorted by cumulative time, descending.
        cums = [row["cumtime"] for row in flow]
        assert cums == sorted(cums, reverse=True)
        # One profile of the one instrumented call: repro.place on top.
        assert "api.py:" in top["function"]
        assert top["function"].endswith("(place)")


class TestBenchCLI:
    def test_cli_writes_valid_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kraftwerk.json"
        trace = tmp_path / "bench.trace.jsonl"
        rc = main([
            "bench", "--sizes", "tiny", "--out", str(out),
            "--trace", str(trace),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "determinism ok" in stdout

        report = json.loads(out.read_text())
        assert report["schema"] == BENCH_SCHEMA
        assert report["sizes"] == ["tiny"]
        assert report["deterministic"] is True
        # Runs-only schema: per-size records live in "runs", nothing is
        # mirrored at the top level.
        assert set(report) == {
            "schema", "generated_at", "sizes", "deterministic", "runs"
        }
        run = report["runs"][0]
        assert run["iterations"] >= 1
        assert run["hpwl_m"] > 0
        for phase in ("density", "poisson", "solve", "snap", "improve"):
            assert run["phases"][phase] > 0.0
        # Trace written alongside, with a valid header line.
        first = json.loads(trace.read_text().splitlines()[0])
        assert first["type"] == "header"

    def test_cli_no_legalize(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--sizes", "tiny", "--no-legalize",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        run = report["runs"][0]
        assert run["legalized"] is False
        assert run["phases"]["snap"] == 0.0
        assert run["phases"]["improve"] == 0.0

    def test_write_bench_report_multi_size_keys(self, tmp_path):
        # Only exercise the tiny size twice to keep CI fast; the size
        # plumbing is identical for small/medium.
        report = write_bench_report(
            ["tiny"], out_path=tmp_path / "b.json", seed=1
        )
        assert (tmp_path / "b.json").exists()
        assert [r["size"] for r in report["runs"]] == ["tiny"]

    def test_bench_sizes_cover_cli_choices(self):
        # The default sweep stays tiny/small/medium; the scale sizes are
        # known but opt-in (never part of "all").
        assert {"tiny", "small", "medium"} == set(DEFAULT_SIZES)
        assert {"tiny", "small", "medium", "large", "huge"} == set(BENCH_SIZES)
        assert resolve_sizes("all") == list(DEFAULT_SIZES)
        assert resolve_sizes("large") == ["large"]

    def test_cli_sizes_flag(self, tmp_path):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--sizes", "tiny", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["sizes"] == ["tiny"]

    def test_cli_rejects_unknown_sizes(self, tmp_path, capsys):
        rc = main(["bench", "--sizes", "galactic",
                   "--out", str(tmp_path / "b.json")])
        assert rc == 2
        assert "unknown bench size" in capsys.readouterr().err


class TestAllocatorTuning:
    def test_opt_out_respected(self, monkeypatch):
        from repro import perf

        monkeypatch.setenv("REPRO_NO_MALLOC_TUNE", "1")
        monkeypatch.setattr(perf, "_tuned", False)
        monkeypatch.setattr(perf, "_mallopt", None)
        assert perf.tune_allocator() is False

    def test_idempotent_once_tuned(self, monkeypatch):
        from repro import perf

        monkeypatch.setattr(perf, "_tuned", True)
        assert perf.tune_allocator() is True


class TestPhaseShares:
    """Per-phase wall-time shares, top_phase, and the >40 % bottleneck flag."""

    def test_shares_and_bottleneck(self):
        info = phase_shares({"a": 3.0, "b": 1.0})
        assert info["shares"] == {"a": 0.75, "b": 0.25}
        assert info["top_phase"] == "a"
        assert info["bottleneck"] == "a"

    def test_even_split_fires_at_forty_percent(self):
        # 0.5 share each: top_phase is deterministic (first max) and the
        # >0.4 bottleneck threshold fires on it.
        info = phase_shares({"a": 1.0, "b": 1.0})
        assert info["top_phase"] == "a"
        assert info["bottleneck"] == "a"

    def test_below_threshold_still_reports_top_phase(self):
        info = phase_shares({"a": 2.0, "b": 2.0, "c": 1.0})
        assert info["shares"]["a"] == 0.4
        assert info["top_phase"] == "a"
        assert info["bottleneck"] is None  # 0.4 is not > 0.4

    def test_all_zero_is_well_defined(self):
        info = phase_shares({"a": 0.0, "b": 0.0})
        assert info["shares"] == {"a": 0.0, "b": 0.0}
        assert info["top_phase"] is None
        assert info["bottleneck"] is None

    def test_run_report_carries_shares(self):
        run = run_bench("tiny", legalize=False)
        info = run["phase_shares"]
        assert set(info["shares"]) == set(REPORT_PHASES)
        total = sum(info["shares"].values())
        assert total == pytest.approx(1.0, abs=0.01)
        assert info["top_phase"] in REPORT_PHASES
        assert run["total_seconds"] > 0
