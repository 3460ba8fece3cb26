"""Golden regression tests against the committed ``BENCH_kraftwerk.json``.

Two layers of pinning:

- the committed report itself must honor the acceptance envelope (medium
  legalize time and legalized HPWL, recorded ``large`` and ``huge``
  V-cycle runs, full wall-clock attribution, determinism everywhere) —
  catches a bad regeneration at commit time;
- the cheap sizes (tiny, small) are re-placed live and must reproduce the
  committed determinism hashes bit for bit — catches an algorithm drift
  that forgot to regenerate the report;
- tiny, small and medium are placed and legalized live and must reproduce
  pinned hashes of the legalized placement (and small's and medium's the
  committed legal HPWL exactly) — catches a drift in the final-placement
  stage, which the determinism hash does not cover.

When an intentional algorithm change shifts these numbers, regenerate via
``python -m repro bench --sizes tiny,small,medium,large,huge`` and commit
the new report together with the change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.observability.bench import run_bench

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kraftwerk.json"

#: Acceptance envelope for the medium size: the legalization stage (snap +
#: improve + domino + residual) must stay >= 7x under the scalar engine's
#: 0.510333 s, at equal-or-better legalized wire length.  (Observed runs
#: land at 0.04-0.06 s; the single-core bench machine jitters +-20 %, so
#: the gate sits above the noise band, not at the best-case run.)
MEDIUM_LEGALIZE_BUDGET_S = 0.0729047
MEDIUM_LEGAL_HPWL_BOUND_M = 0.6150796558488973

#: The large (100k-cell) bench must stay >= 2x under the pre-optimization
#: 76.25 s record.
LARGE_TOTAL_BUDGET_S = 38.0

#: The huge (1M-cell) flow — place + legalize, the acceptance metric —
#: must finish inside ten minutes.  (``total_seconds`` additionally pays
#: for circuit generation and the determinism double-run, which are bench
#: harness costs, not flow costs; they are budgeted separately below.)
HUGE_FLOW_BUDGET_S = 600.0
HUGE_TOTAL_BUDGET_S = 1200.0

#: ``repro.place(size, seed=0).positions_hash()``: the legalized (snapped
#: and improved) placement of each cheap bench size.
LEGALIZED_HASHES = {
    "tiny": "744f2df27fffa9c82c55d601588b18092b4751748d4e22948448ebfc7fc3628a",
    "small": "f103a17d0b9ea31583ccfef1bfa5ac111f9ccaae612e57eea1b917be5c7bdfd0",
    "medium": "d539fa40775d6f8a08e5a428a39ff5409852aa6a722f4e50e870e2b91313c2db",
}

pytestmark = pytest.mark.bench


def _legalize_seconds(run):
    phases = run["phases"]
    return (
        phases["snap"] + phases["improve"] + phases["domino"]
        + phases["legalize_other"]
    )


def _flow_seconds(run):
    """Place + legalize wall clock: everything except harness costs
    (circuit generation, the determinism repeat, hashing/evaluation)."""
    phases = run["phases"]
    harness = (
        phases["generate"] + phases["repeat"] + phases["evaluate"]
        + phases["other"]
    )
    return sum(phases.values()) - harness


@pytest.fixture(scope="module")
def report():
    assert BENCH_PATH.exists(), "BENCH_kraftwerk.json missing from repo root"
    data = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    # Compat shim: tolerate a pre-repro-bench/2 file (top-level mirror of
    # the first run) so the suite stays green across the migration commit.
    if "runs" not in data:  # pragma: no cover - defensive
        pytest.skip("bench report has no runs")
    return data


def _run(report, size):
    for run in report["runs"]:
        if run["size"] == size:
            return run
    raise AssertionError(f"no {size!r} run in committed bench report")


class TestCommittedReport:
    def test_runs_only_schema(self, report):
        assert report["schema"] == "repro-bench/2"
        # No per-run fields mirrored at the top level (the pre-v2 layout),
        # and no other record riding along.
        assert set(report) == {
            "schema", "generated_at", "sizes", "deterministic", "runs"
        }

    def test_deterministic_everywhere(self, report):
        assert report["deterministic"] is True
        for run in report["runs"]:
            assert run["determinism"]["deterministic"], run["size"]

    def test_covers_all_recorded_sizes(self, report):
        sizes = [run["size"] for run in report["runs"]]
        assert sizes == ["tiny", "small", "medium", "large", "huge"]

    def test_medium_legalize_budget(self, report):
        run = _run(report, "medium")
        assert run["legalized"] is True
        assert _legalize_seconds(run) <= MEDIUM_LEGALIZE_BUDGET_S

    def test_medium_legal_hpwl_bound(self, report):
        run = _run(report, "medium")
        assert run["final_hpwl_m"] <= MEDIUM_LEGAL_HPWL_BOUND_M

    def test_large_runs_the_v_cycle(self, report):
        run = _run(report, "large")
        assert run["multilevel_levels"] >= 1
        assert run["circuit"]["movable_cells"] == 100_000
        assert run["phases"]["coarsen"] > 0.0
        assert run["vcycle_levels"], "no per-level V-cycle breakdown"
        assert run["determinism"]["deterministic"]

    def test_large_total_budget(self, report):
        run = _run(report, "large")
        assert run["total_seconds"] <= LARGE_TOTAL_BUDGET_S

    def test_huge_recorded_within_budget(self, report):
        run = _run(report, "huge")
        assert run["circuit"]["movable_cells"] == 1_000_000
        assert run["multilevel_levels"] >= 2
        assert run["legalized"] is True
        assert _flow_seconds(run) <= HUGE_FLOW_BUDGET_S
        assert run["total_seconds"] <= HUGE_TOTAL_BUDGET_S
        assert run["determinism"]["deterministic"]

    def test_phase_shares_recorded(self, report):
        for run in report["runs"]:
            info = run["phase_shares"]
            assert set(info["shares"]) == set(run["phases"])
            total = sum(info["shares"].values())
            assert total == pytest.approx(1.0, abs=0.02)

    def test_attribution_tracks_the_wall(self, report):
        # The named buckets (everything but "other") must explain at least
        # 90 % of every run's wall clock; on the scale sizes, at least 98 %.
        for run in report["runs"]:
            shares = run["phase_shares"]["shares"]
            named = sum(v for k, v in shares.items() if k != "other")
            floor = 0.98 if run["size"] in ("large", "huge") else 0.9
            assert named >= floor, (run["size"], named)

    def test_machine_context_recorded(self, report):
        for run in report["runs"]:
            machine = run["machine"]
            assert machine["cpu_count"] >= 1
            assert machine["numpy"] and machine["scipy"]


class TestLiveHashesMatchGolden:
    """Re-place the cheap sizes and compare against the committed hashes."""

    @pytest.mark.parametrize("size", ["tiny", "small"])
    def test_placement_hash_pinned(self, report, size):
        golden = _run(report, size)
        live = run_bench(size, seed=golden["seed"], legalize=False)
        assert live["determinism"]["hash"] == golden["determinism"]["hash"], (
            f"{size} placement drifted from the committed bench — if "
            "intentional, regenerate BENCH_kraftwerk.json"
        )
        assert live["iterations"] == golden["iterations"]

    def test_tiny_legalized_hpwl_pinned(self, report):
        golden = _run(report, "tiny")
        live = run_bench("tiny", seed=golden["seed"], legalize=True)
        assert live["final_hpwl_m"] == pytest.approx(
            golden["final_hpwl_m"], rel=1e-12
        )

    @pytest.mark.parametrize("size", ["tiny", "small", "medium"])
    def test_legalized_placement_pinned(self, report, size):
        """The whole flow, improver included, bit for bit: the bench hash
        covers only the global placement."""
        flow = repro.place(size, seed=0)
        assert flow.positions_hash() == LEGALIZED_HASHES[size], (
            f"{size} legalized placement drifted"
        )
        if size != "tiny":
            assert flow.final_hpwl_m == _run(report, size)["final_hpwl_m"]
