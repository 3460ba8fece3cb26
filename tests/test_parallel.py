"""Parallel batch engine + repro.api facade tests.

The batch engine's contract is: per-job results are bit-identical to a
serial run at the same seeds regardless of worker count, one diverged job
never kills its siblings, and observability output merges per-job traces
into one summary.  Worker counts here stay small (0/1/2) so the suite runs
on single-core CI boxes.
"""

import json
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import (
    BatchResult,
    FlowResult,
    JobResult,
    KraftwerkPlacer,
    PlacementJob,
    PlacerConfig,
    place,
    run_batch,
)
from repro.api import region_for_netlist, resolve_source
from repro.netlist import GeneratorSpec, generate_circuit, save_bookshelf, save_netlist
from repro.observability import read_trace_jsonl
from repro.parallel import resolve_mp_context, resolve_workers
from repro.testing.faults import KILL_EXIT_CODE


@pytest.fixture(scope="module")
def tiny_circuit():
    return generate_circuit(
        GeneratorSpec(name="tiny", seed=0, num_cells=60, num_rows=4)
    )


def tiny_jobs(seeds, **kwargs):
    kwargs.setdefault("legalize", False)
    kwargs.setdefault("max_iterations", 8)
    return [PlacementJob(source="tiny", seed=s, **kwargs) for s in seeds]


# ----------------------------------------------------------------------
# PlacerConfig serialization round-trip
# ----------------------------------------------------------------------
class TestConfigSerialization:
    def test_round_trip(self):
        cfg = PlacerConfig(K=1.0, net_model="b2b", seed=7,
                           deadline_seconds=3.0, checkpoint_every=5)
        assert PlacerConfig.from_dict(cfg.to_dict()) == cfg

    def test_default_round_trip(self):
        assert PlacerConfig.from_dict(PlacerConfig().to_dict()) == PlacerConfig()
        assert PlacerConfig.from_dict(None) == PlacerConfig()
        assert PlacerConfig.from_dict({}) == PlacerConfig()

    def test_dict_is_json_safe(self):
        blob = json.dumps(PlacerConfig().to_dict())
        assert PlacerConfig.from_dict(json.loads(blob)) == PlacerConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown PlacerConfig keys"):
            PlacerConfig.from_dict({"no_such_knob": 1})

    def test_from_args(self):
        import argparse

        ns = argparse.Namespace(
            fast=True, net_model="b2b", seed=3, verbose=False,
            deadline=2.5, checkpoint="/tmp/x.npz", checkpoint_every=4,
        )
        cfg = PlacerConfig.from_args(ns)
        assert cfg.K == 1.0
        assert cfg.net_model == "b2b"
        assert cfg.seed == 3
        assert cfg.deadline_seconds == 2.5
        assert cfg.checkpoint_path == "/tmp/x.npz"
        assert cfg.checkpoint_every == 4

    def test_from_args_partial_namespace(self):
        import argparse

        cfg = PlacerConfig.from_args(argparse.Namespace())
        assert cfg == PlacerConfig()
        cfg = PlacerConfig.from_args(argparse.Namespace(), seed=9)
        assert cfg.seed == 9

    def test_checkpoint_carries_config(self, tiny_circuit, tmp_path):
        from repro.core import load_checkpoint

        ckpt = tmp_path / "c.npz"
        cfg = PlacerConfig(checkpoint_path=str(ckpt), checkpoint_every=2)
        KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, cfg
        ).place(max_iterations=2)
        loaded = load_checkpoint(ckpt)
        assert PlacerConfig.from_dict(loaded.config) == cfg


# ----------------------------------------------------------------------
# Result objects: frozen, picklable
# ----------------------------------------------------------------------
class TestResultObjects:
    def test_placement_result_frozen_and_picklable(self, tiny_circuit):
        result = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region
        ).place(max_iterations=3)
        with pytest.raises(Exception):
            result.converged = True
        clone = pickle.loads(pickle.dumps(result))
        assert np.array_equal(clone.placement.x, result.placement.x)
        assert clone.iterations == result.iterations
        assert clone.history[0].seconds == result.history[0].seconds
        assert (
            clone.history[0].empty_square_ratio
            == result.history[0].empty_square_ratio
        )

    def test_flow_result_frozen_and_picklable(self):
        flow = place("tiny", legalize=True, seed=0, max_iterations=6)
        with pytest.raises(Exception):
            flow.hpwl_m = 0.0
        clone = pickle.loads(pickle.dumps(flow))
        assert clone.final_hpwl_m == flow.final_hpwl_m
        assert np.array_equal(clone.final.x, flow.final.x)
        assert clone.config == flow.config

    def test_flow_result_summary_json_safe(self):
        flow = place("tiny", legalize=False, seed=0, max_iterations=4)
        summary = json.loads(json.dumps(flow.summary()))
        assert summary["name"] == "tiny"
        assert summary["legal_hpwl_m"] is None
        assert summary["final_hpwl_m"] == flow.hpwl_m


# ----------------------------------------------------------------------
# The place() facade
# ----------------------------------------------------------------------
class TestPlaceFacade:
    def test_accepts_generated_circuit(self, tiny_circuit):
        flow = place(tiny_circuit, legalize=False, max_iterations=4)
        assert flow.name == "tiny"
        assert flow.hpwl_m > 0

    def test_accepts_netlist_with_derived_region(self, tiny_circuit):
        flow = place(tiny_circuit.netlist, legalize=False, max_iterations=4)
        assert flow.iterations >= 1

    def test_accepts_netlist_region_tuple(self, tiny_circuit):
        flow = place(
            (tiny_circuit.netlist, tiny_circuit.region),
            legalize=False, max_iterations=4,
        )
        assert flow.name == tiny_circuit.netlist.name

    def test_accepts_suite_name_and_bench_size(self):
        assert place("tiny", legalize=False, max_iterations=3).name == "tiny"
        flow = place("fract", scale=0.3, legalize=False, max_iterations=3)
        assert flow.name == "fract"

    def test_accepts_netlist_file(self, tiny_circuit, tmp_path):
        path = tmp_path / "tiny.netlist"
        save_netlist(tiny_circuit.netlist, path)
        flow = place(str(path), legalize=False, max_iterations=3)
        assert flow.iterations >= 1

    def test_accepts_bookshelf_aux(self, tiny_circuit, tmp_path):
        aux = save_bookshelf(
            tiny_circuit.netlist, tiny_circuit.region, tmp_path / "tiny"
        )
        flow = place(aux, legalize=False, max_iterations=3)
        assert flow.iterations >= 1

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="cannot resolve"):
            place("no-such-circuit-anywhere")
        with pytest.raises(TypeError):
            place(12345)

    def test_seed_wins_over_config(self):
        cfg = PlacerConfig(seed=99)
        flow = place("tiny", config=cfg, seed=5, legalize=False,
                     max_iterations=3)
        assert flow.seed == 5
        assert flow.config["seed"] == 5
        assert cfg.seed == 99  # caller's config untouched

    def test_matches_manual_flow_bitwise(self, tiny_circuit):
        flow = place(tiny_circuit, legalize=False, seed=0)
        manual = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, PlacerConfig(seed=0)
        ).place()
        assert np.array_equal(flow.placement.x, manual.placement.x)
        assert np.array_equal(flow.placement.y, manual.placement.y)

    def test_legalize_produces_legal_result(self):
        flow = place("tiny", legalize=True, seed=0)
        assert flow.legalized is not None
        assert flow.legal_hpwl_m == flow.final_hpwl_m
        assert flow.final is flow.legalized

    def test_region_for_netlist(self, tiny_circuit):
        region = region_for_netlist(tiny_circuit.netlist, 0.5)
        denser = region_for_netlist(tiny_circuit.netlist, 0.9)
        assert region.width * region.height > denser.width * denser.height

    def test_resolve_source_explicit_region_wins(self, tiny_circuit):
        _, region, _ = resolve_source(
            tiny_circuit.netlist, region=tiny_circuit.region
        )
        assert region is tiny_circuit.region


# ----------------------------------------------------------------------
# Batch determinism: same seeds -> same HPWLs at any worker count
# ----------------------------------------------------------------------
class TestBatchDeterminism:
    @pytest.fixture(scope="class")
    def serial_batch(self):
        return run_batch(tiny_jobs(range(4)), workers=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_matches_serial_bitwise(self, serial_batch, workers):
        batch = run_batch(tiny_jobs(range(4)), workers=workers)
        assert batch.hpwls == serial_batch.hpwls
        for a, b in zip(batch.jobs, serial_batch.jobs):
            assert a.name == b.name and a.seed == b.seed
            assert a.iterations == b.iterations
            assert np.array_equal(a.flow.placement.x, b.flow.placement.x)

    def test_ci_worker_count_matches_serial(self, serial_batch):
        """CI runs this suite under REPRO_TEST_WORKERS={1,4}; locally it
        defaults to a 2-worker pool."""
        workers = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
        batch = run_batch(tiny_jobs(range(4)), workers=workers)
        assert batch.hpwls == serial_batch.hpwls

    def test_results_in_job_order(self, serial_batch):
        assert [j.index for j in serial_batch.jobs] == list(range(4))
        assert [j.seed for j in serial_batch.jobs] == list(range(4))

    def test_distinct_seeds_distinct_placements(self, serial_batch):
        assert len(set(serial_batch.hpwls)) > 1


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
class TestFailureIsolation:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_diverged_job_does_not_kill_batch(self, workers):
        jobs = tiny_jobs(range(3))
        jobs[1] = PlacementJob(
            source="tiny", seed=1, legalize=False, max_iterations=8,
            inject_faults=(("corrupt_field", {"at_iteration": 1}),),
        )
        batch = run_batch(jobs, workers=workers, keep_placements=False)
        oks = [j.ok for j in batch.jobs]
        assert oks == [True, False, True]
        failed = batch.jobs[1]
        assert failed.error_type == "NumericalHealthError"
        assert failed.error
        assert failed.flow is None
        assert len(batch.ok_jobs) == 2 and len(batch.failed_jobs) == 1

    @pytest.mark.parametrize("workers", [0, 2])
    def test_bad_source_is_isolated(self, workers):
        jobs = tiny_jobs(range(2))
        jobs.append(PlacementJob(source="definitely-not-a-circuit"))
        batch = run_batch(jobs, workers=workers, keep_placements=False)
        assert [j.ok for j in batch.jobs] == [True, True, False]
        assert batch.jobs[2].error_type == "ValueError"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_death_fails_only_its_job(self, workers):
        jobs = tiny_jobs(range(6))
        jobs[1] = PlacementJob(
            source="tiny", seed=1, legalize=False, max_iterations=8,
            inject_faults=(("kill_worker", {"at_iteration": 1}),),
        )
        batch = run_batch(jobs, workers=workers, keep_placements=False)
        assert [j.ok for j in batch.jobs] == [True, False, True, True, True, True]
        failed = batch.jobs[1]
        assert failed.error_type == "WorkerDeath"
        assert failed.error.endswith(f"died (exit {KILL_EXIT_CODE})")
        serial = run_batch(tiny_jobs(range(6)), workers=0, keep_placements=False)
        others = [0, 2, 3, 4, 5]
        assert [batch.jobs[i].final_hpwl_m for i in others] == [
            serial.jobs[i].final_hpwl_m for i in others
        ]

    def test_unpicklable_source_is_isolated(self):
        """A netlist whose names its canonical text cannot carry cannot
        cross the worker pipe: that job fails, the others finish."""
        from repro.netlist import NetlistBuilder

        builder = NetlistBuilder("bad")
        builder.add_cell("a b", 20.0, 16.0)
        builder.add_cell("c", 20.0, 16.0)
        builder.add_net("n", ["a b", "c"])
        jobs = tiny_jobs(range(3))
        jobs[1] = PlacementJob(source=builder.build(), legalize=False,
                               max_iterations=4)
        batch = run_batch(jobs, workers=2, keep_placements=False)
        assert [j.ok for j in batch.jobs] == [True, False, True]
        assert batch.jobs[1].error_type == "ValueError"
        assert "cell name 'a b'" in batch.jobs[1].error

    def test_workers_that_cannot_start_fail_the_batch(self, monkeypatch):
        """Workers that die before reporting ready are respawned a few
        times, then the waiting jobs fail instead of waiting forever."""
        from repro.testing.faults import FAULT_SPEC_ENV

        monkeypatch.setenv(FAULT_SPEC_ENV, "not json")  # fails worker start
        batch = run_batch(tiny_jobs(range(3)), workers=2,
                          keep_placements=False)
        assert [j.ok for j in batch.jobs] == [False, False, False]
        for job in batch.jobs:
            assert job.error_type == "WorkerDeath"
            assert job.error.startswith("no worker could start: worker ")

    def test_unknown_fault_site_is_isolated(self):
        batch = run_batch(
            [PlacementJob(source="tiny", inject_faults=(("no_site", {}),))],
            workers=0,
        )
        assert not batch.jobs[0].ok
        assert "unknown fault site" in batch.jobs[0].error

    def test_deadline_job_times_out_others_finish(self):
        jobs = tiny_jobs(range(2))
        slow_cfg = PlacerConfig(deadline_seconds=0.02).to_dict()
        jobs.append(PlacementJob(
            source="tiny", seed=2, legalize=False, config=slow_cfg,
            inject_faults=(("burn_deadline", {"seconds": 0.03}),),
        ))
        batch = run_batch(jobs, workers=0)
        assert batch.jobs[0].ok and batch.jobs[1].ok
        assert batch.jobs[2].ok and batch.jobs[2].timed_out


class TestFaultInjectionAcrossStartMethods:
    """Fault hooks must reach workers under every start method.

    ``fork`` workers inherit the parent's in-memory hook registry, but
    ``spawn``/``forkserver`` workers start from a clean interpreter — the
    worker initializer must re-install faults from ``REPRO_FAULT_SPECS``
    (see :func:`repro.testing.faults.install_env_hooks`), or chaos tests
    silently stop injecting anything the moment the start method changes.
    """

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_env_faults_reach_workers(self, method):
        import multiprocessing as mp

        from repro.core import health
        from repro.testing import env_faults

        if method not in mp.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        registry_before = dict(health._FAULT_HOOKS)
        # Two jobs: a single-job batch short-circuits to in-parent serial
        # execution and would never exercise a worker at all.  One worker
        # runs them in order; the process-lifetime hook's call counter
        # means it fires during job 0's iteration 1 and never again.
        with env_faults([("corrupt_field", {"at_iteration": 1})]):
            batch = run_batch(
                tiny_jobs([0, 1]), workers=1, mp_context=method,
                keep_placements=False,
            )
        # The fault fired *in the worker*: the first job diverged there.
        assert [j.ok for j in batch.jobs] == [False, True]
        assert batch.jobs[0].error_type == "NumericalHealthError"
        # ...while the parent's own hook registry was never touched.
        assert dict(health._FAULT_HOOKS) == registry_before


# ----------------------------------------------------------------------
# Aggregates + merged observability
# ----------------------------------------------------------------------
class TestBatchAggregates:
    @pytest.fixture(scope="class")
    def batch(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("traces")
        result = run_batch(
            tiny_jobs(range(3)), workers=0, trace_dir=trace_dir
        )
        return result, trace_dir

    def test_best_and_median(self, batch):
        result, _ = batch
        assert result.best_hpwl_m == min(result.hpwls)
        assert result.best.final_hpwl_m == result.best_hpwl_m
        assert (min(result.hpwls) <= result.median_hpwl_m
                <= max(result.hpwls))

    def test_speedup_accounting(self, batch):
        result, _ = batch
        assert result.serial_seconds_estimate == pytest.approx(
            sum(j.seconds for j in result.jobs)
        )
        assert result.speedup_estimate > 0

    def test_per_job_traces_written_and_merged(self, batch):
        result, trace_dir = batch
        for job in result.jobs:
            assert job.trace_path is not None
            events = read_trace_jsonl(job.trace_path)
            assert events
            assert job.phases.get("place", 0.0) > 0.0
        merged = result.merged_phases()
        assert merged["place"] == pytest.approx(
            sum(j.phases["place"] for j in result.jobs), abs=1e-5
        )

    def test_summary_schema(self, batch, tmp_path):
        result, _ = batch
        summary = result.summary()
        assert summary["schema"] == "repro-batch/1"
        assert summary["n_jobs"] == 3 and summary["n_ok"] == 3
        assert summary["best_job"] == result.best.name
        out = result.write_summary(tmp_path / "batch.json")
        assert json.loads(out.read_text())["n_jobs"] == 3

    def test_batch_result_picklable(self, batch):
        result, _ = batch
        clone = pickle.loads(pickle.dumps(result))
        assert clone.hpwls == result.hpwls


# ----------------------------------------------------------------------
# Client.local().map: one source over seeds, many sources, prebuilt jobs
# ----------------------------------------------------------------------
def local_map(sources, **kwargs):
    return repro.Client.local().map(sources, **kwargs)


class TestPlaceMany:
    def test_multi_start_fanout(self):
        batch = local_map("tiny", seeds=range(3), workers=0,
                           legalize=False, max_iterations=8)
        assert len(batch.jobs) == 3
        assert [j.seed for j in batch.jobs] == [0, 1, 2]
        assert all(j.ok for j in batch.jobs)

    def test_source_sequence(self, tiny_circuit):
        batch = local_map(
            ["tiny", tiny_circuit], workers=0, legalize=False,
            max_iterations=4,
        )
        assert len(batch.jobs) == 2 and all(j.ok for j in batch.jobs)

    def test_prebuilt_jobs_pass_through(self):
        batch = local_map(tiny_jobs([0, 1]), workers=0)
        assert [j.seed for j in batch.jobs] == [0, 1]

    def test_seed_source_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seeds for"):
            local_map(["tiny", "tiny", "tiny"], seeds=[0, 1], workers=0)

    def test_matches_place_bitwise(self):
        batch = local_map("tiny", seeds=[5], workers=0, legalize=False)
        single = place("tiny", seed=5, legalize=False)
        assert batch.jobs[0].final_hpwl_m == single.final_hpwl_m
        assert np.array_equal(
            batch.jobs[0].flow.placement.x, single.placement.x
        )


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEnginePlumbing:
    def test_resolve_workers(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_resolve_mp_context(self):
        assert resolve_mp_context("auto").get_start_method() in (
            "fork", "spawn"
        )
        with pytest.raises(ValueError, match="not available"):
            resolve_mp_context("no-such-method")

    def test_progress_streams_in_completion_order(self):
        seen = []
        run_batch(
            tiny_jobs(range(3)), workers=0, keep_placements=False,
            progress=lambda r, done, total: seen.append((r.name, done, total)),
        )
        assert [s[1] for s in seen] == [1, 2, 3]
        assert all(s[2] == 3 for s in seen)

    def test_empty_batch(self):
        batch = run_batch([], workers=2)
        assert batch.jobs == () and batch.best is None
        assert batch.median_hpwl_m is None

    @pytest.mark.parametrize("workers", [0, 2])
    def test_checkpoint_dir_resume_bit_identical(self, tmp_path, workers):
        # Two jobs, so that workers=2 runs them on the pool: a one-job
        # batch runs in-process.
        full = run_batch(tiny_jobs([0, 1], max_iterations=None), workers=0)
        run_batch(
            tiny_jobs([0, 1], max_iterations=4), workers=workers,
            checkpoint_dir=tmp_path, checkpoint_every=2,
        )
        assert (tmp_path / "tiny-s0.ckpt.npz").exists()
        assert (tmp_path / "tiny-s1.ckpt.npz").exists()
        resumed = run_batch(
            tiny_jobs([0, 1], max_iterations=None), workers=workers,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed.hpwls == full.hpwls
        assert [j.resumed_iteration for j in resumed.jobs] == [4, 4]

    def test_duplicate_names_rejected_when_files_are_written(self, tmp_path):
        # One source and seed, two configs: both are named "tiny-s0", so
        # they would share a snapshot and each resume from the other's.
        jobs = [
            PlacementJob(source="tiny", seed=0, config={"K": k},
                         legalize=False, max_iterations=4)
            for k in (0.2, 1.0)
        ]
        ckpt = tmp_path / "ckpt"
        with pytest.raises(ValueError, match=r"jobs 0 and 1 .*'tiny-s0'.*name="):
            run_batch(jobs, workers=0, checkpoint_dir=ckpt)
        with pytest.raises(ValueError, match="'tiny-s0'"):
            run_batch(jobs, workers=0, trace_dir=tmp_path / "traces")
        assert not ckpt.exists()  # rejected before anything ran
        # Without per-job files the names clash harmlessly; named jobs
        # get a file each.
        assert all(j.ok for j in run_batch(jobs, workers=0).jobs)
        named = [replace(job, name=f"tiny-K{job.config['K']:g}")
                 for job in jobs]
        run_batch(named, workers=0, checkpoint_dir=ckpt, checkpoint_every=2)
        assert sorted(f.name for f in ckpt.iterdir()) == [
            "tiny-K0.2.ckpt.npz", "tiny-K1.ckpt.npz"
        ]

    def test_job_config_dict_normalizes(self):
        job = PlacementJob(source="tiny", seed=4,
                           config=PlacerConfig(K=1.0))
        data = job.config_dict()
        assert data["K"] == 1.0 and data["seed"] == 4
        with pytest.raises(ValueError):
            PlacementJob(source="tiny", config={"bogus": 1}).config_dict()

    def test_display_names(self, tiny_circuit):
        assert PlacementJob(source="tiny", seed=2).display_name(0) == "tiny-s2"
        assert PlacementJob(source=tiny_circuit, seed=1).display_name(0) == (
            "tiny-s1"
        )
        assert PlacementJob(source="x", name="custom").display_name(0) == (
            "custom"
        )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestBatchCLI:
    def test_batch_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "batch.json"
        code = main([
            "batch", "--circuit", "tiny", "--jobs", "3", "--workers", "2",
            "--max-iterations", "8", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["n_ok"] == 3
        assert "best / median" in capsys.readouterr().out

    def test_batch_compare_serial_identical(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "batch.json"
        code = main([
            "batch", "--circuit", "tiny", "--jobs", "2", "--workers", "2",
            "--max-iterations", "6", "--compare-serial", "--out", str(out),
        ])
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out
        summary = json.loads(out.read_text())
        assert summary["hpwls_identical_to_serial"] is True
        assert "measured_speedup" in summary

    def test_sweep_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--circuit", "tiny", "--K", "0.2,1.0", "--seeds", "0",
            "--workers", "0", "--max-iterations", "6", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(out.read_text())
        assert len(summary["combos"]) == 2
        assert "sweep tiny" in capsys.readouterr().out

    def test_batch_needs_design(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["batch", "--jobs", "2"])
