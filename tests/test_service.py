"""Fault-tolerant placement service: supervision, retries, migration.

The service contract under chaos: every admitted job either completes
with an HPWL **bit-identical** to a serial run of the same spec (across
worker kills, hangs and checkpoint corruption — retries and migration
included) or fails with a structured, attributed reason; jobs the service
cannot serve are shed at admission with a reason; and the summary report
agrees with the JSONL event trace by construction.

Chaos here is deterministic, not timing-based: the process-level faults
from :mod:`repro.testing.faults` fire at fixed iterations/saves, and the
``once_path`` flag file makes them fire exactly once across respawns, so
every recovery path is exercised on every run, even on a one-core box.
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import PlacementJob, place
from repro.observability.events import EventLog, latency_summary, percentile
from repro.service import (
    AdmissionController,
    JobState,
    PlacementService,
    RetryPolicy,
    ServiceConfig,
    ServiceJob,
    WorkerPool,
    classify_failure,
    serve_jobs,
)
from repro.testing.faults import KILL_EXIT_CODE

SRC = Path(__file__).parent.parent / "src"


def tiny_job(seed=0, **kwargs):
    kwargs.setdefault("legalize", False)
    kwargs.setdefault("max_iterations", 8)
    kwargs.setdefault("source", "tiny")
    return PlacementJob(seed=seed, **kwargs)


def service_config(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("tick_seconds", 0.01)
    kwargs.setdefault("retry", RetryPolicy(backoff_base_s=0.01,
                                           backoff_cap_s=0.05))
    kwargs.setdefault("backoff_base_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
    return ServiceConfig(**kwargs)


def serial_hpwl(seed=0, **kwargs):
    kwargs.setdefault("legalize", False)
    kwargs.setdefault("max_iterations", 8)
    return place("tiny", seed=seed, **kwargs).final_hpwl_m


# ----------------------------------------------------------------------
# Value objects / policy units (no processes involved)
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.35)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.35)  # capped
        assert policy.delay_s(9) == pytest.approx(0.35)

    def test_should_retry_honors_class_and_budget(self):
        policy = RetryPolicy(max_attempts=3,
                             retry_on=("worker_death", "timeout"))
        assert policy.should_retry("worker_death", 1)
        assert policy.should_retry("timeout", 2)
        assert not policy.should_retry("worker_death", 3)  # budget spent
        assert not policy.should_retry("rejected", 1)  # class not retryable

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="unknown retry classes"):
            RetryPolicy(retry_on=("no_such_class",))

    def test_dict_round_trip(self):
        policy = RetryPolicy(max_attempts=5, retry_on=("timeout",),
                             backoff_base_s=0.2, backoff_cap_s=1.0)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        assert RetryPolicy.from_dict(None) == RetryPolicy()

    def test_classify_failure(self):
        assert classify_failure("NumericalHealthError") == "numerical"
        assert classify_failure("ValueError") == "rejected"
        assert classify_failure("TypeError") == "rejected"
        assert classify_failure("RuntimeError") == "error"
        assert classify_failure(None) == "error"


class TestServiceJobSpec:
    def test_from_spec_round_trip(self):
        spec = ServiceJob.from_spec(
            {"source": "tiny", "seed": 3, "max_iterations": 8,
             "priority": -1, "tenant": "alice", "timeout_seconds": 5.0,
             "retry": {"max_attempts": 2}},
            job_id="j1",
        )
        assert spec.job.seed == 3
        assert spec.job.name == "j1"  # id doubles as the display name
        assert spec.priority == -1 and spec.tenant == "alice"
        assert spec.timeout_seconds == 5.0
        assert spec.retry.max_attempts == 2

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown job-spec keys"):
            ServiceJob.from_spec({"source": "tiny", "sauce": 1}, job_id="x")
        with pytest.raises(ValueError, match="needs a 'source'"):
            ServiceJob.from_spec({"seed": 1}, job_id="x")


class TestAdmissionController:
    def test_queue_depth_bound(self):
        ctl = AdmissionController(max_queue_depth=2)
        assert ctl.decide("t", 1, {}).admitted
        decision = ctl.decide("t", 2, {})
        assert not decision.admitted and decision.reason == "queue_full"

    def test_tenant_quota(self):
        ctl = AdmissionController(max_queue_depth=10, tenant_quota=1)
        assert ctl.decide("alice", 0, {"alice": 0}).admitted
        decision = ctl.decide("alice", 1, {"alice": 1})
        assert not decision.admitted and decision.reason == "tenant_quota"
        # another tenant is unaffected
        assert ctl.decide("bob", 1, {"alice": 1}).admitted

    def test_lifecycle(self):
        ctl = AdmissionController()
        ctl.begin_drain()
        assert ctl.decide("t", 0, {}).reason == "draining"
        ctl.close()
        assert ctl.decide("t", 0, {}).reason == "closed"
        ctl.begin_drain()  # draining cannot resurrect a closed service
        assert ctl.state == "closed"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(tenant_quota=0)


class TestLatencyStats:
    def test_percentile_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert percentile(values, 50) == 0.2
        assert percentile(values, 99) == 0.4
        assert percentile([7.0], 50) == 7.0
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_latency_summary(self):
        summary = latency_summary([0.3, 0.1, 0.2])
        assert summary["n"] == 3
        assert summary["p50_s"] == 0.2
        assert summary["max_s"] == 0.3
        assert latency_summary([])["p50_s"] is None


# ----------------------------------------------------------------------
# The worker pool, driven directly
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_workers_report_ready_and_stop(self):
        pool = WorkerPool(2)
        pool.start()
        try:
            deadline = time.monotonic() + 30
            while len(pool.idle_handles()) < 2:
                pool.poll(0.05)
                assert time.monotonic() < deadline, "workers never ready"
            assert pool.alive_count() == 2
            assert pool.spawns == 2
        finally:
            pool.stop()
        assert all(h.state == "stopped" for h in pool.handles)

    def test_death_is_reaped_and_respawned_with_backoff(self):
        events = EventLog()
        pool = WorkerPool(1, backoff_base_s=0.01, backoff_cap_s=0.05,
                          events=events)
        pool.start()
        try:
            while not pool.idle_handles():
                pool.poll(0.05)
            handle = pool.handles[0]
            handle.process.kill()  # spontaneous death (e.g. OOM killer)
            deaths = []
            deadline = time.monotonic() + 30
            while not deaths:
                _, deaths = pool.poll(0.05)
                assert time.monotonic() < deadline, "death never detected"
            assert deaths[0].slot == 0
            assert handle.state == "down"
            assert pool.deaths == 1
            # Backoff: not before the delay, respawned after it.
            assert pool.maybe_respawn(handle.restart_not_before - 1.0) == 0
            deadline = time.monotonic() + 30
            while not pool.idle_handles():
                pool.maybe_respawn(time.monotonic())
                pool.poll(0.05)
                assert time.monotonic() < deadline, "never respawned"
            assert pool.restarts == 1
            assert events.count("worker_death") == 1
            assert events.count("worker_restart") == 1
        finally:
            pool.stop()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_worker_stuck_starting_is_killed_and_respawned(
        self, tmp_path, monkeypatch
    ):
        # The first worker sleeps before its heartbeat thread starts; the
        # respawned one finds the once-file and starts at once.
        from repro.parallel import pool as pool_module

        monkeypatch.setattr(pool_module, "START_TIMEOUT_S", 0.3)
        monkeypatch.setattr(pool_module, "HEARTBEAT_TIMEOUT_S", 0.3)
        pool = WorkerPool(
            1, backoff_base_s=0.01, backoff_cap_s=0.05,
            inject_faults=(("slow_start", {
                "seconds": 30.0, "once_path": str(tmp_path / "once"),
            }),),
        )
        pool.start()
        try:
            deaths = []
            deadline = time.monotonic() + 30
            while not deaths:
                pool.poll(0.02)
                deaths = pool.check_health(time.monotonic())
                assert time.monotonic() < deadline, "never killed"
            assert [d.reason for d in deaths] == ["start_timeout"]
            monkeypatch.undo()
            deadline = time.monotonic() + 30
            while not pool.idle_handles():
                pool.maybe_respawn(time.monotonic())
                pool.poll(0.05)
                assert time.monotonic() < deadline, "never respawned"
            assert pool.restarts == 1
        finally:
            pool.stop()

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods()
        or not os.path.exists("/proc/self/stat"),
        reason="needs fork and /proc",
    )
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        # Two workers at least: a later fork also inherits the parent ends
        # of the earlier workers' pipes, and must release them as it exits.
        script = textwrap.dedent("""
            import time
            from repro.service import WorkerPool

            pool = WorkerPool(2, mp_context="fork")
            pool.start()
            deadline = time.monotonic() + 60
            while len(pool.idle_handles()) < 2 and time.monotonic() < deadline:
                pool.poll(0.05)
            print(*(h.process.pid for h in pool.handles), flush=True)
            time.sleep(600)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE,
            text=True, cwd=tmp_path, env=env,
        )
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2, "the pool never reported ready"
            parent.kill()
            parent.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(_running(pid) for pid in pids):
                assert time.monotonic() < deadline, (
                    f"workers outlived their parent: "
                    f"{[pid for pid in pids if _running(pid)]}"
                )
                time.sleep(0.05)
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait(timeout=30)
            parent.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether *pid* names a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


# ----------------------------------------------------------------------
# Happy path: results identical to serial, reports consistent
# ----------------------------------------------------------------------
class TestServiceHappyPath:
    def test_jobs_complete_bit_identical_to_serial(self):
        expected = [serial_hpwl(seed) for seed in (1, 2)]
        with PlacementService(service_config(workers=2)) as svc:
            for seed in (1, 2):
                svc.submit(tiny_job(seed), job_id=f"s{seed}")
            records = svc.drain(timeout=120)
            report = svc.report()
        assert [r.state for r in records] == [JobState.DONE, JobState.DONE]
        assert [r.result.final_hpwl_m for r in records] == expected
        assert report["n_done"] == 2 and report["retries"] == 0
        assert report["latency"]["n"] == 2
        assert report["latency"]["p50_s"] <= report["latency"]["p99_s"]

    def test_priority_orders_dispatch(self):
        # Submit before start: nothing dispatches until the loop runs, so
        # the first tick must pop strictly by (priority, submit order).
        svc = PlacementService(service_config(workers=1))
        svc.submit(tiny_job(1), job_id="low", priority=5)
        svc.submit(tiny_job(2), job_id="high", priority=-5)
        svc.submit(tiny_job(3), job_id="mid", priority=0)
        try:
            svc.start()
            svc.drain(timeout=120)
            starts = [e["job"] for e in svc.events.of_type("job_start")]
        finally:
            svc.shutdown()
        assert starts == ["high", "mid", "low"]

    def test_duplicate_job_id_rejected(self):
        with PlacementService(service_config()) as svc:
            svc.submit(tiny_job(), job_id="same")
            with pytest.raises(ValueError, match="duplicate job_id"):
                svc.submit(tiny_job(), job_id="same")
            svc.drain(timeout=60)

    @pytest.mark.parametrize("source, config, cache_bytes", [
        # With the cache off, nothing validates the config ahead of submit.
        ("tiny", {"K": -1.0}, 0),
        # The cache's signature cannot resolve "nope", so it skips the
        # config.
        ("nope", {"no_such_knob": 1}, 256 * 1024 * 1024),
    ])
    def test_rejected_submit_leaves_no_record(
        self, source, config, cache_bytes
    ):
        events = []
        with PlacementService(service_config(cache_bytes=cache_bytes)) as svc:
            with pytest.raises(ValueError):
                svc.submit(PlacementJob(source=source, config=config),
                           job_id="bad", progress=events.append)
            assert svc.report()["n_submitted"] == 0
            assert not svc.broker.has("bad")
            t0 = time.monotonic()
            assert svc.drain(timeout=5) == []
            assert time.monotonic() - t0 < 5
        assert events == []

    def test_unpicklable_netlist_is_rejected_and_service_lives_on(self):
        """A netlist whose names its canonical text cannot carry cannot
        cross the worker pipe: the job fails as rejected, the loop and
        the worker stay up for the next job."""
        from repro.netlist import NetlistBuilder

        builder = NetlistBuilder("bad")
        builder.add_cell("a b", 20.0, 16.0)
        builder.add_cell("c", 20.0, 16.0)
        builder.add_net("n", ["a b", "c"])
        with PlacementService(service_config()) as svc:
            svc.submit(tiny_job(source=builder.build()), job_id="bad")
            bad = svc.wait("bad", timeout=60)
            svc.submit(tiny_job(1), job_id="good")
            good = svc.wait("good", timeout=120)
        assert bad.state == JobState.FAILED
        assert bad.failure_class == "rejected"
        assert "cell name 'a b'" in bad.reason
        assert good.state == JobState.DONE
        assert good.result.final_hpwl_m == serial_hpwl(1)

    def test_rejected_input_fails_fast_with_attribution(self):
        with PlacementService(service_config()) as svc:
            svc.submit(PlacementJob(source="no-such-circuit"), job_id="bad")
            record = svc.wait("bad", timeout=60)
        assert record.state == JobState.FAILED
        assert record.failure_class == "rejected"
        assert record.attempt_count == 1  # ValueError never retries
        assert "cannot resolve" in record.reason


# ----------------------------------------------------------------------
# Chaos: kill / hang / corrupt-checkpoint, all deterministic
# ----------------------------------------------------------------------
class TestServiceChaos:
    def test_killed_worker_job_retries_bit_identically(self, tmp_path):
        expected = serial_hpwl(3, max_iterations=20)
        job = tiny_job(
            3, max_iterations=20,
            inject_faults=(("kill_worker", {
                "at_iteration": 6, "once_path": str(tmp_path / "once"),
            }),),
        )
        config = service_config(checkpoint_dir=tmp_path / "ckpt",
                                checkpoint_every=2)
        with PlacementService(config,
                              events=tmp_path / "events.jsonl") as svc:
            svc.submit(job, job_id="victim")
            record = svc.wait("victim", timeout=120)
            report = svc.report()
        assert record.state == JobState.DONE
        assert record.attempt_count == 2
        assert record.attempts[0].outcome == "worker_death"
        assert f"exit {KILL_EXIT_CODE}" in record.attempts[0].error
        # Migration: attempt 2 resumed from the last committed snapshot.
        assert record.attempts[1].resumed_iteration == 6
        assert record.result.final_hpwl_m == expected
        assert report["retries"] == 1
        assert report["worker"]["deaths"] == 1
        assert report["worker"]["restarts"] == 1

    def test_kill_without_checkpoint_still_bit_identical(self, tmp_path):
        # No checkpoint_dir: the retry is a fresh start, which is
        # bit-identical anyway — migration only saves the redone work.
        expected = serial_hpwl(4)
        job = tiny_job(
            4,
            inject_faults=(("kill_worker", {
                "at_iteration": 2, "once_path": str(tmp_path / "once"),
            }),),
        )
        with PlacementService(service_config()) as svc:
            svc.submit(job, job_id="fresh")
            record = svc.wait("fresh", timeout=120)
        assert record.state == JobState.DONE
        assert record.attempt_count == 2
        assert record.attempts[1].resumed_iteration is None
        assert record.result.final_hpwl_m == expected

    def test_hung_job_hits_watchdog_then_retries(self, tmp_path):
        expected = serial_hpwl(5)
        job = tiny_job(
            5,
            inject_faults=(("hang_worker", {
                "at_iteration": 1, "seconds": 120.0,
                "once_path": str(tmp_path / "once"),
            }),),
        )
        config = service_config(job_timeout_seconds=0.5)
        with PlacementService(config) as svc:
            svc.submit(job, job_id="stuck")
            record = svc.wait("stuck", timeout=120)
        assert record.state == JobState.DONE
        assert record.attempts[0].outcome == "timeout"
        assert record.result.final_hpwl_m == expected

    def test_corrupt_checkpoint_degrades_to_fresh_start(self, tmp_path):
        # Attempt 1: the committed snapshot is overwritten with garbage,
        # then the worker is killed before the next save can replace it.
        # Attempt 2 must detect the corrupt snapshot, fall back to a
        # fresh start, and still match serial.
        expected = serial_hpwl(6, max_iterations=20)
        job = tiny_job(
            6, max_iterations=20,
            inject_faults=(
                ("corrupt_checkpoint", {
                    "mode": "truncate", "nth_save": 1,
                    "once_path": str(tmp_path / "t_once"),
                }),
                ("kill_worker", {
                    "at_iteration": 3, "once_path": str(tmp_path / "k_once"),
                }),
            ),
        )
        config = service_config(checkpoint_dir=tmp_path / "ckpt",
                                checkpoint_every=2)
        with PlacementService(config) as svc:
            svc.submit(job, job_id="torn")
            record = svc.wait("torn", timeout=120)
        assert record.state == JobState.DONE
        assert record.attempt_count == 2
        assert record.attempts[1].resumed_iteration is None  # fresh start
        assert record.result.final_hpwl_m == expected

    def test_numerical_failure_exhausts_retries_with_attribution(self):
        # corrupt_field fires every attempt (no once_path), so the retry
        # budget runs out and the failure is attributed to 'numerical'.
        job = tiny_job(
            7, inject_faults=(("corrupt_field", {"at_iteration": 1}),),
        )
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                             backoff_cap_s=0.02)
        with PlacementService(service_config()) as svc:
            svc.submit(job, job_id="diverged", retry=policy)
            record = svc.wait("diverged", timeout=120)
            report = svc.report()
        assert record.state == JobState.FAILED
        assert record.failure_class == "numerical"
        assert record.attempt_count == 2
        assert [a.outcome for a in record.attempts] == ["numerical"] * 2
        assert report["failure_classes"] == {"numerical": 1}
        assert report["retries"] == 1

    def test_frozen_worker_is_killed_as_hung_and_its_job_retried(
        self, tmp_path, monkeypatch
    ):
        # The job hangs (once) inside its worker, whose heartbeat stays
        # fresh; only stopping the whole process makes it stale.  The
        # once-file marks the hang: the job is running then, and its retry
        # will not hang.
        from repro.parallel import pool as pool_module

        expected = serial_hpwl(8)
        job = tiny_job(
            8,
            inject_faults=(("hang_worker", {
                "at_iteration": 1, "seconds": 120.0,
                "once_path": str(tmp_path / "once"),
            }),),
        )
        # Five beats of the pool's HEARTBEAT_INTERVAL_S (0.1 s).
        monkeypatch.setattr(pool_module, "HEARTBEAT_TIMEOUT_S", 0.5)
        pid = None
        try:
            with PlacementService(service_config()) as svc:
                svc.submit(job, job_id="frozen")
                deadline = time.monotonic() + 60
                while not (tmp_path / "once").exists():
                    time.sleep(0.01)
                    assert time.monotonic() < deadline, "never hung"
                pid = svc.pool.handles[0].process.pid
                os.kill(pid, signal.SIGSTOP)
                while not svc.events.count("worker_death"):
                    time.sleep(0.01)
                    assert time.monotonic() < deadline, "never killed"
                monkeypatch.undo()
                record = svc.wait("frozen", timeout=120)
                deaths = svc.events.of_type("worker_death")
        finally:
            if pid is not None and _running(pid):
                os.kill(pid, signal.SIGKILL)
        assert [d["reason"] for d in deaths] == ["hung"]
        assert record.state == JobState.DONE
        assert record.attempts[0].outcome == "worker_death"
        assert record.attempts[0].error == "worker 0 hung (exit -9)"
        assert record.result.final_hpwl_m == expected

    def test_workers_that_cannot_start_fail_queued_jobs(self, monkeypatch):
        """Workers that die before reporting ready are respawned a few
        times per slot; then a queued job fails for good instead of
        waiting for a worker forever, and the service still takes work."""
        from repro.testing.faults import FAULT_SPEC_ENV

        monkeypatch.setenv(FAULT_SPEC_ENV, "not json")  # fails worker start
        workers = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
        with PlacementService(service_config(workers=workers)) as svc:
            svc.submit(tiny_job(1), job_id="stranded")
            record = svc.wait("stranded", timeout=60)
            assert record is not None, "the job is still waiting"
            later = svc.submit(tiny_job(2), job_id="later")
            assert later.admitted
            assert svc.wait("later", timeout=60).state == JobState.FAILED
        assert record.state == JobState.FAILED
        assert record.failure_class == "worker_death"
        assert record.reason.startswith("no worker could start: worker ")
        assert record.attempt_count == 1

    def test_chaos_kill_worker_api(self, tmp_path):
        # The ops/chaos entry point: kill a slot while idle; the pool
        # respawns it and later jobs still complete.
        with PlacementService(service_config()) as svc:
            svc.submit(tiny_job(1), job_id="before")
            assert svc.wait("before", timeout=120).state == JobState.DONE
            svc.kill_worker(0)
            deadline = time.monotonic() + 60
            while svc.pool.restarts < 1:
                time.sleep(0.02)
                assert time.monotonic() < deadline, "never respawned"
            svc.submit(tiny_job(2), job_id="after")
            assert svc.wait("after", timeout=120).state == JobState.DONE
            assert svc.events.count("worker_death") == 1


# ----------------------------------------------------------------------
# Admission control and load shedding
# ----------------------------------------------------------------------
class TestServiceAdmission:
    def test_queue_full_sheds_with_reason(self):
        # Submit before start so the queue cannot drain in between.
        svc = PlacementService(service_config(max_queue_depth=1))
        first = svc.submit(tiny_job(1), job_id="in")
        second = svc.submit(tiny_job(2), job_id="out")
        assert first.admitted and not second.admitted
        assert second.reason == "queue_full"
        try:
            svc.start()
            records = svc.drain(timeout=120)
        finally:
            svc.shutdown()
        states = {r.job_id: r.state for r in records}
        assert states["in"] == JobState.DONE
        assert states["out"] == JobState.SHED
        report = svc.report()
        assert report["n_shed"] == 1
        assert report["shed_reasons"] == {"queue_full": 1}

    def test_tenant_quota_sheds_only_the_hog(self):
        svc = PlacementService(
            service_config(max_queue_depth=16, tenant_quota=1)
        )
        assert svc.submit(tiny_job(1), job_id="a1", tenant="alice").admitted
        hog = svc.submit(tiny_job(2), job_id="a2", tenant="alice")
        assert not hog.admitted and hog.reason == "tenant_quota"
        assert svc.submit(tiny_job(3), job_id="b1", tenant="bob").admitted
        try:
            svc.start()
            svc.drain(timeout=120)
        finally:
            svc.shutdown()

    def test_draining_service_sheds_new_work(self):
        with PlacementService(service_config()) as svc:
            svc.submit(tiny_job(1), job_id="old")
            svc.drain(timeout=120)
            late = svc.submit(tiny_job(2), job_id="late")
            assert not late.admitted and late.reason == "draining"
            assert svc.record("old").state == JobState.DONE

    def test_cancel_queued_job(self):
        svc = PlacementService(service_config())
        svc.submit(tiny_job(1), job_id="keep")
        svc.submit(tiny_job(2), job_id="drop")
        assert svc.cancel("drop")
        assert not svc.cancel("drop")  # already terminal
        assert not svc.cancel("nonexistent")
        try:
            svc.start()
            records = svc.drain(timeout=120)
        finally:
            svc.shutdown()
        states = {r.job_id: r.state for r in records}
        assert states["keep"] == JobState.DONE
        assert states["drop"] == JobState.CANCELLED


class TestSupervisorWakeup:
    """``tick_seconds`` only paces housekeeping: submits and cancels wake
    the supervisor loop at once, so a tick far longer than a job delays
    neither dispatch nor a cancel's kill."""

    def test_submit_dispatches_without_waiting_out_the_tick(self):
        with PlacementService(service_config(tick_seconds=5.0)) as svc:
            svc.submit(tiny_job(1), job_id="warm")
            assert svc.wait("warm", timeout=120).state == JobState.DONE
            svc.submit(tiny_job(2), job_id="timed")
            record = svc.wait("timed", timeout=120)
        assert record.state == JobState.DONE
        queue_wait = record.attempts[0].dispatched_at - record.submitted_at
        assert queue_wait < 1.0

    def test_cancel_kills_a_running_job_without_waiting_out_the_tick(
        self, tmp_path
    ):
        job = tiny_job(3, inject_faults=(("hang_worker", {
            "at_iteration": 1, "seconds": 120.0,
            "once_path": str(tmp_path / "once"),
        }),))
        with PlacementService(service_config(tick_seconds=5.0)) as svc:
            svc.submit(job, job_id="stuck")
            deadline = time.monotonic() + 60
            while svc.record("stuck").attempts == [] or (
                svc.record("stuck").attempts[0].started_at is None
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            t0 = time.monotonic()
            assert svc.cancel("stuck")
            while svc.events.count("worker_death") == 0:
                assert time.monotonic() - t0 < 1.0, "cancel waited for a tick"
                time.sleep(0.01)


# ----------------------------------------------------------------------
# Report <-> trace consistency (the acceptance criterion)
# ----------------------------------------------------------------------
class TestReportTraceConsistency:
    def test_counters_match_the_jsonl_trace(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        job = tiny_job(
            3,
            inject_faults=(("kill_worker", {
                "at_iteration": 2, "once_path": str(tmp_path / "once"),
            }),),
        )
        svc = PlacementService(
            service_config(max_queue_depth=1), events=events_path
        )
        svc.submit(job, job_id="killed")
        svc.submit(tiny_job(1), job_id="shed-me")  # queue_full shed
        try:
            svc.start()
            svc.drain(timeout=120)
            report = svc.report()
        finally:
            svc.shutdown()

        lines = [json.loads(line)
                 for line in events_path.read_text().splitlines()]
        trace = {}
        for record in lines:
            if "event" in record:
                trace[record["event"]] = trace.get(record["event"], 0) + 1

        # Every count the report claims must equal what the trace shows.
        assert report["retries"] == trace.get("job_retry", 0) == 1
        assert report["n_shed"] == trace.get("job_shed", 0) == 1
        assert report["n_done"] == trace.get("job_done", 0) == 1
        assert report["worker"]["restarts"] == trace.get("worker_restart", 0)
        assert report["worker"]["deaths"] == trace.get("worker_death", 0) == 1
        assert report["worker"]["spawns"] == trace.get("worker_spawn", 0)
        for event, count in report["events"].items():
            assert trace.get(event, 0) == count, event

    def test_report_is_json_safe(self):
        with PlacementService(service_config()) as svc:
            svc.submit(tiny_job(1))
            svc.drain(timeout=120)
            report = svc.report()
        clone = json.loads(json.dumps(report))
        assert clone["schema"] == "repro-service/2"
        assert clone["jobs"][0]["state"] == "done"


# ----------------------------------------------------------------------
# Facades
# ----------------------------------------------------------------------
class TestFacades:
    def test_serve_jobs_one_shot(self):
        report = serve_jobs(
            [tiny_job(1), {"source": "tiny", "seed": 2, "legalize": False,
                           "max_iterations": 8, "id": "spec-job"}],
            config=service_config(),
        )
        assert report["n_done"] == 2
        assert {j["job_id"] for j in report["jobs"]} == {"j00001", "spec-job"}
