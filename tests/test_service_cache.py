"""Result cache, job signatures, progress broker, record round-trips.

The caching contract: the signature covers every input that can change
the answer (netlist bytes, region geometry, config, seed, legalize,
iteration cap) and nothing that cannot (checkpoint/verbosity knobs);
uncacheable jobs (fault injection, unresolvable sources) sign as
``None``; and the LRU respects its byte budget.  The cache alone holds
coordinate arrays: a job record, cold or cache hit, carries scalars and
the positions hash, so an evicted flow is freed.  Round-trip tests pin
the ``repro-jobresult/1`` / ``repro-job/1`` dict forms that reports
and the wire protocol share.
"""

import gc
import json
import threading
import weakref

import pytest

from repro import PlacementJob, place
from repro.api import resolve_source
from repro.parallel.jobs import JobResult, RESULT_SCHEMA
from repro.service import (
    JOB_SCHEMA,
    JobRecord,
    JobState,
    ProgressBroker,
    ResultCache,
    RetryPolicy,
    ServiceConfig,
    ServiceJob,
    job_signature,
)
from repro.service.cache import SIGNATURE_EXCLUDED_CONFIG


def tiny_job(**kwargs):
    kwargs.setdefault("source", "tiny")
    kwargs.setdefault("legalize", False)
    kwargs.setdefault("max_iterations", 4)
    return PlacementJob(**kwargs)


def tiny_flow(seed=0, **kwargs):
    kwargs.setdefault("legalize", False)
    kwargs.setdefault("max_iterations", 4)
    return place("tiny", seed=seed, **kwargs)


# ----------------------------------------------------------------------
# Job signatures
# ----------------------------------------------------------------------
class TestJobSignature:
    def test_deterministic_across_calls(self):
        assert job_signature(tiny_job(seed=1)) == job_signature(
            tiny_job(seed=1)
        )

    def test_every_answer_changing_input_changes_it(self):
        base = job_signature(tiny_job(seed=1))
        assert job_signature(tiny_job(seed=2)) != base
        assert job_signature(tiny_job(seed=1, source="small")) != base
        assert job_signature(tiny_job(seed=1, legalize=True)) != base
        assert job_signature(tiny_job(seed=1, max_iterations=9)) != base
        # Scale resizes suite circuits (bench sizes are fixed-size).
        assert job_signature(
            tiny_job(seed=1, source="fract", scale=0.2)
        ) != job_signature(tiny_job(seed=1, source="fract", scale=0.4))

    def test_observational_knobs_do_not_change_it(self):
        """The service pins per-job checkpoint paths; dedup must survive."""
        base = job_signature(tiny_job(seed=1))
        with_ckpt = tiny_job(
            seed=1,
            config={"checkpoint_path": "/tmp/x.ckpt", "checkpoint_every": 1},
        )
        assert job_signature(with_ckpt) == base
        assert set(SIGNATURE_EXCLUDED_CONFIG) == {
            "checkpoint_path", "checkpoint_every", "verbose"
        }

    def test_uncacheable_jobs_sign_as_none(self):
        assert job_signature(
            tiny_job(inject_faults=(("kill_process", {"at_iteration": 3}),))
        ) is None
        assert job_signature(tiny_job(source="no-such-bench")) is None


# ----------------------------------------------------------------------
# The LRU
# ----------------------------------------------------------------------
class TestResultCache:
    def test_hit_returns_the_same_object(self):
        cache = ResultCache()
        flow = tiny_flow(seed=1)
        assert cache.put("sig-a", flow)
        assert cache.get("sig-a") is flow
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 0
        assert stats["entries"] == 1

    def test_miss_and_none_signature(self):
        cache = ResultCache()
        assert cache.get("absent") is None
        assert cache.get(None) is None  # uncacheable: not even a miss
        assert cache.stats()["misses"] == 1
        assert not cache.put(None, tiny_flow(seed=1))

    def test_byte_budget_evicts_lru(self):
        flow_a = tiny_flow(seed=1)
        flow_b = tiny_flow(seed=2)
        flow_c = tiny_flow(seed=3)
        # Budget fits roughly two entries.
        from repro.service.cache import _flow_cost_bytes

        budget = _flow_cost_bytes(flow_a) + _flow_cost_bytes(flow_b)
        cache = ResultCache(max_bytes=budget)
        cache.put("a", flow_a)
        cache.put("b", flow_b)
        cache.get("a")  # a is now most-recent
        cache.put("c", flow_c)  # evicts b, the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") is flow_a
        assert cache.get("c") is flow_c
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["bytes_used"] <= budget

    def test_timed_out_flows_never_cached(self):
        import dataclasses

        cache = ResultCache()
        flow = dataclasses.replace(tiny_flow(seed=1), timed_out=True)
        assert not cache.put("sig", flow)
        assert len(cache) == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(max_bytes=0)

    def test_evicted_flow_is_freed_although_a_hit_was_served(self):
        """No record holds a flow, so eviction really frees the arrays."""
        from repro.api import Client
        from repro.service.cache import _flow_cost_bytes

        config = ServiceConfig(
            workers=1, tick_seconds=0.01,
            retry=RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.05),
            cache_bytes=_flow_cost_bytes(tiny_flow(seed=1)),
        )
        with Client.local(service_config=config) as client:
            cold = client.submit("tiny", seed=1, legalize=False,
                                 max_iterations=4).result(timeout=120.0)
            assert cold.state is JobState.DONE
            hit = client.submit("tiny", seed=1, legalize=False,
                                max_iterations=4)
            assert hit.cached is True
            hit_record = hit.result(timeout=30.0)
            assert hit_record.state is JobState.DONE
            flow = weakref.ref(client.service.cache.get(cold.signature))
            assert flow() is not None
            other = client.submit("tiny", seed=2, legalize=False,
                                  max_iterations=4).result(timeout=120.0)
            assert other.state is JobState.DONE
            cache = client.service.cache
            assert cache.stats()["evictions"] == 1
            assert cache.get(cold.signature) is None
            gc.collect()
            assert flow() is None
            assert cold.result.flow is None
            assert hit_record.result.flow is None


# ----------------------------------------------------------------------
# Progress broker
# ----------------------------------------------------------------------
class TestProgressBroker:
    def test_subscribe_publish_unsubscribe(self):
        broker = ProgressBroker()
        seen = []
        handle = broker.subscribe("j1", seen.append)
        assert broker.has("j1") and not broker.has("j2")
        broker.publish("j1", {"n": 1})
        broker.publish("j2", {"n": 2})  # no subscriber: dropped
        broker.unsubscribe(handle)
        broker.publish("j1", {"n": 3})
        assert seen == [{"n": 1}]
        assert not broker.has("j1")

    def test_raising_subscriber_is_dropped_not_fatal(self):
        broker = ProgressBroker()
        healthy = []

        def broken(event):
            raise OSError("socket died")

        broker.subscribe("j1", broken)
        broker.subscribe("j1", healthy.append)
        broker.publish("j1", {"n": 1})
        broker.publish("j1", {"n": 2})
        assert healthy == [{"n": 1}, {"n": 2}]
        assert broker.subscriber_count("j1") == 1  # only the healthy one

    def test_close_job_drops_all(self):
        broker = ProgressBroker()
        broker.subscribe("j1", lambda e: None)
        broker.subscribe("j1", lambda e: None)
        broker.close_job("j1")
        assert broker.subscriber_count("j1") == 0


# ----------------------------------------------------------------------
# Serialization round trips
# ----------------------------------------------------------------------
class TestJobRecordRoundTrip:
    def test_record_round_trip_via_service(self):
        from repro.api import Client

        config = ServiceConfig(
            workers=1, tick_seconds=0.01,
            retry=RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.05),
        )
        with Client.local(service_config=config) as client:
            handle = client.submit("tiny", seed=9, legalize=False,
                                   max_iterations=3)
            record = handle.result(timeout=120.0)
        data = record.to_dict()
        assert data["schema"] == JOB_SCHEMA
        clone = JobRecord.from_dict(data)
        assert clone.job_id == record.job_id
        assert clone.state is JobState.DONE
        assert clone.spec.tenant == record.spec.tenant
        assert clone.latency_s == pytest.approx(record.latency_s, abs=1e-6)
        assert clone.result.positions_hash == record.result.positions_hash
        assert clone.result.hpwl_m == record.result.hpwl_m
        assert clone.cached == record.cached
        again = clone.to_dict()
        assert again["result"] == data["result"]
        for key in ("job_id", "seq", "source", "state", "tenant",
                    "priority", "latency_s", "failure_class", "reason",
                    "cached", "signature", "hpwl_m", "legal_hpwl_m",
                    "final_hpwl_m", "iterations", "error", "error_type"):
            assert again[key] == data[key], key

    def test_job_result_round_trip(self):
        flow = tiny_flow(seed=9)
        result = JobResult(
            name="j", index=0, seed=9, ok=True,
            hpwl_m=flow.final_hpwl_m, final_hpwl_m=flow.final_hpwl_m,
            iterations=3, seconds=0.5,
            positions_hash=flow.positions_hash(),
        )
        data = result.to_dict()
        assert data["schema"] == RESULT_SCHEMA
        clone = JobResult.from_dict(data)
        assert clone.positions_hash == result.positions_hash
        assert clone.hpwl_m == result.hpwl_m
        assert clone.ok is True
        # The dict form is the whole result: it round-trips to equality,
        # through JSON, for a run that kept its flow and for a failure.
        ran = JobResult.from_flow(
            flow, name="j", index=0, seconds=0.5,
            trace_path="j.trace.jsonl",
            phases={"place": 0.25, "legalize": 0.125},
            resumed_iteration=2,
        )
        failed = JobResult(
            name="k", index=1, seed=9, ok=False, seconds=0.25,
            error="solve diverged", error_type="NumericalHealthError",
            trace_path="k.trace.jsonl", phases={"place": 0.125},
        )
        for result in (ran, failed):
            data = result.to_dict()
            clone = JobResult.from_dict(json.loads(json.dumps(data)))
            assert clone.to_dict() == data
            assert clone.flow is None

    def test_service_job_spec_round_trip(self):
        job = ServiceJob(
            job=tiny_job(seed=5), job_id="rt-1", priority=2,
            tenant="acme", timeout_seconds=30.0,
        )
        spec = job.to_spec()
        clone = ServiceJob.from_spec(dict(spec), job_id=spec["id"])
        assert clone.job_id == "rt-1"
        assert clone.tenant == "acme"
        assert clone.priority == 2
        assert clone.timeout_seconds == 30.0
        assert clone.job.seed == 5
        assert clone.job.max_iterations == job.job.max_iterations

    def test_netlist_text_spec_round_trip(self):
        """A spec can inline the netlist instead of naming a source."""
        from repro.netlist.io import netlist_to_string

        netlist, _region, _name = resolve_source("tiny")
        spec = {"netlist_text": netlist_to_string(netlist), "seed": 1,
                "legalize": False}
        job = ServiceJob.from_spec(spec, job_id="inline-1")
        resolved, _r, _n = resolve_source(job.job.source)
        assert len(resolved.cells) == len(netlist.cells)
        assert len(resolved.nets) == len(netlist.nets)


# ----------------------------------------------------------------------
# Admission under concurrency
# ----------------------------------------------------------------------
class TestAdmissionHammer:
    def test_threaded_submit_cancel_drain_stays_consistent(self):
        """Many threads hammering submit/cancel against tight quotas: the
        counters must balance, quotas must hold, and drain must
        terminate — no lost jobs, no deadlock, no negative load."""
        from repro.service import PlacementService

        config = ServiceConfig(
            workers=1, tick_seconds=0.01, max_queue_depth=4,
            tenant_quota=2, cache_bytes=0,
            retry=RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.05),
        )
        outcomes = []
        lock = threading.Lock()

        def hammer(service, thread_idx):
            tenant = f"t{thread_idx % 3}"
            for i in range(8):
                job = ServiceJob(
                    job=tiny_job(seed=thread_idx, max_iterations=2),
                    job_id=f"h{thread_idx}-{i}", tenant=tenant,
                )
                ticket = service.submit(job)
                with lock:
                    outcomes.append(ticket)
                if i % 3 == 2 and ticket.admitted:
                    service.cancel(ticket.job_id)

        with PlacementService(config) as service:
            threads = [
                threading.Thread(target=hammer, args=(service, idx))
                for idx in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads), "hammer wedged"
            service.drain(timeout=120.0)
            report = service.report()

        assert len(outcomes) == 6 * 8
        admitted = sum(1 for o in outcomes if o.admitted)
        shed = sum(1 for o in outcomes if not o.admitted)
        assert admitted + shed == len(outcomes)
        # Every submit left a record (shed included) — none lost.
        assert report["n_submitted"] == len(outcomes)
        assert report["n_shed"] == shed
        # Every admitted job reached exactly one terminal state.
        assert (
            report["n_done"] + report["n_failed"] + report["n_cancelled"]
            == admitted
        )
        # Shed reasons are all structured, known ones.
        assert set(report["shed_reasons"]) <= {
            "queue_full", "tenant_quota", "draining", "closed"
        }
