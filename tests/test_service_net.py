"""The TCP front end: framing, handshake, streaming, cache, disconnects.

The wire contract under test: every frame is length-prefixed JSON; the
first frame must be a versioned ``hello`` whose token *is* the tenant
identity; a submitted spec either runs to a terminal ``result`` frame
bit-identical to a serial run (cache hits included) or comes back
``shed`` with a structured reason; a malformed frame or request gets an
``error`` reply and never a traceback in a server thread; and a client
that vanishes mid-stream leaks nothing — no broker subscription, no
blocked worker.
"""

import itertools
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlacementJob, place
from repro.api import Client
from repro.service import (
    PlacementServer,
    RetryPolicy,
    ServiceConfig,
    WIRE_SCHEMA,
    WireClient,
    WireError,
)
from repro.service.net import MAX_FRAME_BYTES, recv_frame, send_frame


def service_config(**kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("tick_seconds", 0.01)
    kwargs.setdefault("retry", RetryPolicy(backoff_base_s=0.01,
                                           backoff_cap_s=0.05))
    return ServiceConfig(**kwargs)


@pytest.fixture(scope="module")
def server():
    """One shared server (1 worker, cache on) for the happy-path tests."""
    with PlacementServer(service_config=service_config()) as srv:
        yield srv


@pytest.fixture(scope="module")
def idle_server():
    """A server that must never start a job, and the exceptions that
    reached ``threading.excepthook`` while it ran."""
    errors = []
    previous = threading.excepthook
    threading.excepthook = lambda args: errors.append(args.exc_value)
    try:
        with PlacementServer(service_config=service_config()) as srv:
            yield srv, errors
    finally:
        threading.excepthook = previous


@pytest.fixture(scope="module")
def dir_server(tmp_path_factory):
    """A server that snapshots and traces every job into directories of
    its own, under an otherwise empty root."""
    root = tmp_path_factory.mktemp("served")
    config = service_config(
        checkpoint_dir=root / "ckpt", trace_dir=root / "traces"
    )
    with PlacementServer(service_config=config) as srv:
        yield srv, root


def files_outside(root):
    """Files under *root* that are not in the server's own directories."""
    return sorted(
        str(path.relative_to(root)) for path in root.rglob("*")
        if path.is_file()
        and path.relative_to(root).parts[0] not in ("ckpt", "traces")
    )


def raw_connect(address, token="raw"):
    """A socket past the ``hello`` handshake, with no client thread."""
    sock = socket.create_connection(address, timeout=10.0)
    send_frame(sock, {"type": "hello", "schema": WIRE_SCHEMA,
                      "token": token})
    assert recv_frame(sock)["type"] == "hello"
    return sock


def send_body(sock, body):
    """One frame with a correct length prefix around arbitrary bytes."""
    sock.sendall(struct.pack(">I", len(body)) + body)


def assert_still_serving(sock):
    """The connection answers ``report``, and no job was ever started."""
    send_frame(sock, {"type": "report"})
    reply = recv_frame(sock)
    assert reply["type"] == "report"
    assert reply["report"]["n_submitted"] == 0


def key_paths(value, prefix=""):
    """Dotted paths of every key in nested dicts.  Lists and the
    span-keyed ``phases`` map are leaves: their keys are data, not
    shape."""
    if not isinstance(value, dict):
        return set()
    paths = set()
    for key, item in value.items():
        path = f"{prefix}{key}"
        paths.add(path)
        if key != "phases":
            paths |= key_paths(item, path + ".")
    return paths


def wire_submit(client, *, seed, job_id=None, max_iterations=6,
                subscribe=False, timeout=120.0):
    handle = client.submit(
        "tiny", seed=seed, legalize=False, max_iterations=max_iterations,
        job_id=job_id, subscribe=subscribe,
    )
    assert handle.admitted, handle.shed_reason
    return handle


# ----------------------------------------------------------------------
# Framing (no service involved)
# ----------------------------------------------------------------------
class TestFraming:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "x", "n": 7, "nested": {"k": [1, 2]}})
            assert recv_frame(b) == {"type": "x", "n": 7,
                                     "nested": {"k": [1, 2]}}
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 100) + b"short")
            a.close()
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_length_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(WireError, match="exceeds"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_body_rejected(self):
        a, b = socket.socketpair()
        try:
            body = b"[1, 2, 3]\n"
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(WireError, match="not a JSON object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
class TestHandshake:
    def test_hello_must_come_first(self, server):
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            send_frame(sock, {"type": "submit", "spec": {"source": "tiny"}})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert WIRE_SCHEMA in reply["error"]
            # The server hangs up on a failed handshake.
            with pytest.raises(EOFError):
                recv_frame(sock)
        finally:
            sock.close()

    def test_wrong_schema_rejected(self, server):
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            send_frame(sock, {"type": "hello", "schema": "bogus/9",
                              "token": "x"})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
        finally:
            sock.close()

    def test_token_becomes_tenant(self, server):
        with Client.connect(*server.address, token="acme") as client:
            handle = wire_submit(client, seed=1)
            assert handle.job_id.startswith("acme-")
            record = handle.result(timeout=120.0)
            assert record.state.value == "done"
            assert record.spec.tenant == "acme"

    def test_spec_cannot_claim_another_tenant(self, server):
        """The connection token wins over whatever the spec says."""
        client = WireClient(*server.address, token="tenant-a", timeout=30.0)
        try:
            reply = client._rpc({
                "type": "submit",
                "spec": {"id": "steal-1", "source": "tiny", "seed": 2,
                         "legalize": False, "max_iterations": 2,
                         "tenant": "tenant-b"},
            })
            assert reply["type"] == "submitted"
            record = client.wait_result("steal-1", timeout=120.0)
            assert record.spec.tenant == "tenant-a"
        finally:
            client.close()


# ----------------------------------------------------------------------
# Untrusted frames: an error reply, never a traceback or a dead connection
# ----------------------------------------------------------------------
BAD_BODIES = {
    "not-json": b"{not json",
    "not-utf8": b"\xff\xfe",
    "not-object": b"[1, 2]",
    "too-deep": b"[" * 100_000,
}

#: Every frame type a client may send, and the handshake's.
REQUEST_TYPES = ["hello", "submit", "subscribe", "cancel", "result", "report"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=16),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def requests(draw):
    """A JSON object with a random ``type`` (the known ones included) and
    random fields.  A ``submit`` spec never names a design, so
    ``ServiceJob.from_spec`` rejects it before any placement starts."""
    kind = draw(st.sampled_from(REQUEST_TYPES) | json_values)
    frame = draw(st.dictionaries(
        st.sampled_from(["job", "spec", "subscribe", "token", "schema"])
        | st.text(max_size=8),
        json_values, max_size=5,
    ))
    frame["type"] = kind
    if kind == "submit":
        frame["spec"] = draw(
            st.none() | st.booleans() | st.integers() | st.text(max_size=16)
            | st.dictionaries(
                st.text(max_size=12).filter(
                    lambda key: key not in ("source", "netlist_text")
                ),
                json_values, max_size=5,
            )
        )
    return frame


#: A submit spec that places quickly, and wrongly typed values for each
#: field a spec may carry over the wire (JSON types the field is not, and
#: numbers that are not finite and positive).
GOOD_SPEC = {"source": "tiny", "legalize": False, "max_iterations": 2}
_LISTS = st.lists(st.integers(), max_size=2)
_STRING = st.integers() | st.floats() | st.booleans() | st.none() | _LISTS
_INTEGER = st.floats() | st.booleans() | st.text(max_size=4) | st.none()
_NUMBER = (
    st.text(max_size=4) | st.booleans() | st.none() | _LISTS
    | st.sampled_from([0, -1, -0.5, float("nan"), float("inf")])
)
_OBJECT = st.integers() | st.text(max_size=4) | _LISTS
WRONG_TYPES = {
    "id": _STRING,
    "name": _STRING,
    "tenant": _STRING,
    "source": _STRING,
    "seed": _INTEGER,
    "priority": _INTEGER,
    "max_iterations": _INTEGER,
    "legalize": st.integers() | st.text(max_size=4) | st.none(),
    "scale": _NUMBER,
    "utilization": _NUMBER,
    "timeout_seconds": _NUMBER,
    "config": _OBJECT,
    "retry": _OBJECT,
}


@st.composite
def wrongly_typed_specs(draw):
    field = draw(st.sampled_from(sorted(WRONG_TYPES)))
    return field, {**GOOD_SPEC, field: draw(WRONG_TYPES[field])}


@pytest.fixture(scope="module")
def typed_server():
    """A server that runs jobs, and the exceptions that reached
    ``threading.excepthook`` while it ran."""
    errors = []
    previous = threading.excepthook
    threading.excepthook = lambda args: errors.append(args.exc_value)
    try:
        with PlacementServer(service_config=service_config()) as srv:
            yield srv, errors
    finally:
        threading.excepthook = previous


class TestBadFrames:
    @pytest.mark.parametrize("body", BAD_BODIES.values(), ids=list(BAD_BODIES))
    def test_bad_body_gets_error_and_connection_survives(
        self, idle_server, body
    ):
        server, errors = idle_server
        sock = raw_connect(server.address)
        try:
            send_body(sock, body)
            assert recv_frame(sock)["type"] == "error"
            assert_still_serving(sock)
        finally:
            sock.close()
        assert errors == []

    @pytest.mark.parametrize("body", BAD_BODIES.values(), ids=list(BAD_BODIES))
    def test_bad_first_frame_gets_error_then_hang_up(self, idle_server, body):
        server, errors = idle_server
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            send_body(sock, body)
            assert recv_frame(sock)["type"] == "error"
            with pytest.raises(EOFError):
                recv_frame(sock)
        finally:
            sock.close()
        assert errors == []

    def test_oversized_length_prefix_gets_error_then_hang_up(
        self, idle_server
    ):
        """The body of an oversized frame is never read, so the stream
        is out of sync: the server answers, then hangs up."""
        server, errors = idle_server
        sock = raw_connect(server.address)
        try:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            reply = recv_frame(sock)
            assert reply["type"] == "error" and "exceeds" in reply["error"]
            with pytest.raises(EOFError):
                recv_frame(sock)
        finally:
            sock.close()
        assert errors == []

    @settings(max_examples=50, deadline=None)
    @given(body=st.binary(max_size=256))
    def test_any_frame_body_is_answered(self, idle_server, body):
        server, errors = idle_server
        sock = raw_connect(server.address, token="fuzz-bytes")
        try:
            send_body(sock, body)
            assert isinstance(recv_frame(sock), dict)
            assert_still_serving(sock)
        finally:
            sock.close()
        assert errors == []

    @settings(max_examples=50, deadline=None)
    @given(frame=requests())
    def test_any_request_is_answered(self, idle_server, frame):
        server, errors = idle_server
        sock = raw_connect(server.address, token="fuzz-requests")
        try:
            send_frame(sock, frame)
            assert isinstance(recv_frame(sock), dict)
            assert_still_serving(sock)
        finally:
            sock.close()
        assert errors == []

    # Fresh seeds, so each follow-up submit runs (no result-cache hit).
    seeds = itertools.count(1000)

    @settings(max_examples=40, deadline=None)
    @given(case=wrongly_typed_specs())
    def test_wrongly_typed_field_is_refused_and_service_lives(
        self, typed_server, case
    ):
        """Each wrongly typed field gets ``error`` naming it; nothing is
        counted, no server thread dies, and the next submit on the
        connection runs to its result."""
        field, spec = case
        server, errors = typed_server
        sock = raw_connect(server.address, token="typed")
        try:
            before = server.service.report()["n_submitted"]
            send_frame(sock, {"type": "submit", "spec": spec})
            reply = recv_frame(sock)
            assert reply["type"] == "error", (field, reply)
            assert repr(field) in reply["error"]
            assert server.service.report()["n_submitted"] == before
            send_frame(sock, {"type": "submit", "spec": {
                **GOOD_SPEC, "seed": next(self.seeds),
            }})
            submitted = recv_frame(sock)
            assert submitted["type"] == "submitted"
            send_frame(sock, {"type": "result", "job": submitted["job"]})
            reply = recv_frame(sock)
            while reply["type"] != "result":
                reply = recv_frame(sock)
            assert reply["state"] == "done"
        finally:
            sock.close()
        assert errors == []

    def test_to_spec_output_passes(self):
        """The type checks refuse nothing a client writes: every field a
        spec can carry round-trips through ``to_spec``."""
        from repro.service import ServiceJob

        job = ServiceJob.from_spec({
            "id": "j1", "source": "tiny", "seed": 7, "name": "n",
            "legalize": False, "max_iterations": 8, "scale": 0.3,
            "utilization": 0.7, "priority": -2, "tenant": "t",
            "timeout_seconds": 5, "config": {"K": 0.2},
            "retry": {"max_attempts": 1, "retry_on": ["timeout"],
                      "backoff_base_s": 0, "backoff_cap_s": 1.5},
        }, job_id="j1")
        assert ServiceJob.from_spec(job.to_spec(), job_id="j1") == job


class TestSubmitRejects:
    """Specs the server refuses at submit, before anything runs."""

    def test_fault_hooks_refused(self, idle_server, tmp_path):
        server, _ = idle_server
        once = tmp_path / "once"
        sock = raw_connect(server.address, token="faults")
        try:
            send_frame(sock, {
                "type": "submit",
                "spec": {"source": "tiny", "seed": 1, "legalize": False,
                         "max_iterations": 4,
                         "inject_faults": [["kill_worker", {
                             "at_iteration": 1, "once_path": str(once),
                         }]]},
            })
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["type"] == "error"
        assert "inject_faults" in reply["error"]
        report = server.service.report()
        assert report["n_submitted"] == 0
        assert report["worker"]["deaths"] == 0
        assert not once.exists()

    def test_nan_net_weight_refused(self, idle_server):
        from repro.netlist import NetlistBuilder, netlist_to_string

        builder = NetlistBuilder("nan-weight")
        builder.add_cell("a", 4.0, 4.0)
        builder.add_cell("bb", 4.0, 4.0)
        builder.add_net("n0", ["a", "bb"])
        text = netlist_to_string(builder.build())
        assert "net n0 1.0 " in text
        server, _ = idle_server
        sock = raw_connect(server.address, token="nan")
        try:
            send_frame(sock, {
                "type": "submit",
                "spec": {"netlist_text": text.replace("net n0 1.0 ",
                                                      "net n0 nan "),
                         "legalize": False, "max_iterations": 4},
            })
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["type"] == "error"
        assert "finite, positive weight" in reply["error"]
        assert server.service.report()["n_submitted"] == 0

    def test_nan_cell_power_refused(self, idle_server):
        from repro.netlist import NetlistBuilder, netlist_to_string

        builder = NetlistBuilder("nan-power")
        builder.add_cell("a", 4.0, 4.0)
        builder.add_cell("bb", 4.0, 4.0)
        builder.add_net("n0", ["a", "bb"])
        text = netlist_to_string(builder.build())
        assert " 5e-13 0.0 0\n" in text  # input_cap, power, is_register
        server, _ = idle_server
        sock = raw_connect(server.address, token="nan")
        try:
            send_frame(sock, {
                "type": "submit",
                "spec": {"netlist_text": text.replace(" 5e-13 0.0 0\n",
                                                      " 5e-13 nan 0\n", 1),
                         "legalize": False, "max_iterations": 4},
            })
            reply = recv_frame(sock)
        finally:
            sock.close()
        assert reply["type"] == "error"
        assert "line 3: cell 'a' has non-finite power" in reply["error"]
        assert server.service.report()["n_submitted"] == 0

    @pytest.mark.parametrize("field, keywords", [
        ("checkpoint_path", {"config": {"checkpoint_path": "OWNED",
                                        "checkpoint_every": 1}}),
        ("id", {"job_id": "../escaped-id"}),
        ("id", {"job_id": "..\\escaped-id"}),
        ("name", {"name": "../escaped-name"}),
    ], ids=["checkpoint-path", "id-slash", "id-backslash", "name-slash"])
    def test_client_chosen_file_paths_refused(self, dir_server, field,
                                              keywords):
        """The server names every file a wire job writes: a spec cannot
        pick a snapshot path or climb out of the server's directories."""
        server, root = dir_server
        owned = root / "owned.npz"
        if "config" in keywords:
            keywords = {"config": dict(keywords["config"],
                                       checkpoint_path=str(owned))}
        with Client.connect(*server.address, token="paths") as client:
            before = client.report()["n_submitted"]
            with pytest.raises(WireError, match=field):
                client.submit("tiny", seed=11, legalize=False,
                              max_iterations=2, **keywords)
            assert client.report()["n_submitted"] == before
            # The connection keeps serving, and its jobs write only into
            # the server's directories.
            record = wire_submit(client, seed=12).result(timeout=120.0)
        assert record.state.value == "done"
        assert not owned.exists()
        assert files_outside(root) == []
        assert list((root / "traces").glob("paths-*.trace.jsonl"))

    @pytest.mark.parametrize("token", ["../tok", "..\\tok"])
    def test_token_with_path_separator_refused(self, dir_server, token):
        server, root = dir_server
        before = server.service.report()["n_submitted"]
        sock = socket.create_connection(server.address, timeout=10.0)
        try:
            send_frame(sock, {"type": "hello", "schema": WIRE_SCHEMA,
                              "token": token})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "token" in reply["error"]
            # A bad hello is answered, then hung up on.
            with pytest.raises(EOFError):
                recv_frame(sock)
        finally:
            sock.close()
        assert server.service.report()["n_submitted"] == before
        assert files_outside(root) == []

    def test_bad_config_leaves_no_record(self, server):
        with Client.connect(*server.address, token="knob") as client:
            before = client.report()["n_submitted"]
            with pytest.raises(WireError, match="unknown PlacerConfig keys"):
                client.submit("nope", config={"no_such_knob": 1},
                              job_id="knob-bad", subscribe=True)
            assert client.report()["n_submitted"] == before
            assert not server.service.broker.has("knob-bad")
            record = wire_submit(client, seed=9).result(timeout=120.0)
        assert record.state.value == "done"


# ----------------------------------------------------------------------
# Submit / result round trip
# ----------------------------------------------------------------------
class TestSubmitResult:
    def test_round_trip_and_unknown_job(self, server):
        with Client.connect(*server.address, token="rt") as client:
            handle = wire_submit(client, seed=3)
            record = handle.result(timeout=120.0)
            assert record.state.value == "done"
            assert record.result.ok
            assert record.result.positions_hash
            assert record.result.hpwl_m > 0
            # Unknown job ids are a per-request error, not a dead conn.
            with pytest.raises(WireError, match="unknown job"):
                client._wire.wait_result("no-such-job", timeout=5.0)
            # The connection still works afterwards.
            assert client.report()["schema"] == "repro-service/2"

    def test_cancel_over_wire(self, server):
        with Client.connect(*server.address, token="cx") as client:
            # Occupy the single worker, then cancel a queued job.
            running = wire_submit(client, seed=4, max_iterations=30)
            queued = wire_submit(client, seed=5, max_iterations=30)
            assert client.cancel(queued.job_id) is True
            record = client._wait_result(queued.job_id, timeout=30.0)
            assert record.state.value == "cancelled"
            done = client._wait_result(running.job_id, timeout=120.0)
            assert done.state.value == "done"

    def test_scheduling_keywords_reach_the_service(self, server):
        """``retry`` and ``timeout_seconds`` mean the same on both
        transports."""
        policy = RetryPolicy(max_attempts=1)
        specs = []
        for client in (Client.connect(*server.address, token="kw"),
                       Client.local(service=server.service)):
            with client:
                handle = client.submit(
                    "tiny", seed=13, legalize=False, max_iterations=2,
                    retry=policy, timeout_seconds=30.0,
                )
                assert handle.result(timeout=120.0).state.value == "done"
            specs.append(server.service.record(handle.job_id).spec)
        for spec in specs:
            assert spec.retry == policy
            assert spec.timeout_seconds == 30.0
        # The in-process submit named no id: the service assigned one.
        assert specs[1].job_id.startswith("j")

    def test_report_over_wire(self, server):
        with Client.connect(*server.address, token="rep") as client:
            report = client.report()
            assert report["schema"] == "repro-service/2"
            assert "n_cache_hits" in report
            assert report["cache"] is not None


# ----------------------------------------------------------------------
# Client.map on a connected client runs on the server
# ----------------------------------------------------------------------
class TestWireMap:
    def test_map_runs_on_the_server(self, server):
        from repro.parallel import run_batch

        with Client.connect(*server.address, token="map") as client:
            before = client.report()["n_submitted"]
            batch = client.map("tiny", seeds=[0, 1, 2], legalize=False,
                               max_iterations=8)
            after = client.report()["n_submitted"]
        assert after - before == 3
        serial = run_batch(
            [PlacementJob(source="tiny", seed=s, legalize=False,
                          max_iterations=8) for s in (0, 1, 2)],
            workers=0,
        )
        assert [j.ok for j in batch.jobs] == [True] * 3
        assert [j.positions_hash for j in batch.jobs] == [
            j.positions_hash for j in serial.jobs
        ]
        assert [(j.name, j.index) for j in batch.jobs] == [
            (j.name, j.index) for j in serial.jobs
        ]
        assert all(j.flow is None for j in batch.jobs)

    def test_queue_full_is_backpressure(self):
        """A map larger than the server's queue bound still runs every
        job: a shed submit is sent again once one of its jobs ended."""
        config = service_config(max_queue_depth=1)
        with PlacementServer(service_config=config) as srv:
            with Client.connect(*srv.address, token="q") as client:
                seen = []
                batch = client.map(
                    "tiny", seeds=range(4), legalize=False,
                    max_iterations=30,
                    progress=lambda r, done, total: seen.append(done),
                )
                report = client.report()
        assert [j.ok for j in batch.jobs] == [True] * 4
        assert seen == [1, 2, 3, 4]
        assert report["n_done"] == 4
        assert report["n_shed"] >= 1, "nothing shed with a queue bound of 1"
        assert report["n_shed"] == report["n_submitted"] - 4
        assert set(report["shed_reasons"]) == {"queue_full"}


# ----------------------------------------------------------------------
# Result cache over the wire: hits are bit-identical to cold runs
# ----------------------------------------------------------------------
class TestWireCache:
    def test_cache_hit_bit_identical_to_cold_and_serial(self, server):
        with Client.connect(*server.address, token="cache") as client:
            cold = wire_submit(client, seed=21)
            assert cold.cached is False
            cold_rec = cold.result(timeout=120.0)
            assert cold_rec.state.value == "done"

            hit = wire_submit(client, seed=21)
            assert hit.cached is True
            hit_rec = hit.result(timeout=30.0)
            assert hit_rec.state.value == "done"
            assert hit_rec.cached is True

            # Hit == cold == a fresh serial run, down to the positions.
            serial = place("tiny", seed=21, legalize=False, max_iterations=6)
            assert hit_rec.result.positions_hash == \
                cold_rec.result.positions_hash
            assert hit_rec.result.positions_hash == serial.positions_hash()
            assert hit_rec.result.hpwl_m == pytest.approx(
                serial.final_hpwl_m, rel=0, abs=0
            )

    def test_cold_and_hit_result_frames_have_one_shape(self, server):
        """A cache hit's result frame carries a record with exactly the
        cold record's keys."""
        with Client.connect(*server.address, token="shape") as client:
            cold = wire_submit(client, seed=23)
            assert cold.result(timeout=120.0).state.value == "done"
            hit = wire_submit(client, seed=23)
            assert hit.cached is True
            assert hit.result(timeout=30.0).state.value == "done"
            cold_record, hit_record = (
                client._wire._entry(handle.job_id).record_data
                for handle in (cold, hit)
            )
        assert hit_record["cached"] is True
        assert key_paths(hit_record) == key_paths(cold_record)

    def test_cache_hit_flow_arrays_match_serial(self):
        """In-process: the cached FlowResult's arrays (not just the hash)
        equal a fresh serial run of the same spec."""
        import numpy as np

        with Client.local(service_config=service_config()) as client:
            first = client.submit("tiny", seed=33, legalize=False,
                                  max_iterations=5)
            assert first.result(timeout=120.0).state.value == "done"
            second = client.submit("tiny", seed=33, legalize=False,
                                   max_iterations=5)
            assert second.cached is True
            record = second.result(timeout=30.0)
            assert record.result.flow is None
            flow = client.service.cache.get(record.signature)
            assert flow is not None
            serial = place("tiny", seed=33, legalize=False, max_iterations=5)
            assert np.array_equal(flow.final.x, serial.final.x)
            assert np.array_equal(flow.final.y, serial.final.y)
            assert flow.final_hpwl_m == serial.final_hpwl_m


# ----------------------------------------------------------------------
# Streaming progress
# ----------------------------------------------------------------------
class TestStreaming:
    def test_subscribed_job_streams_iterations_then_result(self, server):
        with Client.connect(*server.address, token="str") as client:
            handle = wire_submit(client, seed=41, max_iterations=5,
                                 subscribe=True)
            events = list(handle.stream(timeout=120.0))
            assert events, "no events streamed"
            assert events[-1]["type"] == "result"
            progress = [e for e in events if e["type"] == "progress"]
            assert progress, "no progress frames before the result"
            for event in progress:
                assert event["job"] == handle.job_id
                assert event["iteration"] >= 0
                assert event["hpwl_m"] > 0
                assert "overflow_fraction" in event
            iterations = [e["iteration"] for e in progress]
            assert iterations == sorted(iterations)

    def test_unsubscribed_job_keeps_progress_off(self, server):
        """Zero overhead when nobody listens: the dispatch payload only
        turns streaming on for jobs with a live subscription."""
        broker = server.service.broker
        with Client.connect(*server.address, token="quiet") as client:
            handle = wire_submit(client, seed=42)
            assert not broker.has(handle.job_id)
            record = handle.result(timeout=120.0)
            assert record.state.value == "done"
            assert not broker.has(handle.job_id)

    def test_stream_requires_subscription(self, server):
        with Client.connect(*server.address, token="ns") as client:
            handle = wire_submit(client, seed=43)
            with pytest.raises(RuntimeError, match="subscribe"):
                list(handle.stream(timeout=5.0))
            assert handle.result(timeout=120.0).state.value == "done"


class TestProgressGating:
    """The observer chain defaults to off at every layer."""

    def test_payload_defaults_stream_progress_off(self):
        from repro.parallel.engine import _job_payload

        payload = _job_payload(
            PlacementJob(source="tiny", seed=0, max_iterations=2),
            0, None, False, False,
        )
        assert payload["stream_progress"] is False

    def test_execute_ignores_progress_when_gated_off(self):
        from repro.parallel.engine import _execute_job, _job_payload

        calls = []
        payload = _job_payload(
            PlacementJob(source="tiny", seed=0, legalize=False,
                         max_iterations=2),
            0, None, False, False,
        )
        result = _execute_job(payload, progress=calls.append)
        assert result.ok
        assert calls == []  # gate off → the hook never fires

    def test_execute_streams_when_gated_on(self):
        from repro.parallel.engine import _execute_job, _job_payload

        calls = []
        payload = _job_payload(
            PlacementJob(source="tiny", seed=0, legalize=False,
                         max_iterations=3),
            0, None, False, False,
        )
        payload["stream_progress"] = True
        result = _execute_job(payload, progress=calls.append)
        assert result.ok
        assert len(calls) >= 1
        assert all("iteration" in c and "hpwl_m" in c for c in calls)


# ----------------------------------------------------------------------
# Shedding over the wire
# ----------------------------------------------------------------------
class TestWireShed:
    def test_tenant_quota_and_draining_reasons(self):
        config = service_config(tenant_quota=1, max_queue_depth=64)
        with PlacementServer(service_config=config) as srv:
            with Client.connect(*srv.address, token="hog") as client:
                first = client.submit("tiny", seed=1, legalize=False,
                                      max_iterations=30)
                assert first.admitted
                second = client.submit("tiny", seed=2, legalize=False,
                                       max_iterations=30)
                assert second.admitted is False
                assert second.shed_reason == "tenant_quota"
                # Another tenant is unaffected by the hog's quota.
                with Client.connect(*srv.address, token="calm") as other:
                    ok = other.submit("tiny", seed=3, legalize=False,
                                      max_iterations=2)
                    assert ok.admitted
                    assert ok.result(timeout=120.0).state.value == "done"
                srv.service.admission.begin_drain()
                late = client.submit("tiny", seed=4, legalize=False,
                                     max_iterations=2)
                assert late.admitted is False
                assert late.shed_reason == "draining"
                done = first.result(timeout=120.0)
                assert done.state.value == "done"

    def test_queue_full_reason(self):
        config = service_config(max_queue_depth=1)
        with PlacementServer(service_config=config) as srv:
            with Client.connect(*srv.address, token="q") as client:
                handles = [
                    client.submit("tiny", seed=s, legalize=False,
                                  max_iterations=30)
                    for s in range(4)
                ]
                reasons = [h.shed_reason for h in handles if not h.admitted]
                assert reasons, "nothing shed with a queue bound of 1"
                assert set(reasons) == {"queue_full"}


# ----------------------------------------------------------------------
# Disconnect chaos: a vanished client leaks nothing
# ----------------------------------------------------------------------
class TestDisconnectChaos:
    def test_disconnect_mid_stream_leaks_nothing(self, server):
        broker = server.service.broker
        client = Client.connect(*server.address, token="chaos", timeout=30.0)
        handle = client.submit("tiny", seed=51, legalize=False,
                               max_iterations=60, subscribe=True)
        assert handle.admitted
        job_id = handle.job_id
        assert broker.has(job_id)
        # Wait for at least one progress frame, then vanish rudely.
        stream = handle.stream(timeout=60.0)
        first = next(stream)
        assert first["type"] in ("progress", "result")
        client._wire.sock.close()

        # The server must notice, drop the subscription, and still finish
        # the job — no worker ever blocks on the dead socket.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            record = server.service.record(job_id)
            if record is not None and record.state.value in (
                "done", "failed", "cancelled"
            ):
                break
            time.sleep(0.05)
        record = server.service.record(job_id)
        assert record is not None and record.state.value == "done"
        assert not broker.has(job_id), "subscription leaked past disconnect"

        # And the service keeps serving fresh clients afterwards.
        with Client.connect(*server.address, token="after") as fresh:
            again = fresh.submit("tiny", seed=52, legalize=False,
                                 max_iterations=2)
            assert again.result(timeout=120.0).state.value == "done"

    def test_abrupt_disconnect_before_hello(self, server):
        sock = socket.create_connection(server.address, timeout=10.0)
        sock.close()  # no hello, no goodbye
        # Server stays healthy.
        with Client.connect(*server.address, token="ok") as client:
            assert client.report()["schema"] == "repro-service/2"


# ----------------------------------------------------------------------
# Concurrent wire clients
# ----------------------------------------------------------------------
class TestServerClose:
    """Closing the listener must wake the thread blocked in accept()."""

    @pytest.mark.parametrize("connected", [False, True])
    def test_close_returns_within_a_second(self, connected):
        from repro.service import PlacementService

        with PlacementService(service_config()) as service:
            server = PlacementServer(service).start()
            client = Client.connect(*server.address) if connected else None
            time.sleep(0.2)  # let the accept thread block in accept()
            t0 = time.monotonic()
            server.close()
            elapsed = time.monotonic() - t0
            if client is not None:
                client.close()
        assert elapsed < 1.0


class TestConcurrentClients:
    def test_two_tenants_stream_concurrently(self):
        config = service_config(workers=2)
        with PlacementServer(service_config=config) as srv:
            results = {}
            errors = []

            def run(tenant, seed):
                try:
                    with Client.connect(*srv.address, token=tenant) as c:
                        h = c.submit("tiny", seed=seed, legalize=False,
                                     max_iterations=4, subscribe=True)
                        events = list(h.stream(timeout=120.0))
                        rec = h.result(timeout=120.0)
                        results[tenant] = (events, rec)
                except Exception as exc:  # noqa: BLE001 — collected below
                    errors.append((tenant, exc))

            threads = [
                threading.Thread(target=run, args=(f"t{i}", 60 + i))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180.0)
            assert not errors, errors
            assert len(results) == 3
            for tenant, (events, rec) in results.items():
                assert rec.state.value == "done"
                assert events[-1]["type"] == "result"
                assert all(
                    e["job"].startswith(tenant + "-") for e in events
                )
