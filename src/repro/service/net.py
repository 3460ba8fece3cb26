"""The ``repro-wire/1`` TCP front end over the placement service.

Wire format: every frame is a 4-byte big-endian unsigned length prefix
followed by exactly that many bytes — one UTF-8 JSON object ending in
``"\\n"``.  Length-prefixed JSONL keeps the parser trivial (no
re-synchronization, no streaming JSON) while staying greppable off a
pcap.

Protocol (versioned ``repro-wire/1``):

- the client's **first** frame must be ``hello`` carrying the schema tag
  and an auth ``token`` — the token *is* the tenant identity, and every
  job on the connection is accounted against it by the existing admission
  quotas (a client cannot claim another tenant's quota by editing a job
  spec: the server overwrites the spec's tenant with the connection's);
- ``submit`` carries a JSON job spec (the :meth:`ServiceJob.to_spec`
  format, inline ``netlist_text`` supported) and an optional
  ``subscribe`` flag; the server answers ``submitted`` (with ``cached``
  true when the result cache short-circuited the job) or ``shed`` with
  the structured admission reason;
- ``subscribe``/``cancel``/``result``/``report`` manage a job after
  submit; ``result`` never blocks the connection — the server registers a
  terminal watcher and the ``result`` frame arrives asynchronously, like
  progress frames do;
- server→client frames beyond replies: ``progress`` (one per placer
  iteration of a subscribed job) and ``result`` (terminal record; always
  the last frame of a subscription).

Every connection has exactly one writer thread draining one outbox
queue, so the two frame producers (the reader loop answering requests,
the supervisor loop publishing progress) never interleave bytes on the
socket.  Frames of *different* kinds may reorder around a reply (a cache
hit publishes its terminal ``result`` inside ``submit``, before the
``submitted`` reply is queued); the client demuxes by job id and
tolerates that by construction.

Frames are untrusted input, and a bad one gets an ``error`` reply, never
a bare traceback.  A body that is not a UTF-8 JSON object still had its
length prefix read in full, so the stream stays in sync: the server
replies ``error`` and keeps reading.  A bad first frame (the handshake),
or a length prefix over :data:`MAX_FRAME_BYTES` (the stream is out of
sync), gets its ``error`` reply and then a hang-up.

A client that disconnects mid-stream costs nothing: its reader loop
unsubscribes every handle it registered, its outbox writer dies with the
socket, and the broker additionally drops any callback that raises — the
worker never blocks on a dead consumer because nothing between worker
and socket ever blocks on the socket.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

WIRE_SCHEMA = "repro-wire/1"
#: Upper bound on one frame's byte length — garbage-prefix protection.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LEN = struct.Struct(">I")
#: How long a hang-up waits for the writer to flush the last ``error``
#: frame before it tears the connection down anyway.
_HANG_UP_FLUSH_S = 5.0


class WireError(RuntimeError):
    """A protocol violation or server-reported error."""


class FrameDecodeError(WireError):
    """A frame whose body is not a UTF-8 JSON object.  Its length prefix
    was read in full, so the next frame starts in sync."""


def send_frame(sock: socket.socket, obj: Dict[str, Any]) -> None:
    """Serialize *obj* and write one length-prefixed frame."""
    body = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds the maximum")
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Dict[str, Any]:
    """Read one length-prefixed frame.

    Raises ``EOFError`` on close, :class:`WireError` on a length prefix
    over :data:`MAX_FRAME_BYTES`, and :class:`FrameDecodeError` on a body
    that is not a UTF-8 JSON object.
    """
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds the maximum")
    body = _recv_exact(sock, length)
    try:
        frame = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, deep nesting
        raise FrameDecodeError(f"frame body is not UTF-8 JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise FrameDecodeError("frame body is not a JSON object")
    return frame


class _Connection:
    """Server-side state of one accepted client connection."""

    def __init__(self, sock: socket.socket, peer: Tuple[str, int]):
        self.sock = sock
        self.peer = peer
        self.tenant: Optional[str] = None
        self.outbox: "queue.Queue[Optional[Dict[str, Any]]]" = queue.Queue()
        self.closed = threading.Event()
        #: Broker handles this connection registered, for disconnect
        #: cleanup: job_id -> subscription handle.
        self.subs: Dict[str, Tuple[str, int]] = {}

    def enqueue(self, frame: Dict[str, Any]) -> None:
        """Queue one frame for the writer thread; raises once closed so
        the broker's publish path drops us as a dead subscriber."""
        if self.closed.is_set():
            raise WireError("connection closed")
        self.outbox.put(frame)

    def event_callback(self, job_id: str):
        """A broker callback streaming *job_id*'s events to this client."""
        def callback(event: Dict[str, Any]) -> None:
            self.enqueue(dict(event, job=job_id))
        return callback

    def writer_loop(self) -> None:
        try:
            while True:
                frame = self.outbox.get()
                if frame is None:
                    return
                send_frame(self.sock, frame)
        except OSError:
            pass  # reader loop owns teardown
        finally:
            self.closed.set()


class PlacementServer:
    """TCP front end: ``repro-wire/1`` frames in, placement jobs out.

    Wraps a running :class:`~repro.service.PlacementService` (or owns a
    fresh one built from *service_config*).  ``port=0`` binds an
    ephemeral port — read :attr:`address` after :meth:`start`.  Use as a
    context manager.
    """

    def __init__(
        self,
        service=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        service_config=None,
        events=None,
    ):
        if service is None:
            from .supervisor import PlacementService

            service = PlacementService(service_config, events=events)
            self._owns_service = True
        else:
            self._owns_service = False
        self.service = service
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: List[_Connection] = []
        self._conns_lock = threading.Lock()
        self._stop = threading.Event()
        self._job_seq = 0
        self._seq_lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "PlacementServer":
        if self._listener is not None:
            return self
        if self._owns_service:
            self.service.start()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        self._listener = listener
        self.service.events.emit(
            "server_listen", host=self.address[0], port=self.address[1]
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-wire-accept"
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemerals)."""
        if self._listener is None:
            raise RuntimeError("server not started")
        addr = self._listener.getsockname()
        return (addr[0], addr[1])

    def __enter__(self) -> "PlacementServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop accepting, drop every connection, shut an owned service."""
        if self._stop.is_set():
            return
        self._stop.set()
        if self._listener is not None:
            # Closing a listening socket does not wake a thread blocked in
            # accept(); shutting it down does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            self._drop(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._owns_service:
            self.service.shutdown()

    # -- accept / per-connection loops -----------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, peer)
            with self._conns_lock:
                self._conns.append(conn)
            threading.Thread(
                target=conn.writer_loop, daemon=True,
                name=f"repro-wire-w-{peer[1]}",
            ).start()
            threading.Thread(
                target=self._reader_loop, args=(conn,), daemon=True,
                name=f"repro-wire-r-{peer[1]}",
            ).start()

    def _drop(self, conn: _Connection) -> None:
        """Tear one connection down; idempotent, callable from any side.

        Keyed on membership, not on ``closed``: the writer sets ``closed``
        when it exits, and the teardown must still run after that.
        """
        with self._conns_lock:
            if conn not in self._conns:
                return
            self._conns.remove(conn)
        conn.closed.set()
        for handle in conn.subs.values():
            self.service.broker.unsubscribe(handle)
        conn.subs.clear()
        conn.outbox.put(None)  # wake the writer so it exits
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self.service.events.emit(
            "client_disconnect", tenant=conn.tenant, port=conn.peer[1]
        )

    def _hang_up(self, conn: _Connection, error: str) -> None:
        """Send a last ``error`` frame; the caller then tears down.

        The frame queues behind any frames already in the outbox, and the
        writer exits after it.  Waiting for that (bounded) keeps the
        teardown from cutting the reply off.
        """
        if conn.closed.is_set():
            return
        conn.outbox.put({"type": "error", "error": error})
        conn.outbox.put(None)
        conn.closed.wait(_HANG_UP_FLUSH_S)

    def _reader_loop(self, conn: _Connection) -> None:
        try:
            hello = recv_frame(conn.sock)
            if hello.get("type") != "hello" or (
                hello.get("schema") != WIRE_SCHEMA
            ):
                raise WireError(f"expected a {WIRE_SCHEMA} hello frame")
            conn.tenant = str(hello.get("token") or "default")
            conn.enqueue({
                "type": "hello", "schema": WIRE_SCHEMA,
                "tenant": conn.tenant,
            })
            self.service.events.emit(
                "client_connect", tenant=conn.tenant, port=conn.peer[1]
            )
            while not self._stop.is_set():
                try:
                    frame = recv_frame(conn.sock)
                except FrameDecodeError as exc:
                    conn.enqueue({"type": "error", "error": str(exc)})
                    continue
                self._handle(conn, frame)
        except WireError as exc:
            # A bad handshake, an oversized length prefix, or a connection
            # already closed (then there is nobody left to tell).
            self._hang_up(conn, str(exc))
        except (EOFError, OSError):
            pass  # disconnect (clean or not): fall through to cleanup
        finally:
            self._drop(conn)

    # -- request handling ------------------------------------------------
    def _handle(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        kind = frame.get("type")
        try:
            if kind == "submit":
                self._handle_submit(conn, frame)
            elif kind == "subscribe":
                self._handle_subscribe(conn, frame)
            elif kind == "cancel":
                job_id = str(frame.get("job"))
                ok = self.service.cancel(job_id)
                conn.enqueue({"type": "cancelled", "job": job_id, "ok": ok})
            elif kind == "result":
                self._handle_result(conn, frame)
            elif kind == "report":
                conn.enqueue({
                    "type": "report", "report": self.service.report(),
                })
            else:
                conn.enqueue({
                    "type": "error",
                    "error": f"unknown frame type {kind!r}",
                })
        except WireError:
            raise
        except Exception as exc:  # noqa: BLE001 — one bad request != conn
            conn.enqueue({
                "type": "error", "request": kind,
                "error": f"{type(exc).__name__}: {exc}",
            })

    def _next_job_id(self, tenant: str) -> str:
        with self._seq_lock:
            self._job_seq += 1
            return f"{tenant}-{self._job_seq:05d}"

    def _handle_submit(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        from dataclasses import replace

        from .jobs import ServiceJob

        spec = dict(frame.get("spec") or {})
        if "inject_faults" in spec:
            # Fault hooks kill workers and create files at paths the spec
            # names: in-process test machinery, never a remote client's.
            raise ValueError("inject_faults is not accepted over the wire")
        job_id = str(spec.pop("id", None) or self._next_job_id(conn.tenant))
        job = ServiceJob.from_spec(spec, job_id=job_id)
        # The connection's auth token is the tenant; a spec cannot claim
        # another tenant's quota.
        job = replace(job, tenant=conn.tenant)
        subscribe = bool(frame.get("subscribe"))
        if subscribe:
            # Register on the broker *before* submit so the stream is
            # complete from iteration one — and so a cache hit's terminal
            # event (published inside submit) reaches this client.
            handle = self.service.broker.subscribe(
                job_id, conn.event_callback(job_id)
            )
            conn.subs[job_id] = handle
        # A cache hit or shed publishes its terminal event inside
        # submit(), ahead of this reply — the client's per-job demux
        # absorbs that reordering.  No lock may be held around submit():
        # broker callbacks also run under the supervisor's condition
        # variable, and holding a connection lock here would deadlock
        # against a concurrent progress publish.
        ticket = self.service.submit(job)
        if ticket.admitted:
            conn.enqueue({
                "type": "submitted", "job": ticket.job_id,
                "cached": ticket.cached,
            })
        else:
            conn.enqueue({
                "type": "shed", "job": ticket.job_id,
                "reason": ticket.reason,
            })

    def _handle_subscribe(
        self, conn: _Connection, frame: Dict[str, Any]
    ) -> None:
        job_id = str(frame.get("job"))
        conn.enqueue({"type": "subscribed", "job": job_id})
        handle = self.service.subscribe(job_id, conn.event_callback(job_id))
        if handle is not None:
            conn.subs[job_id] = handle

    def _handle_result(self, conn: _Connection, frame: Dict[str, Any]) -> None:
        job_id = str(frame.get("job"))
        record = self.service.record(job_id)
        if record is None:
            conn.enqueue({
                "type": "error", "request": "result",
                "error": f"unknown job {job_id!r}",
            })
            return

        def deliver(rec) -> None:
            try:
                conn.enqueue({
                    "type": "result", "job": job_id,
                    "state": rec.state.value, "record": rec.to_dict(),
                })
            except WireError:
                pass  # client left; nothing to deliver to

        # Ack synchronously, deliver asynchronously: terminal now →
        # delivered right behind the ack, otherwise the watcher fires on
        # the terminal transition.  The reader loop never blocks.
        conn.enqueue({"type": "result_pending", "job": job_id})
        self.service.on_terminal(job_id, deliver)


class _JobEntry:
    """Client-side demux state of one job on a wire connection."""

    def __init__(self):
        self.events: "queue.Queue[Dict[str, Any]]" = queue.Queue()
        self.terminal = threading.Event()
        self.record_data: Optional[Dict[str, Any]] = None
        self.result_requested = False


class WireClient:
    """Client half of ``repro-wire/1``: one socket, serialized RPCs, a
    reader thread demuxing async ``progress``/``result`` frames into
    per-job queues.  :class:`repro.api.Client` wraps this; use that."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        token: str = "default",
        timeout: float = 10.0,
    ):
        self.token = token
        self.timeout = timeout
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(self.sock, {
            "type": "hello", "schema": WIRE_SCHEMA, "token": token,
        })
        reply = recv_frame(self.sock)
        if reply.get("type") != "hello" or reply.get("schema") != WIRE_SCHEMA:
            raise WireError(f"handshake failed: {reply}")
        self.sock.settimeout(None)
        self._rpc_lock = threading.Lock()
        self._replies: "queue.Queue[Dict[str, Any]]" = queue.Queue()
        self._jobs: Dict[str, _JobEntry] = {}
        self._jobs_lock = threading.Lock()
        self._closed = threading.Event()
        #: Optional hook fired from the reader thread on every terminal
        #: ``result`` frame, for a caller that times completions without
        #: a thread per job.
        self.on_result = None
        self._reader = threading.Thread(
            target=self._reader_loop, daemon=True, name="repro-wire-client"
        )
        self._reader.start()

    # -- plumbing --------------------------------------------------------
    def _entry(self, job_id: str) -> _JobEntry:
        with self._jobs_lock:
            entry = self._jobs.get(job_id)
            if entry is None:
                entry = self._jobs[job_id] = _JobEntry()
            return entry

    def _reader_loop(self) -> None:
        try:
            while True:
                frame = recv_frame(self.sock)
                kind = frame.get("type")
                if kind == "progress":
                    self._entry(str(frame.get("job"))).events.put(frame)
                elif kind == "result":
                    entry = self._entry(str(frame.get("job")))
                    entry.record_data = frame.get("record")
                    entry.events.put(frame)
                    entry.terminal.set()
                    hook = self.on_result
                    if hook is not None:
                        hook(frame)
                else:  # an RPC reply (submitted/shed/cancelled/... /error)
                    self._replies.put(frame)
        except (EOFError, OSError, WireError):
            self._closed.set()
            # Wake every waiter: the connection is gone.
            with self._jobs_lock:
                for entry in self._jobs.values():
                    entry.terminal.set()

    def _rpc(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        with self._rpc_lock:
            if self._closed.is_set():
                raise WireError("connection closed")
            send_frame(self.sock, frame)
            try:
                reply = self._replies.get(timeout=self.timeout)
            except queue.Empty:
                raise WireError(
                    f"no reply to {frame.get('type')!r} within "
                    f"{self.timeout}s"
                ) from None
        if reply.get("type") == "error":
            raise WireError(reply.get("error") or "server error")
        return reply

    def close(self) -> None:
        self._closed.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    # -- the operations api.Client delegates to --------------------------
    def submit_job(
        self,
        client,
        job,
        *,
        job_id: Optional[str] = None,
        priority: int = 0,
        timeout_seconds: Optional[float] = None,
        subscribe: bool = False,
    ):
        """Submit a :class:`PlacementJob`/:class:`ServiceJob`; returns the
        :class:`repro.api.JobHandle` *client* hands out."""
        from ..api import JobHandle
        from .jobs import ServiceJob

        if not isinstance(job, ServiceJob):
            job = ServiceJob(
                job=job,
                job_id=job_id or "",
                priority=priority,
                timeout_seconds=timeout_seconds,
            )
        spec = job.to_spec()
        if not spec.get("id"):
            spec.pop("id", None)  # let the server assign one
        reply = self._rpc({
            "type": "submit", "spec": spec, "subscribe": subscribe,
        })
        assigned = str(reply.get("job"))
        entry = self._entry(assigned)
        if reply.get("type") == "shed":
            return JobHandle(
                client, assigned, admitted=False,
                shed_reason=reply.get("reason"),
                events=entry.events if subscribe else None,
            )
        return JobHandle(
            client, assigned,
            cached=bool(reply.get("cached")),
            events=entry.events if subscribe else None,
        )

    def cancel(self, job_id: str) -> bool:
        reply = self._rpc({"type": "cancel", "job": job_id})
        return bool(reply.get("ok"))

    def wait_result(self, job_id: str, timeout: Optional[float] = None):
        """Block until the job's terminal ``result`` frame; returns the
        reconstructed :class:`~repro.service.jobs.JobRecord` (or ``None``
        on timeout)."""
        from .jobs import JobRecord

        entry = self._entry(job_id)
        if not entry.terminal.is_set() and not entry.result_requested:
            entry.result_requested = True
            send_reply = self._rpc({"type": "result", "job": job_id})
            # The reply *is* asynchronous (the server never blocks); any
            # non-error ack means the watcher is armed.  Errors raised.
            del send_reply
        if not entry.terminal.wait(timeout):
            return None
        if entry.record_data is None:
            if self._closed.is_set():
                raise WireError("connection closed before the result")
            return None
        return JobRecord.from_dict(entry.record_data)

    def map(self, jobs: Sequence, progress: Optional[Callable] = None):
        """Run *jobs* on the server, one attempt each, and return their
        :class:`~repro.parallel.BatchResult` (in job order, without flows).

        A submit shed for ``queue_full`` is sent again once this map's
        oldest running job has ended; any other shed fails its job as
        ``shed``.  *progress* is called from this thread, in job order.
        """
        from ..parallel.jobs import BatchResult
        from .jobs import RetryPolicy, ServiceJob

        t0 = time.perf_counter()
        jobs = [replace(job, name=job.display_name(i))
                for i, job in enumerate(jobs)]
        results: List[Any] = []
        running: deque = deque()  # (index, server job id), oldest first

        def collect() -> None:
            index, job_id = running.popleft()
            record = self.wait_result(job_id)
            results.append(record.batch_result(jobs[index], index))
            if progress is not None:
                progress(results[-1], len(results), len(jobs))

        for index, job in enumerate(jobs):
            spec = ServiceJob(job, "", retry=RetryPolicy(max_attempts=1))
            handle = self.submit_job(None, spec)
            while handle.shed_reason == "queue_full" and running:
                collect()
                handle = self.submit_job(None, spec)
            running.append((index, handle.job_id))
        while running:
            collect()
        return BatchResult(
            jobs=tuple(results), wall_seconds=time.perf_counter() - t0,
            workers=0, mp_context="wire",
        )

    def report(self) -> Dict[str, Any]:
        reply = self._rpc({"type": "report"})
        return reply.get("report") or {}


__all__ = [
    "FrameDecodeError",
    "MAX_FRAME_BYTES",
    "PlacementServer",
    "WIRE_SCHEMA",
    "WireClient",
    "WireError",
    "recv_frame",
    "send_frame",
]
