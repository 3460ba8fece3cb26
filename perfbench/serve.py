"""serve-1k: open-loop requests over one ``repro-wire/1`` connection.

The server is ``repro serve --listen`` in a process of its own (with
``workers = max(1, nproc - 1)`` and the default result cache).  The load
generator runs here, in the benchmark process, with one connection and two
threads: this one sends on the schedule, and the client library's reader
thread time-stamps each ``result`` frame.  Latency runs from a request's
scheduled send time to its ``result`` frame, so a stalled sender is charged
for the wait it imposes on later requests.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from stats import SERVE_PARTS, median, percentile, serve_parts
from workloads import SETUP_REPS, make_inputs

HERE = Path(__file__).resolve().parent

#: How long to wait for the server to listen, for results after the last
#: scheduled send, and for the server to exit after SIGINT.
START_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class Server:
    """One ``repro serve --listen`` process (traced: with call timers and
    per-job traces), in a session of its own with its workers."""

    def __init__(self, workers: int, work: Path, calls: Optional[Path] = None):
        args = ["serve", "--listen", "127.0.0.1:0", "--workers", str(workers)]
        if calls is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            args += ["--trace-dir", str(work / "server-traces")]
            cmd = [
                sys.executable, str(HERE / "program.py"), "server",
                "--calls", str(calls), "--", *args,
            ]
        # Output goes to a file, not a pipe: the forked workers inherit it,
        # and a pipe would reach EOF only when the last of them has exited.
        with tempfile.NamedTemporaryFile(
            "w", dir=work, prefix="server-", suffix=".log", delete=False
        ) as log:
            self.log = Path(log.name)
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
            )
        self.address: Optional[Tuple[str, int]] = None
        deadline = time.monotonic() + START_TIMEOUT_S
        while self.address is None:
            listening = re.search(r"serve: listening on (\S+):(\d+)", self.log.read_text())
            if listening:
                self.address = (listening[1], int(listening[2]))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start:\n{self.log.read_text()}")
            else:
                time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """Largest VmHWM of the server and its worker processes."""
        pids = [self.proc.pid] + _children(self.proc.pid)
        return max(_vm_hwm_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGINT makes ``repro serve`` drain and exit.  Whatever is left of
        its session after STOP_TIMEOUT_S is killed, and waited for."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while self.proc.poll() is None and time.monotonic() < deadline:
            # On exit the server closes its listener and joins the accept
            # thread for up to 5 s, but closing a socket does not wake a
            # blocked accept(); a connection does.
            if self.address is not None:
                try:
                    socket.create_connection(self.address, timeout=0.2).close()
                except OSError:
                    pass
            time.sleep(0.05)
        if self.proc.poll() is None:
            print(f"serve-1k: server ignored SIGINT for {STOP_TIMEOUT_S:g} s; "
                  f"killed (log: {self.log.read_text()[-2000:]!r})", file=sys.stderr)
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # Workers left behind are reaped by init; wait until they are gone.
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def _children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            # The command name may hold spaces; fields resume after ")".
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                out.append(int(entry))
    return out


def _vm_hwm_kb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


class Results:
    """``result`` frames by job id, filled by the client's reader thread."""

    def __init__(self):
        self._cond = threading.Condition()
        self.frames: Dict[str, Tuple[float, Dict[str, Any]]] = {}

    def on_result(self, frame: Dict[str, Any]) -> None:
        received = time.monotonic()
        with self._cond:
            self.frames[str(frame.get("job"))] = (received, frame.get("record") or {})
            self._cond.notify_all()

    def wait_for(self, job_ids, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._cond:
            while not all(j in self.frames for j in job_ids):
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self._cond.wait(left)
        return True


def _connect(server: Server, results: Results):
    import repro

    client = repro.Client.connect(*server.address, timeout=30.0)
    # The wire client's completion tap: called from its reader thread on
    # every terminal ``result`` frame.
    client._wire.on_result = results.on_result
    return client


def submit(client, manifest, netlists, request):
    """Submit one request: its design inline, its placer seed, the cap."""
    return client.submit(
        netlists[request["design"]], seed=request["seed"],
        max_iterations=manifest["max_iterations"],
    )


def start(manifest, netlists, work: Path, calls: Optional[Path] = None):
    """Start a server, connect, run the warm-up requests; returns
    ``(server, client, results, setup_s)``."""
    t0 = time.monotonic()
    server = Server(manifest["workers"], work, calls)
    results = Results()
    client = _connect(server, results)
    handles = [submit(client, manifest, netlists, w) for w in manifest["warmup"]]
    for handle in handles:
        handle.result(timeout=0)  # arm the server's terminal watcher
    if not results.wait_for([h.job_id for h in handles], DRAIN_TIMEOUT_S):
        raise RuntimeError("warm-up requests did not finish")
    return server, client, results, time.monotonic() - t0


def window(manifest, netlists, client, results: Results) -> List[Dict[str, Any]]:
    """Send every request on its schedule; returns one row per request."""
    sent = []
    t0 = time.monotonic()
    for i, req in enumerate(manifest["requests"]):
        scheduled = t0 + req["at"]
        delay = scheduled - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        t_send = time.monotonic()
        handle = submit(client, manifest, netlists, req)
        t_ack = time.monotonic()
        handle.result(timeout=0)  # arm the server's terminal watcher
        sent.append({
            "i": i, "job": handle.job_id, "admitted": handle.admitted,
            "scheduled": scheduled, "sent": t_send, "acked": t_ack,
        })
    results.wait_for([s["job"] for s in sent if s["admitted"]], DRAIN_TIMEOUT_S)
    rows = []
    for s in sent:
        received, record = results.frames.get(s["job"], (None, {}))
        row = dict(s, received=received, record=record)
        row["done"] = record.get("state") == "done"
        if row["done"]:
            result = record.get("result") or {}
            row["latency_s"] = received - s["scheduled"]
            row["parts"] = serve_parts(
                scheduled=s["scheduled"], sent=s["sent"], acked=s["acked"],
                received=received, server_latency_s=record["latency_s"],
                attempt_seconds=[a["seconds"] for a in record["attempts"]],
                worker_s=result["seconds"],
            )
        rows.append(row)
    return rows


def check(manifest, netlists, rows, client, results: Results, notes: List[str]) -> List[bool]:
    """Check the window's outputs; returns one OK flag per request.

    Every request must finish cold (no cache hit).  A sample is re-run in
    this process with ``repro.place`` (serial against pool: same positions
    hash, legal placement) and then resubmitted, which must be answered
    from the cache with the same hash (cold run against cache hit).
    """
    import repro
    from repro.testing import assert_legal

    ok = [row["done"] and not row["record"]["cached"] for row in rows]
    for row, good in zip(rows, ok):
        if row["admitted"] and row["done"] and not good:
            notes.append(f"request {row['i']} was answered from the cache")
    resubmitted = []
    for i in manifest["checked"]:
        row, req = rows[i], manifest["requests"][i]
        if not ok[i]:
            continue
        served = row["record"]["result"]["positions_hash"]
        netlist = netlists[req["design"]]
        flow = repro.place(
            netlist, seed=req["seed"], max_iterations=manifest["max_iterations"]
        )
        try:
            assert_legal(flow.final, repro.region_for_netlist(netlist))
        except AssertionError as exc:
            notes.append(f"request {i}: in-process placement illegal: {exc}")
            ok[i] = False
        if flow.positions_hash() != served:
            notes.append(f"request {i}: served hash differs from an in-process run")
            ok[i] = False
        handle = submit(client, manifest, netlists, req)
        handle.result(timeout=0)
        resubmitted.append((i, handle, served))
    results.wait_for([h.job_id for _, h, _ in resubmitted], DRAIN_TIMEOUT_S)
    for i, handle, served in resubmitted:
        _, record = results.frames.get(handle.job_id, (None, {}))
        digest = (record.get("result") or {}).get("positions_hash")
        if not handle.cached or digest != served:
            notes.append(
                f"request {i}: resubmit cached={handle.cached}, hash "
                f"{'matches' if digest == served else 'differs'}"
            )
            ok[i] = False
    return ok


def _p50(values) -> float:
    return percentile(values, 0.5)[0]


def mean_latency(rows) -> float:
    """serve-1k's ``place_s``: the mean latency of the finished requests.

    A request is either fast (about 0.3 s) or meets another request or one
    of the server's full garbage collections (0.45-0.9 s), and about 40% do
    the latter; the p50 then jumps between the two modes from run to run,
    while the mean moves with the share of slow requests.
    """
    return sum(row["latency_s"] for row in rows) / len(rows)


def _counts(report: Dict[str, Any]) -> Dict[str, float]:
    return {
        "service.queue_depth_max": report["queue_depth_max"],
        "service.retries": report["retries"],
        "service.restarts": report["worker"]["restarts"],
        "service.shed": report["n_shed"],
        "service.cache_hits": report["n_cache_hits"],
    }


def measure(manifest, netlists, work: Path, notes: List[str], *, checked: bool,
            calls: Optional[Path] = None) -> Dict[str, Any]:
    """Start a server, run the window, read the server's counts and peak
    RSS, optionally check the outputs, and stop the server."""
    server, client, results, setup_s = start(manifest, netlists, work, calls)
    try:
        rows = window(manifest, netlists, client, results)
        counts = _counts(client.report())
        rss = server.peak_rss_mb()
        ok = check(manifest, netlists, rows, client, results, notes) if checked else None
    finally:
        client.close()
        server.stop()
    if counts["service.cache_hits"]:
        notes.append(f"{counts['service.cache_hits']} cache hits in the timed window")
    return {"rows": rows, "counts": counts, "rss": rss, "ok": ok, "setup_s": setup_s}


def run_serve(seed: int, seconds: float, trace: bool, work: Path) -> Dict[str, Any]:
    """One run of serve-1k.  Untraced: set up ``SETUP_REPS`` times (the last
    server is measured) and check the window's outputs.  Traced: repeat the
    window against a traced server and check that one."""
    from repro.netlist import netlist_from_string

    t0 = time.perf_counter()
    manifest = make_inputs("serve-1k", seed, seconds, work)
    generate_s = time.perf_counter() - t0
    netlists = [
        netlist_from_string(Path(path).read_text(encoding="utf-8")) for path in manifest["designs"]
    ]
    setups = []
    if not trace:
        for _ in range(SETUP_REPS - 1):
            server, client, _, setup_s = start(manifest, netlists, work)
            client.close()
            server.stop()
            setups.append(setup_s)
    notes: List[str] = []
    untraced = measure(manifest, netlists, work, notes, checked=not trace)
    setups.append(untraced["setup_s"])
    done = [row for row in untraced["rows"] if row["done"]]
    latency = mean_latency(done)
    measured = untraced
    if trace:
        measured = measure(manifest, netlists, work, notes, checked=True,
                           calls=work / "server-calls")
    ok = measured["ok"]
    result: Dict[str, Any] = {
        "attempted": len(ok),
        "failed": ok.count(False),
        "notes": notes,
        "samples": {"place_s": len(done), "legal_hpwl_m": len(done)},
        "e2e": {
            "place_s": latency,
            "legal_hpwl_m": median(row["record"]["legal_hpwl_m"] for row in done),
            "peak_rss_mb": untraced["rss"],
            "ok_frac": ok.count(True) / len(ok),
            "setup_s": median(setups),
        },
    }
    if trace:
        result["layers"] = traced_layers(measured, work / "server-calls", latency)
        result["layers"]["harness.generate_s"] = generate_s
    result["correct"] = not notes
    return result


def traced_layers(traced: Dict[str, Any], calls_dir: Path, untraced_latency: float) -> Dict[str, float]:
    """Per-layer metrics of the traced window."""
    from layers import job_layers
    from program import read_calls

    done = [row for row in traced["rows"] if row["done"]]
    jobs = [
        dict(row["record"]["result"], trace=row["record"]["result"]["trace_path"])
        for row in done
    ]
    layers = job_layers(jobs, read_calls(calls_dir))
    layers.update(traced["counts"])
    layers["service.requests"] = len(done)
    for part in SERVE_PARTS[1:]:
        layers[f"service.{part}_s_p50"] = _p50([row["parts"][part] for row in done])
    late = [row["parts"]["late"] for row in done]
    layers["harness.late_p50_s"] = _p50(late)
    layers["harness.late_max_s"] = max(late)
    layers["observability.trace_overhead_frac"] = mean_latency(done) / untraced_latency - 1.0
    return layers
