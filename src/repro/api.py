"""Stable one-call facade over the whole placement flow.

Everything the repo can place — a :class:`~repro.netlist.Netlist`, a
generated circuit, a suite-circuit name, a bench size, a Bookshelf ``.aux``
file or a repro ``.netlist`` file — goes through two surfaces:

- :func:`place` runs global placement (plus legalization by default) on one
  design and returns a frozen, picklable :class:`FlowResult`;
- :class:`Client` is the *single* client surface over the placement
  service: ``submit() -> JobHandle``, ``handle.stream()`` for per-iteration
  progress, ``handle.result()``, ``cancel()``, and ``map()`` for many
  designs/seeds at once — with two interchangeable transports, in-process
  (wrapping :class:`~repro.service.PlacementService`) and socket (the
  ``repro-wire/1`` protocol of :mod:`repro.service.net`).
  :func:`repro.service.serve_jobs` is a thin convenience wrapper over it.

Quickstart::

    import repro

    result = repro.place("primary1", scale=0.3)
    print(result.final_hpwl_m, "m of wire")

    with repro.Client.local() as client:          # or Client.connect(...)
        batch = client.map("tiny", seeds=range(8), workers=4)
        print(batch.best_hpwl_m, batch.speedup_estimate)

        handle = client.submit("tiny", seed=3, subscribe=True)
        for event in handle.stream():
            print(event.get("iteration"), event.get("hpwl_m"))
        print(handle.result().state)

The facade replaces hand-stitching ``make_circuit`` + ``KraftwerkPlacer`` +
``final_placement`` + ``hpwl_meters``; those remain public for callers that
need the individual layers.
"""

from __future__ import annotations

import queue as _queue
import threading
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

# The placer is imported inside the functions that place or validate, so a
# wire client (``Client.connect``) loads neither it nor scipy.
from .geometry import PlacementRegion
from .netlist import (
    GeneratedCircuit,
    Netlist,
    Placement,
    ROW_HEIGHT,
    load_bookshelf,
    load_netlist,
    make_circuit,
)
from .netlist.bookshelf import bookshelf_key
from .netlist.memo import DESIGNS, content_key

if TYPE_CHECKING:
    from .core.config import PlacerConfig
    from .core.placer import PlacementResult

#: Everything :func:`place` accepts as a design description.
PlaceSource = Union[
    Netlist,
    GeneratedCircuit,
    str,
    Path,
    Tuple[Netlist, PlacementRegion],
]


def region_for_netlist(
    netlist: Netlist, utilization: float = 0.8
) -> PlacementRegion:
    """Square-ish standard-cell region sized from cell area at *utilization*."""
    area = netlist.movable_area() / utilization
    height = max(ROW_HEIGHT, round((area**0.5) / ROW_HEIGHT) * ROW_HEIGHT)
    width = area / height
    return PlacementRegion.standard_cell(width, height, ROW_HEIGHT)


def _memo_bookshelf(path: Path) -> Tuple[Netlist, PlacementRegion]:
    """A Bookshelf set through the design memo.

    A miss calls :func:`load_bookshelf` and keeps its netlist and region;
    the initial placement it also returns is mutable and is dropped.  A
    set rewritten while it was parsed is returned but not memoized.
    """
    key = bookshelf_key(path)
    hit = DESIGNS.get(key)
    if hit is not None:
        return hit
    netlist, file_region, _placement = load_bookshelf(path)
    if bookshelf_key(path) != key:
        return netlist, file_region
    return DESIGNS.put(key, netlist, file_region)


def _memo_generated(
    name: str, scale: float
) -> Optional[Tuple[Netlist, PlacementRegion]]:
    """The ``(netlist, region)`` of a bench size or suite circuit through
    the design memo, or ``None`` when *name* is neither."""
    from .netlist import generate_circuit
    from .netlist.benchmarks import PROFILES_BY_NAME
    from .netlist.generator import BENCH_SIZES, bench_spec

    if name not in BENCH_SIZES and name not in PROFILES_BY_NAME:
        return None

    def build():
        # Bench sizes first: they are the canonical generator circuits
        # (tiny … huge) the regression harness and the batch smoke use.
        if name in BENCH_SIZES:
            circuit = generate_circuit(bench_spec(name))
        else:
            circuit = make_circuit(name, scale=scale)
        return circuit.netlist, circuit.region

    key = content_key(
        b"generated", name.encode("utf-8"), repr(float(scale)).encode("utf-8")
    )
    return DESIGNS.load(key, build)


def resolve_source(
    source: PlaceSource,
    *,
    region: Optional[PlacementRegion] = None,
    utilization: float = 0.8,
    scale: float = 0.2,
) -> Tuple[Netlist, PlacementRegion, str]:
    """Normalize any :data:`PlaceSource` to ``(netlist, region, name)``.

    Resolution order for strings/paths: an existing ``.aux`` path loads as
    Bookshelf (the region comes from the ``.scl`` rows); any other existing
    path loads as a repro netlist file; otherwise the string is looked up as
    a bench size (``tiny``/``small``/``medium``) and then as a suite circuit
    name (``fract`` … ``avq.large``, sized by *scale*).  An explicit
    ``region=`` always wins; without one, ``.netlist`` files and in-memory
    netlists get a derived region at *utilization*.

    File and generated sources go through the process-wide design memo
    (:mod:`repro.netlist.memo`), keyed by the SHA-256 of the bytes read
    (for generated sources: of the name and *scale*).  So each distinct
    design is parsed or generated at most once per process while it is
    in use, and a file rewritten in place is read anew.  The memo keeps
    recently used designs alive up to a total-cell bound; a design larger
    than that lives as long as its users do.
    """
    if isinstance(source, GeneratedCircuit):
        netlist = source.netlist
        resolved = region or source.region
        return netlist, resolved, netlist.name
    if isinstance(source, Netlist):
        resolved = region or region_for_netlist(source, utilization)
        return source, resolved, source.name
    if isinstance(source, tuple):
        if len(source) != 2 or not isinstance(source[0], Netlist):
            raise TypeError(
                "tuple sources must be (Netlist, PlacementRegion), got "
                f"{source!r}"
            )
        netlist, tuple_region = source
        return netlist, region or tuple_region, netlist.name
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.exists() and path.is_file():
            if path.suffix == ".aux":
                netlist, file_region = _memo_bookshelf(path)
                return netlist, region or file_region, netlist.name
            netlist = load_netlist(path)
            resolved = region or region_for_netlist(netlist, utilization)
            return netlist, resolved, netlist.name
        name = str(source)
        generated = _memo_generated(name, scale)
        if generated is not None:
            netlist, gen_region = generated
            return netlist, region or gen_region, name
        raise ValueError(
            f"cannot resolve placement source {source!r}: not an existing "
            "file, bench size, or suite circuit name"
        )
    raise TypeError(
        "source must be a Netlist, GeneratedCircuit, (netlist, region) "
        f"tuple, or a path/name string — got {type(source).__name__}"
    )


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one full place(+legalize) flow.

    Frozen and picklable by construction — coordinates, scalars and the
    config's dict form only, no solver or telemetry handles — so results
    cross process boundaries cleanly (the batch engine ships them back from
    worker processes).  The placements' netlist pickles as its canonical
    text, and a process that still holds the design gets that very
    netlist back (see :mod:`repro.netlist.memo`).

    Its JSON form is :meth:`summary`, scalars only; the coordinates are
    saved with :func:`repro.netlist.save_placement`.
    """

    #: Resolved design name (netlist name or source string).
    name: str
    #: The global (analytical) placement.
    placement: Placement
    #: The legalized placement, or ``None`` when ``legalize=False``.
    legalized: Optional[Placement]
    #: HPWL of the global placement, meters.
    hpwl_m: float
    #: HPWL of the legalized placement, meters (``None`` without legalize).
    legal_hpwl_m: Optional[float]
    converged: bool
    iterations: int
    #: Wall-clock of the full flow (place + legalize), seconds.
    seconds: float
    timed_out: bool
    recovery_escalations: int
    #: The seed actually used (mirrors ``config["seed"]``).
    seed: int
    #: The exact :meth:`~repro.core.config.PlacerConfig.to_dict` knobs used.
    config: Dict[str, Any]

    @property
    def final(self) -> Placement:
        """The most refined placement available (legalized when present)."""
        return self.legalized if self.legalized is not None else self.placement

    @property
    def final_hpwl_m(self) -> float:
        """HPWL of :attr:`final`, meters."""
        return self.legal_hpwl_m if self.legal_hpwl_m is not None else self.hpwl_m

    def summary(self) -> Dict[str, Any]:
        """JSON-safe scalar summary (no coordinate arrays)."""
        return {
            "name": self.name,
            "hpwl_m": self.hpwl_m,
            "legal_hpwl_m": self.legal_hpwl_m,
            "final_hpwl_m": self.final_hpwl_m,
            "converged": self.converged,
            "iterations": self.iterations,
            "seconds": round(self.seconds, 6),
            "timed_out": self.timed_out,
            "recovery_escalations": self.recovery_escalations,
            "seed": self.seed,
        }

    def positions_hash(self) -> str:
        """SHA-256 over :attr:`final`'s coordinate bytes — the same digest
        the bench harness pins, so cache hits and cold runs compare
        bit-exactly without shipping arrays."""
        from .netlist.placement import placement_hash

        return placement_hash(self.final)


def place(
    source: PlaceSource,
    *,
    config: Optional[Union[PlacerConfig, Dict[str, Any]]] = None,
    legalize: bool = True,
    seed: int = 0,
    region: Optional[PlacementRegion] = None,
    utilization: float = 0.8,
    scale: float = 0.2,
    telemetry=None,
    max_iterations: Optional[int] = None,
    resume_from=None,
    iteration_hook: Optional[Callable[..., None]] = None,
) -> FlowResult:
    """Place one design end to end and return a :class:`FlowResult`.

    *source* is anything :func:`resolve_source` accepts.  *config* is a
    :class:`~repro.core.config.PlacerConfig` or its ``to_dict()`` form;
    *seed* always wins over the config's seed so multi-start sweeps can
    share one config object.  ``legalize=True`` (the default) runs the
    Abacus + detailed-improvement final placement after global placement.
    This is the one place the library chains the two stages: ``repro
    place``, ``repro bench`` and every batch and service job run it.
    *telemetry* records the ``setup`` span (one per V-cycle level), the
    placer's spans, and the ``legalize`` span.
    *iteration_hook* — ``hook(stats, placement)`` called once per placer
    transformation (the streaming-progress bridge); passing one opens the
    placer's observer gate.  So does a verbose config or a deadline; with
    none of the three the per-iteration HPWL and max-force stats are
    skipped (NaN in the history), whatever *telemetry* is passed.

    The call is deterministic: the same source, config and seed produce a
    bit-identical placement in any process; *iteration_hook* observes but
    never perturbs the trajectory.
    """
    from .core.config import PlacerConfig
    from .core.placer import KraftwerkPlacer
    from .evaluation.wirelength import hpwl_meters
    from .legalize import final_placement
    from .observability import NULL_TELEMETRY

    netlist, resolved_region, name = resolve_source(
        source, region=region, utilization=utilization, scale=scale
    )
    if isinstance(config, dict):
        config = PlacerConfig.from_dict(config)
    cfg = dc_replace(config, seed=seed) if config is not None else PlacerConfig(
        seed=seed
    )
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    if cfg.multilevel_levels > 0:
        from .core.multilevel import MultilevelPlacer

        ml = MultilevelPlacer(
            netlist,
            resolved_region,
            cfg,
            refine_iterations=max_iterations,
            telemetry=tel,
        ).place(resume_from=resume_from, iteration_hook=iteration_hook)
        result: PlacementResult = dc_replace(
            ml.refine_result,
            iterations=ml.total_iterations,
            seconds=ml.seconds,
        )
    else:
        with tel.span("setup"):
            placer = KraftwerkPlacer(
                netlist, resolved_region, cfg, telemetry=tel
            )
        result = placer.place(
            max_iterations=max_iterations,
            resume_from=resume_from,
            iteration_hook=iteration_hook,
        )
    legal: Optional[Placement] = None
    legal_hpwl: Optional[float] = None
    seconds = result.seconds
    if legalize:
        import time

        t0 = time.perf_counter()
        legal = final_placement(
            result.placement,
            resolved_region,
            telemetry=tel,
            bands=cfg.legalize_bands,
            threads=cfg.legalize_threads,
            improver_min_gain=cfg.improver_min_gain,
        )
        seconds += time.perf_counter() - t0
        legal_hpwl = hpwl_meters(legal)
    return FlowResult(
        name=name,
        placement=result.placement,
        legalized=legal,
        hpwl_m=result.hpwl_m,
        legal_hpwl_m=legal_hpwl,
        converged=result.converged,
        iterations=result.iterations,
        seconds=seconds,
        timed_out=result.timed_out,
        recovery_escalations=result.recovery_escalations,
        seed=cfg.seed,
        config=cfg.to_dict(),
    )


def _config_dict(config):
    """A job spec's config: a :class:`~repro.core.config.PlacerConfig` as
    its ``to_dict()`` form, a mapping or ``None`` as given.  Duck-typed, so
    that a client that never places does not import the placer."""
    if config is None or isinstance(config, Mapping):
        return config
    return config.to_dict()


class JobHandle:
    """One submitted job, as seen by a :class:`Client`.

    ``admitted``/``shed_reason``/``cached`` mirror the service's
    :class:`~repro.service.jobs.SubmitResult`; :meth:`stream` yields the
    per-iteration progress events (only when submitted with
    ``subscribe=True``) ending with the terminal ``result`` event, and
    :meth:`result` blocks for the finished
    :class:`~repro.service.jobs.JobRecord` — identical semantics over the
    in-process and socket transports.
    """

    def __init__(
        self,
        client: "Client",
        job_id: str,
        *,
        admitted: bool = True,
        shed_reason: Optional[str] = None,
        cached: bool = False,
        events: Optional["_queue.Queue"] = None,
    ):
        self._client = client
        self.job_id = job_id
        self.admitted = admitted
        self.shed_reason = shed_reason
        self.cached = cached
        self._events = events

    def stream(self, timeout: Optional[float] = None) -> Iterator[Dict[str, Any]]:
        """Yield this job's event dicts; the terminal ``result`` event is
        always yielded last.  *timeout* bounds the wait per event and
        raises ``TimeoutError`` when exceeded."""
        if self._events is None:
            raise RuntimeError(
                f"job {self.job_id!r} was submitted without subscribe=True"
            )
        while True:
            try:
                event = self._events.get(timeout=timeout)
            except _queue.Empty:
                raise TimeoutError(
                    f"no event from job {self.job_id!r} within {timeout}s"
                ) from None
            yield event
            if event.get("type") == "result":
                return

    def result(self, timeout: Optional[float] = None):
        """Block until terminal; returns the job's
        :class:`~repro.service.jobs.JobRecord` (``None`` on timeout)."""
        return self._client._wait_result(self.job_id, timeout)

    def cancel(self) -> bool:
        return self._client.cancel(self.job_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"JobHandle({self.job_id!r}, admitted={self.admitted}, "
            f"cached={self.cached})"
        )


class Client:
    """The single client surface over placement serving.

    Two interchangeable transports:

    - :meth:`Client.local` wraps an in-process
      :class:`~repro.service.PlacementService` (started lazily on first
      use);
    - :meth:`Client.connect` speaks the ``repro-wire/1`` length-prefixed
      JSONL protocol to a :class:`~repro.service.net.PlacementServer`,
      authenticating with a tenant token that feeds the server's
      admission quotas.

    Either way: ``submit() -> JobHandle``, ``handle.stream()`` for
    per-iteration progress, ``handle.result()`` for the terminal record,
    ``cancel()``, and :meth:`map` for a batch of jobs in job order.  A
    local map runs on a service started for the call; a connected map
    runs on the server and returns no flows.  Use as a context manager;
    :meth:`close` shuts down whatever the client owns.
    """

    def __init__(self, *, _service=None, _service_config=None, _events=None,
                 _wire=None, _owns_service: bool = True):
        self._service = _service
        self._service_config = _service_config
        self._events_sink = _events
        self._wire = _wire
        self._owns_service = _owns_service and _service is None
        self._lock = threading.Lock()

    # -- constructors ----------------------------------------------------
    @classmethod
    def local(cls, *, service=None, service_config=None, events=None) -> "Client":
        """In-process transport.  Pass an already-running *service* to
        attach (the client then never shuts it down), or a
        :class:`~repro.service.ServiceConfig` to have the client own one,
        started lazily on first submit."""
        return cls(
            _service=service,
            _service_config=service_config,
            _events=events,
        )

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        token: str = "default",
        timeout: float = 10.0,
    ) -> "Client":
        """Socket transport: dial a :class:`~repro.service.net
        .PlacementServer` and complete the ``hello`` handshake.  *token*
        is the tenant identity every submit is accounted against."""
        from .service.net import WireClient

        return cls(_wire=WireClient(host, port, token=token, timeout=timeout))

    # -- transport plumbing ----------------------------------------------
    @property
    def service(self):
        """The in-process :class:`~repro.service.PlacementService`
        (started on first access); raises on a socket client."""
        if self._wire is not None:
            raise RuntimeError("a socket Client has no in-process service")
        if self._service is None:
            with self._lock:
                if self._service is None:
                    from .service import PlacementService

                    self._service = PlacementService(
                        self._service_config, events=self._events_sink
                    ).start()
        return self._service

    def close(self) -> None:
        """Close the socket / shut down the owned service (idempotent)."""
        if self._wire is not None:
            self._wire.close()
        elif self._owns_service and self._service is not None:
            self._service.shutdown()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the client API --------------------------------------------------
    def submit(
        self,
        source: Any,
        *,
        seed: int = 0,
        config: Optional[Union[PlacerConfig, Dict[str, Any]]] = None,
        name: Optional[str] = None,
        legalize: bool = True,
        max_iterations: Optional[int] = None,
        scale: float = 0.2,
        utilization: float = 0.8,
        job_id: Optional[str] = None,
        priority: int = 0,
        tenant: str = "default",
        timeout_seconds: Optional[float] = None,
        retry=None,
        subscribe: bool = False,
    ) -> JobHandle:
        """Submit one job; returns a :class:`JobHandle` immediately.

        *source* is anything :func:`resolve_source` accepts, or a prebuilt
        :class:`~repro.parallel.PlacementJob` (then the placement keywords
        here are ignored in favor of the job's own) or
        :class:`~repro.service.jobs.ServiceJob` (then every keyword but
        *subscribe* is).  Both transports submit the same ``ServiceJob``.
        ``subscribe=True`` registers for the progress stream *before* the
        job can dispatch, so :meth:`JobHandle.stream` sees every
        iteration; without it the worker sends no progress frames and
        skips the per-iteration HPWL and max-force stats (unless the job's
        config is verbose or has a deadline).  A shed submit returns a
        handle with ``admitted=False`` and the structured ``shed_reason``.
        """
        from .parallel import PlacementJob
        from .service.jobs import ServiceJob

        job = source
        if not isinstance(job, (ServiceJob, PlacementJob)):
            job = PlacementJob(
                source=source,
                seed=seed,
                config=_config_dict(config),
                name=name,
                legalize=legalize,
                max_iterations=max_iterations,
                scale=scale,
                utilization=utilization,
            )
        if not isinstance(job, ServiceJob):
            # An empty id is assigned by the service (or the server).
            job = ServiceJob(
                job=job,
                job_id=job_id or "",
                priority=priority,
                tenant=tenant,
                timeout_seconds=timeout_seconds,
                retry=retry,
            )
        if self._wire is not None:
            return self._wire.submit_job(self, job, subscribe=subscribe)
        events = _queue.Queue() if subscribe else None
        ticket = self.service.submit(
            job, progress=events.put if events is not None else None
        )
        return JobHandle(
            self,
            ticket.job_id,
            admitted=ticket.admitted,
            shed_reason=ticket.reason,
            cached=ticket.cached,
            events=events,
        )

    def cancel(self, job_id: str) -> bool:
        if self._wire is not None:
            return self._wire.cancel(job_id)
        return self.service.cancel(job_id)

    def _wait_result(self, job_id: str, timeout: Optional[float] = None):
        if self._wire is not None:
            return self._wire.wait_result(job_id, timeout)
        return self.service.wait(job_id, timeout)

    def drain(self, timeout: Optional[float] = None):
        """Stop admitting and wait out every admitted job (local only)."""
        if self._wire is not None:
            raise RuntimeError("drain is a server-side operation; "
                               "run it where the service lives")
        return self.service.drain(timeout)

    def report(self) -> Dict[str, Any]:
        """The service report (schema ``repro-service/2``), either
        transport."""
        if self._wire is not None:
            return self._wire.report()
        return self.service.report()

    def map(
        self,
        sources: Union[PlaceSource, Sequence[Any]],
        *,
        seeds: Optional[Iterable[int]] = None,
        config: Optional[Union[PlacerConfig, Dict[str, Any]]] = None,
        legalize: bool = True,
        workers: Optional[int] = None,
        mp_context: str = "auto",
        scale: float = 0.2,
        utilization: float = 0.8,
        max_iterations: Optional[int] = None,
        trace_dir=None,
        progress=None,
        keep_placements: bool = True,
    ):
        """Place one source over *seeds*, a sequence of sources, or
        prebuilt :class:`~repro.parallel.PlacementJob` specs, one attempt
        each; returns a :class:`~repro.parallel.BatchResult` in job order.

        A local client calls :func:`repro.parallel.run_batch` (``workers=0``
        is serial; a pool runs on a service started for this call, not the
        client's own).  A connected client runs the jobs on its server,
        whose settings replace *workers*, *mp_context*, *trace_dir* and
        *keep_placements*; no result carries a flow, as the wire carries
        only the scalars and the positions hash.
        """
        from .parallel import PlacementJob, run_batch

        common = dict(
            config=_config_dict(config),
            legalize=legalize,
            scale=scale,
            utilization=utilization,
            max_iterations=max_iterations,
        )
        # A bare (netlist, region) tuple is one source; any other list/tuple
        # is a sequence of sources (or prebuilt jobs).
        is_sequence = isinstance(sources, (list, tuple)) and not (
            isinstance(sources, tuple)
            and len(sources) == 2
            and isinstance(sources[0], Netlist)
        )
        if is_sequence and sources and all(
            isinstance(s, PlacementJob) for s in sources
        ):
            jobs = list(sources)
        elif is_sequence:
            seed_list = list(seeds) if seeds is not None else None
            if seed_list is not None and len(seed_list) != len(sources):
                raise ValueError(
                    f"{len(seed_list)} seeds for {len(sources)} sources; pass "
                    "one seed per source (or a single source to fan out seeds)"
                )
            jobs = [
                PlacementJob(
                    source=src,
                    seed=seed_list[i] if seed_list is not None else 0,
                    **common,
                )
                for i, src in enumerate(sources)
            ]
        else:
            seed_list = list(seeds) if seeds is not None else [0]
            jobs = [PlacementJob(source=sources, seed=s, **common)
                    for s in seed_list]
        if self._wire is not None:
            return self._wire.map(jobs, progress=progress)
        return run_batch(
            jobs,
            workers=workers,
            mp_context=mp_context,
            trace_dir=trace_dir,
            progress=progress,
            keep_placements=keep_placements,
        )


__all__ = [
    "Client",
    "FlowResult",
    "JobHandle",
    "PlaceSource",
    "place",
    "region_for_netlist",
    "resolve_source",
]
