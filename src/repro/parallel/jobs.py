"""Job and result value objects for the parallel batch engine.

Everything here is a frozen dataclass of scalars, dicts and (for results
that carry placements) :class:`~repro.api.FlowResult` objects — all
picklable, so specs travel parent → worker and results travel back over
any multiprocessing start method.  A netlist inside a spec or a result
pickles as its canonical text, and unpickling goes through the design
memo (:mod:`repro.netlist.memo`): each process parses a design at most
once, and a result comes back to the parent holding the very netlist
object the parent already has.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

if TYPE_CHECKING:
    from ..api import FlowResult

BATCH_SCHEMA = "repro-batch/1"
#: Round-trip schema tag for :meth:`JobResult.to_dict`.
RESULT_SCHEMA = "repro-jobresult/1"


@dataclass(frozen=True)
class PlacementJob:
    """One unit of batch work: a design + config + seed.

    *source* is anything :func:`repro.api.resolve_source` accepts; a live
    netlist is as cheap to fan out as a name or a path, since it travels
    to workers as its canonical text and is parsed at most once per
    worker.  *config* is a :class:`~repro.core.config.PlacerConfig` or its
    canonical ``to_dict()`` form (the job normalizes to the dict form so
    specs serialize identically everywhere); *seed* overrides the config's
    seed, exactly like :func:`repro.api.place`.

    ``inject_faults`` is test support for failure-isolation coverage: a
    tuple of ``(site, kwargs)`` pairs resolved against
    :mod:`repro.testing.faults` (e.g. ``(("corrupt_field", {"at_iteration":
    1}),)``) and installed around the run *inside the worker*, so one job
    can be driven into a controlled failure without touching its siblings.
    """

    source: Any
    seed: int = 0
    config: Optional[Mapping[str, Any]] = None
    name: Optional[str] = None
    legalize: bool = True
    max_iterations: Optional[int] = None
    scale: float = 0.2
    utilization: float = 0.8
    inject_faults: Tuple[Tuple[str, Dict[str, Any]], ...] = ()

    def config_dict(self) -> Dict[str, Any]:
        """The job's config in canonical dict form (seed applied)."""
        from ..core.config import PlacerConfig

        cfg = self.config
        if isinstance(cfg, PlacerConfig):
            data = cfg.to_dict()
        elif cfg:
            data = PlacerConfig.from_dict(cfg).to_dict()  # validate keys
        else:
            data = PlacerConfig().to_dict()
        data["seed"] = int(self.seed)
        return data

    def display_name(self, index: int) -> str:
        """Stable human-readable job label (used for traces and reports)."""
        if self.name:
            return self.name
        if isinstance(self.source, (str, Path)):
            base = Path(str(self.source)).stem
        else:
            base = getattr(self.source, "name", None) or getattr(
                getattr(self.source, "netlist", None), "name", None
            ) or f"job{index}"
        return f"{base}-s{self.seed}"

    def with_checkpoint(
        self, directory: Union[str, Path], stem: str, every: int
    ) -> "PlacementJob":
        """This job, snapshotting to ``<directory>/<stem>.ckpt.npz`` every
        *every* transformations.

        A job whose config already names a ``checkpoint_path`` is returned
        unchanged, its own ``checkpoint_every`` included.
        """
        config = self.config_dict()
        if config.get("checkpoint_path"):
            return self
        config["checkpoint_path"] = str(Path(directory) / f"{stem}.ckpt.npz")
        # config_dict() is fully materialized (defaults and all), so the
        # interval must overwrite, not setdefault.
        config["checkpoint_every"] = int(every)
        return replace(self, config=config)


@dataclass(frozen=True)
class JobResult:
    """Outcome of one batch job — success or isolated failure.

    ``ok`` jobs carry the scalar flow summary (and, when the engine ran
    with ``keep_placements=True``, the full :class:`~repro.api.FlowResult`
    in ``flow``); failed jobs carry ``error``/``error_type`` instead and
    never poison their siblings.  The flow lives in memory only:
    :meth:`to_dict` never writes it, and service records never hold one.
    """

    name: str
    index: int
    seed: int
    ok: bool
    hpwl_m: Optional[float] = None
    legal_hpwl_m: Optional[float] = None
    final_hpwl_m: Optional[float] = None
    iterations: int = 0
    converged: bool = False
    timed_out: bool = False
    seconds: float = 0.0
    recovery_escalations: int = 0
    error: Optional[str] = None
    error_type: Optional[str] = None
    trace_path: Optional[str] = None
    #: Per-phase wall-clock totals from the worker's telemetry recorder.
    phases: Dict[str, float] = field(default_factory=dict)
    #: Full flow result (with placements) when the engine kept them.
    flow: Optional[FlowResult] = None
    #: Iteration the run resumed from when a valid checkpoint was picked
    #: up (``None`` for a fresh start) — how the service proves migration.
    resumed_iteration: Optional[int] = None
    #: SHA-256 over the final placement's coordinate bytes (same digest as
    #: :func:`repro.netlist.placement.placement_hash`).  Always computed
    #: worker-side for successful jobs, even when the coordinate arrays
    #: themselves are dropped — bit-exact identity travels for free.
    positions_hash: Optional[str] = None

    @classmethod
    def from_flow(
        cls,
        flow: FlowResult,
        *,
        name: str,
        index: int,
        keep_flow: bool = True,
        **run: Any,
    ) -> "JobResult":
        """The successful result of a job that produced *flow*.

        The flow's scalar summary and positions hash are always copied;
        the flow itself (with its coordinate arrays) only when
        *keep_flow*.  *run* sets what the flow does not record:
        ``seconds``, ``trace_path``, ``phases``, ``resumed_iteration``.
        """
        return cls(
            name=name,
            index=index,
            seed=flow.seed,
            ok=True,
            hpwl_m=flow.hpwl_m,
            legal_hpwl_m=flow.legal_hpwl_m,
            final_hpwl_m=flow.final_hpwl_m,
            iterations=flow.iterations,
            converged=flow.converged,
            timed_out=flow.timed_out,
            recovery_escalations=flow.recovery_escalations,
            positions_hash=flow.positions_hash(),
            flow=flow if keep_flow else None,
            **run,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The job's one JSON form (schema ``repro-jobresult/1``).

        Scalars and the positions hash, never coordinate arrays: batch
        reports, service records and wire frames all carry a job's
        outcome this way.  :meth:`from_dict` inverts it.
        """
        return {
            "schema": RESULT_SCHEMA,
            "name": self.name,
            "index": self.index,
            "seed": self.seed,
            "ok": self.ok,
            "hpwl_m": self.hpwl_m,
            "legal_hpwl_m": self.legal_hpwl_m,
            "final_hpwl_m": self.final_hpwl_m,
            "iterations": self.iterations,
            "converged": self.converged,
            "timed_out": self.timed_out,
            "seconds": round(self.seconds, 6),
            "recovery_escalations": self.recovery_escalations,
            "error": self.error,
            "error_type": self.error_type,
            "trace_path": self.trace_path,
            "phases": {k: round(v, 6) for k, v in self.phases.items()},
            "resumed_iteration": self.resumed_iteration,
            "positions_hash": self.positions_hash,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        """Rebuild from :meth:`to_dict`; ``flow`` is always ``None``."""
        schema = data.get("schema")
        if schema != RESULT_SCHEMA:
            raise ValueError(
                f"expected schema {RESULT_SCHEMA!r}, got {schema!r}"
            )
        return cls(
            name=str(data["name"]),
            index=int(data.get("index", 0)),
            seed=int(data.get("seed", 0)),
            ok=bool(data["ok"]),
            hpwl_m=data.get("hpwl_m"),
            legal_hpwl_m=data.get("legal_hpwl_m"),
            final_hpwl_m=data.get("final_hpwl_m"),
            iterations=int(data.get("iterations", 0)),
            converged=bool(data.get("converged", False)),
            timed_out=bool(data.get("timed_out", False)),
            seconds=float(data.get("seconds", 0.0)),
            recovery_escalations=int(data.get("recovery_escalations", 0)),
            error=data.get("error"),
            error_type=data.get("error_type"),
            trace_path=data.get("trace_path"),
            phases=dict(data.get("phases") or {}),
            resumed_iteration=data.get("resumed_iteration"),
            positions_hash=data.get("positions_hash"),
        )


@dataclass(frozen=True)
class BatchResult:
    """Aggregate outcome of a batch run.

    Carries every :class:`JobResult` (in job order), the batch wall-clock,
    and derived aggregates: best/median HPWL over successful jobs, the
    serial-time estimate (sum of in-worker job seconds) and the implied
    speedup of running them concurrently.
    """

    jobs: Tuple[JobResult, ...]
    wall_seconds: float
    workers: int
    mp_context: str

    @property
    def ok_jobs(self) -> Tuple[JobResult, ...]:
        return tuple(j for j in self.jobs if j.ok)

    @property
    def failed_jobs(self) -> Tuple[JobResult, ...]:
        return tuple(j for j in self.jobs if not j.ok)

    @property
    def hpwls(self) -> Tuple[float, ...]:
        """Final HPWL of every successful job, in job order."""
        return tuple(j.final_hpwl_m for j in self.ok_jobs)

    @property
    def best(self) -> Optional[JobResult]:
        """The successful job with the lowest final HPWL (None if all failed)."""
        ok = self.ok_jobs
        return min(ok, key=lambda j: j.final_hpwl_m) if ok else None

    @property
    def best_hpwl_m(self) -> Optional[float]:
        job = self.best
        return job.final_hpwl_m if job is not None else None

    @property
    def median_hpwl_m(self) -> Optional[float]:
        hpwls = self.hpwls
        return float(statistics.median(hpwls)) if hpwls else None

    @property
    def serial_seconds_estimate(self) -> float:
        """Sum of per-job in-worker seconds ≈ serial wall-clock."""
        return float(sum(j.seconds for j in self.jobs))

    @property
    def speedup_estimate(self) -> float:
        """Serial-time estimate over batch wall-clock (1.0 when serial)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.serial_seconds_estimate / self.wall_seconds

    def merged_phases(self) -> Dict[str, float]:
        """Per-phase wall-clock summed over all jobs' telemetry."""
        merged: Dict[str, float] = {}
        for job in self.jobs:
            for phase, seconds in job.phases.items():
                merged[phase] = merged.get(phase, 0.0) + seconds
        return {k: round(v, 6) for k, v in sorted(merged.items())}

    def summary(self) -> Dict[str, Any]:
        """The merged batch report (schema ``repro-batch/1``), JSON-safe."""
        return {
            "schema": BATCH_SCHEMA,
            "jobs": [j.to_dict() for j in self.jobs],
            "n_jobs": len(self.jobs),
            "n_ok": len(self.ok_jobs),
            "n_failed": len(self.failed_jobs),
            "workers": self.workers,
            "mp_context": self.mp_context,
            "wall_seconds": round(self.wall_seconds, 6),
            "serial_seconds_estimate": round(self.serial_seconds_estimate, 6),
            "speedup_estimate": round(self.speedup_estimate, 4),
            "best_hpwl_m": self.best_hpwl_m,
            "best_job": self.best.name if self.best is not None else None,
            "median_hpwl_m": self.median_hpwl_m,
            "phases": self.merged_phases(),
        }

    def write_summary(self, path: Union[str, Path]) -> Path:
        """Write :meth:`summary` as indented JSON; returns the path."""
        import json

        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


__all__ = [
    "BATCH_SCHEMA",
    "BatchResult",
    "JobResult",
    "PlacementJob",
    "RESULT_SCHEMA",
]
