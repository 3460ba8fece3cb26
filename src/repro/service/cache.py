"""Signature-keyed result caching for the placement service.

Every placement job is a deterministic pure function of its spec (the
repo-wide invariant the retry/migration machinery already leans on), which
makes result caching *sound*: two jobs whose canonical inputs hash the
same would produce bit-identical ``FlowResult``s, so the second can be
answered from memory without running at all.

The cache key is a SHA-256 over the canonical byte serialization of every
input that can change the answer:

- the netlist, as the bytes of its canonical text
  (:func:`repro.netlist.io.netlist_to_string`, the format ``save_netlist``
  writes; computed once per netlist object and cached on it, so a design
  submitted many times is serialized once);
- the placement region (bounds + row count — derived regions depend on
  ``utilization``, explicit ones on the file, either way the geometry is
  what matters);
- the fully-materialized :meth:`PlacerConfig.to_dict` **minus** the knobs
  that are observational only (``checkpoint_path``/``checkpoint_every``/
  ``verbose`` change where snapshots land, never the answer — and the
  service pins a per-job checkpoint path, which must not break dedup);
- ``seed`` (already folded into the config dict), ``legalize``,
  ``max_iterations``.

Jobs that inject faults, or whose stored flow timed out against a
wall-clock deadline, are never cached: their outcome depends on more than
the spec.

:class:`ResultCache` is an LRU bounded by a **byte budget** (coordinate
arrays dominate, so entries are costed by their placement ``nbytes``), and
counts hits/misses/evictions so the service report and the load generator
can regress the hit rate.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (api -> service)
    from ..api import FlowResult
    from ..parallel.jobs import PlacementJob

#: Config knobs excluded from the job signature: they steer observability
#: and snapshotting, never the placement answer.
SIGNATURE_EXCLUDED_CONFIG = ("checkpoint_path", "checkpoint_every", "verbose")


def job_signature(job: "PlacementJob") -> Optional[str]:
    """SHA-256 content signature of one job, or ``None`` if uncacheable.

    ``None`` means "do not cache": fault-injecting jobs are intentionally
    nondeterministic, and a source that cannot be resolved here will be
    rejected by the worker anyway — the submit path must not fail early
    on signature computation.
    """
    if job.inject_faults:
        return None
    try:
        from ..api import resolve_source
        from ..netlist.io import netlist_to_string

        netlist, region, _name = resolve_source(
            job.source, utilization=job.utilization, scale=job.scale
        )
        netlist_bytes = netlist_to_string(netlist).encode("utf-8")
    except (ValueError, TypeError, OSError):
        return None
    config = dict(job.config_dict())
    for key in SIGNATURE_EXCLUDED_CONFIG:
        config.pop(key, None)
    meta = {
        "region": [
            round(float(region.bounds.xlo), 9),
            round(float(region.bounds.ylo), 9),
            round(float(region.width), 9),
            round(float(region.height), 9),
            len(region.rows),
        ],
        "config": config,
        "legalize": bool(job.legalize),
        "max_iterations": job.max_iterations,
    }
    digest = hashlib.sha256()
    digest.update(netlist_bytes)
    digest.update(b"\x00")
    digest.update(json.dumps(meta, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def _flow_cost_bytes(flow: "FlowResult") -> int:
    """Approximate resident size of one cached flow (arrays dominate)."""
    cost = 1024  # scalars, config dict, object overhead
    for placement in (flow.placement, flow.legalized):
        if placement is not None:
            cost += int(placement.x.nbytes) + int(placement.y.nbytes)
    return cost


class ResultCache:
    """LRU ``signature -> FlowResult`` cache under a byte budget.

    Thread-safe (submit threads and the supervisor loop both touch it).
    Stored flows are frozen dataclasses and are returned by reference, so
    a hit is bit-identical to the run that seeded it *by construction* —
    the test suite additionally proves it against an independent cold run.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._costs: Dict[str, int] = {}
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0

    def get(self, signature: Optional[str]) -> Optional["FlowResult"]:
        """The cached flow for *signature*, counting the hit or miss."""
        if signature is None:
            return None
        with self._lock:
            flow = self._entries.get(signature)
            if flow is None:
                self.misses += 1
                return None
            self._entries.move_to_end(signature)
            self.hits += 1
            return flow

    def put(self, signature: Optional[str], flow: "FlowResult") -> bool:
        """Store *flow*; returns False when it is uncacheable or too big."""
        if signature is None or flow.timed_out:
            return False
        cost = _flow_cost_bytes(flow)
        if cost > self.max_bytes:
            return False
        with self._lock:
            if signature in self._entries:
                self._entries.move_to_end(signature)
                return True
            self._entries[signature] = flow
            self._costs[signature] = cost
            self.bytes_used += cost
            self.stores += 1
            while self.bytes_used > self.max_bytes and len(self._entries) > 1:
                old_sig, _ = self._entries.popitem(last=False)
                self.bytes_used -= self._costs.pop(old_sig)
                self.evictions += 1
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._costs.clear()
            self.bytes_used = 0

    def stats(self) -> Dict[str, Any]:
        """JSON-safe telemetry snapshot (feeds the service report)."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "bytes_used": self.bytes_used,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "hit_rate": round(self.hits / lookups, 6) if lookups else None,
            }


__all__ = [
    "ResultCache",
    "SIGNATURE_EXCLUDED_CONFIG",
    "job_signature",
]
