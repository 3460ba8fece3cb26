"""Fault injection for the placement pipeline.

The resilience layer (health guards, the CG recovery ladder, deadlines,
best-so-far tracking) is only trustworthy if every recovery path has been
*seen to fire*.  This module provides monkeypatch-style context managers
that corrupt the pipeline at well-defined hook sites — the force field
after it is computed, the CG result before the placer consumes it, the
wall clock at the top of a transformation — so tests can drive the
pipeline into exactly the failure they want to prove is handled.

The hooks live in :mod:`repro.core.health` and cost a single dict
truthiness check when nothing is installed; production behavior is
untouched.  All installers are context managers that restore the previous
hook on exit, even on error, so a failing test cannot leak faults into
the next one.

Example::

    from repro.testing import corrupt_field

    with corrupt_field(at_iteration=3):
        with pytest.raises(NumericalHealthError) as err:
            placer.place()
    assert err.value.iteration == 3 and err.value.phase == "field"
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core import health

#: Exit code used by process-killing chaos (`kill_worker`,
#: ``corrupt_checkpoint(mode="kill_mid_write")``) so a supervisor can tell
#: an injected death from a genuine crash in tests.
KILL_EXIT_CODE = 86

#: Environment variable carrying a JSON list of ``[name, kwargs]`` fault
#: specs, re-installed by every pool worker at start-up so injection
#: survives ``spawn``/``forkserver`` start methods (where the parent's
#: in-memory hook registry is not inherited).
FAULT_SPEC_ENV = "REPRO_FAULT_SPECS"


@contextmanager
def _install(site: str, hook) -> Iterator[None]:
    """Install *hook* at *site*, restoring the previous hook on exit."""
    previous = health._FAULT_HOOKS.get(site)
    health.install_fault_hook(site, hook)
    try:
        yield
    finally:
        if previous is None:
            health.remove_fault_hook(site)
        else:
            health.install_fault_hook(site, previous)


class FaultInjection:
    """Book-keeping shared by all injectors: how often the fault fired."""

    def __init__(self) -> None:
        self.fired = 0


def corrupt_field(
    at_iteration: int = 0,
    kind: str = "nan",
    target: str = "field",
) -> "_ContextWithStats":
    """Poison the computed force field / sampled forces.

    ``kind`` is ``"nan"`` or ``"inf"``; ``target`` selects what gets
    corrupted: ``"field"`` (the Poisson field grids), ``"force"`` (the
    per-cell sampled forces), or ``"density"`` (the density map).  The
    fault fires on the ``at_iteration``-th force computation (0-based),
    exactly what the health guard must attribute to that phase.
    """
    if kind not in ("nan", "inf"):
        raise ValueError(f"kind must be 'nan' or 'inf', got {kind!r}")
    if target not in ("field", "force", "density"):
        raise ValueError(
            f"target must be 'field', 'force' or 'density', got {target!r}"
        )
    poison = np.nan if kind == "nan" else np.inf
    stats = FaultInjection()
    calls = {"n": -1}

    def hook(forces) -> None:
        calls["n"] += 1
        if calls["n"] != at_iteration:
            return
        stats.fired += 1
        if target == "density":
            forces.density.density[0, 0] = poison
        elif target == "field":
            forces.field.fx[..., 0] = poison
        else:
            if forces.fx.size:
                forces.fx[0] = poison
            else:  # nothing to poison; corrupt the field instead
                forces.field.fx[..., 0] = poison

    return _ContextWithStats(_install("field", hook), stats)


def fail_cg(
    times: int = 1,
    mode: str = "stall",
    min_call: int = 0,
) -> "_ContextWithStats":
    """Make :func:`~repro.core.solver.conjugate_gradient` report failure.

    The hook intercepts the CG result *after* a genuine solve:

    - ``mode="stall"`` marks it non-converged (residual never met the
      target) while keeping the finite iterate — the recovery ladder
      should retry with a tighter tolerance / cold start and succeed;
    - ``mode="diverge"`` replaces the solution with non-finite garbage —
      the ladder must fall through to the direct solve.

    The first ``min_call`` CG calls pass untouched (so a run can get off
    the ground before the fault fires); the next ``times`` calls fail.
    The direct-solve rungs bypass CG entirely, so a run always completes
    once the ladder escalates past the CG rungs.
    """
    if mode not in ("stall", "diverge"):
        raise ValueError(f"mode must be 'stall' or 'diverge', got {mode!r}")
    stats = FaultInjection()
    calls = {"n": -1}

    def hook(result, A, b):
        calls["n"] += 1
        if calls["n"] < min_call or stats.fired >= times:
            return result
        stats.fired += 1
        if mode == "stall":
            return replace(result, converged=False)
        return replace(
            result, x=np.full_like(result.x, np.nan), converged=False,
            residual_norm=float("inf"),
        )

    return _ContextWithStats(_install("cg", hook), stats)


def burn_deadline(
    seconds: float = 0.05,
    from_iteration: int = 0,
    sleep=time.sleep,
) -> "_ContextWithStats":
    """Burn wall-clock at the top of each transformation.

    From ``from_iteration`` on, every transformation start sleeps for
    ``seconds``, so a configured ``deadline_seconds`` is guaranteed to
    trip mid-run and the best-so-far return path can be exercised without
    flaky timing assumptions.
    """
    stats = FaultInjection()

    def hook(iteration: int) -> None:
        if iteration >= from_iteration:
            stats.fired += 1
            sleep(seconds)

    return _ContextWithStats(_install("iteration", hook), stats)


class _ContextWithStats:
    """Context manager pairing an installer with its fire counter."""

    def __init__(self, ctx, stats: FaultInjection):
        self._ctx = ctx
        self.stats = stats

    def __enter__(self) -> FaultInjection:
        self._ctx.__enter__()
        return self.stats

    def __exit__(self, *exc) -> Optional[bool]:
        return self._ctx.__exit__(*exc)


# ----------------------------------------------------------------------
# Process-level chaos
# ----------------------------------------------------------------------
# The service layer (src/repro/service/) supervises worker *processes*;
# proving its recovery paths needs faults one level below the numerical
# ones above: abrupt worker death, hangs, torn checkpoint writes, slow
# cold starts.  All take an optional ``once_path``: when set, the fault
# fires only for the process that wins an exclusive create of that flag
# file — the cross-process "fire exactly once" primitive that keeps a
# respawned worker (which re-installs the same spec) from dying forever.

def _acquire_once(once_path) -> bool:
    """True if this caller may fire (exclusive-create of the flag file)."""
    if once_path is None:
        return True
    try:
        fd = os.open(str(once_path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def kill_worker(
    at_iteration: int = 0, once_path: Optional[str] = None
) -> "_ContextWithStats":
    """Abruptly kill the process at the top of placement transformation
    ``at_iteration`` (``os._exit`` — no cleanup, no exception, exactly how
    the OOM killer or a segfault takes a worker down mid-job).
    """
    stats = FaultInjection()

    def hook(iteration: int) -> None:
        if iteration == at_iteration and _acquire_once(once_path):
            stats.fired += 1
            os._exit(KILL_EXIT_CODE)

    return _ContextWithStats(_install("iteration", hook), stats)


def hang_worker(
    at_iteration: int = 0,
    seconds: float = 3600.0,
    once_path: Optional[str] = None,
) -> "_ContextWithStats":
    """Hang the process at transformation ``at_iteration`` for *seconds*.

    The sleep is far longer than any reasonable job watchdog, so a
    supervisor must detect the stuck job by wall-clock and kill the
    worker; the hang never resolves by itself in test timescales.
    """
    stats = FaultInjection()

    def hook(iteration: int) -> None:
        if iteration == at_iteration and _acquire_once(once_path):
            stats.fired += 1
            time.sleep(seconds)

    return _ContextWithStats(_install("iteration", hook), stats)


def corrupt_checkpoint(
    mode: str = "kill_mid_write",
    nth_save: int = 1,
    once_path: Optional[str] = None,
) -> "_ContextWithStats":
    """Attack the checkpoint on its ``nth_save``-th write (1-based).

    - ``mode="kill_mid_write"`` kills the process between the tmp-file
      write and the atomic rename — the torn-write crash.  The snapshot
      on disk must still be the *previous* complete one.
    - ``mode="truncate"`` overwrites the committed snapshot with garbage
      after the rename — the bit-rot/partial-disk scenario.  A resuming
      job must fall back to a fresh start instead of failing.
    """
    if mode not in ("kill_mid_write", "truncate"):
        raise ValueError(
            f"mode must be 'kill_mid_write' or 'truncate', got {mode!r}"
        )
    stats = FaultInjection()
    saves = {"n": 0}

    def hook(stage: str, tmp: Path, path: Path) -> None:
        trigger = "pre_rename" if mode == "kill_mid_write" else "post_rename"
        if stage != trigger:
            return
        saves["n"] += 1
        if saves["n"] != nth_save or not _acquire_once(once_path):
            return
        stats.fired += 1
        if mode == "kill_mid_write":
            os._exit(KILL_EXIT_CODE)
        Path(path).write_bytes(b"torn checkpoint garbage")

    return _ContextWithStats(_install("checkpoint", hook), stats)


def slow_start(
    seconds: float = 0.5, once_path: Optional[str] = None
) -> "_ContextWithStats":
    """Delay a pool worker's start-up by *seconds*.

    Fires at the ``worker_start`` hook site, before the worker reports
    ready — a supervisor with a start watchdog must either tolerate the
    delay or recycle the worker, but never dispatch into the void.
    """
    stats = FaultInjection()

    def hook(worker_id: int) -> None:
        if _acquire_once(once_path):
            stats.fired += 1
            time.sleep(seconds)

    return _ContextWithStats(_install("worker_start", hook), stats)


#: Name -> factory for every injectable fault.  This is the single
#: resolution table used by job specs (``PlacementJob.inject_faults``),
#: pool-level chaos, and the :data:`FAULT_SPEC_ENV` mechanism.
FAULT_FACTORIES = {
    "corrupt_field": corrupt_field,
    "fail_cg": fail_cg,
    "burn_deadline": burn_deadline,
    "kill_worker": kill_worker,
    "hang_worker": hang_worker,
    "corrupt_checkpoint": corrupt_checkpoint,
    "slow_start": slow_start,
}

FaultSpec = Tuple[str, Dict]


def resolve_fault(site: str, **kwargs) -> "_ContextWithStats":
    """Instantiate the named fault, with an actionable unknown-name error."""
    try:
        factory = FAULT_FACTORIES[site]
    except KeyError:
        raise ValueError(
            f"unknown fault site {site!r}; choose from "
            f"{sorted(FAULT_FACTORIES)}"
        ) from None
    return factory(**kwargs)


def encode_fault_specs(specs: List[FaultSpec]) -> str:
    """JSON-encode ``[(name, kwargs), ...]`` for :data:`FAULT_SPEC_ENV`."""
    for name, kwargs in specs:
        if name not in FAULT_FACTORIES:
            raise ValueError(
                f"unknown fault site {name!r}; choose from "
                f"{sorted(FAULT_FACTORIES)}"
            )
        json.dumps(kwargs)  # must be serializable
    return json.dumps([[name, dict(kwargs)] for name, kwargs in specs])


def env_fault_specs() -> List[FaultSpec]:
    """Decode :data:`FAULT_SPEC_ENV` from the environment (empty if unset)."""
    raw = os.environ.get(FAULT_SPEC_ENV, "").strip()
    if not raw:
        return []
    try:
        specs = json.loads(raw)
        return [(str(name), dict(kwargs)) for name, kwargs in specs]
    except (ValueError, TypeError) as exc:
        raise ValueError(
            f"malformed {FAULT_SPEC_ENV}: expected a JSON list of "
            f"[name, kwargs] pairs, got {raw!r}"
        ) from exc


#: Fault contexts entered for the lifetime of this process (worker-side
#: installs).  The installers are generator-based context managers, so
#: dropping the entered context lets refcounting GC close the generator —
#: which runs the cleanup and silently *uninstalls* the hook.  Holding
#: them here keeps worker-lifetime faults armed until the process dies.
_PROCESS_LIFETIME: List["_ContextWithStats"] = []


def install_process_faults(specs: List[FaultSpec]) -> int:
    """Enter *specs* for the remaining lifetime of this process.

    Used by worker mains for faults that must outlive any one job (e.g.
    pool-level chaos).  Returns the number installed; never uninstalled —
    the hooks die with the process.
    """
    for name, kwargs in specs:
        ctx = resolve_fault(name, **kwargs)
        ctx.__enter__()
        _PROCESS_LIFETIME.append(ctx)
    return len(specs)


def install_env_hooks() -> int:
    """Install every fault spec from :data:`FAULT_SPEC_ENV`, process-lifetime.

    Called at the start of every pool worker (the one pool that batches
    and the service share), so injection registered in the parent reaches
    workers under **every** start method — ``fork`` inherits the hook
    registry for free, but ``spawn``/``forkserver`` workers start from a
    clean interpreter and must re-install from the environment.  Returns
    the number of hooks installed.
    """
    return install_process_faults(env_fault_specs())


@contextmanager
def env_faults(specs: List[FaultSpec]) -> Iterator[None]:
    """Set :data:`FAULT_SPEC_ENV` for the duration of the block.

    Parent-side helper for tests: workers started inside the block (any
    start method) re-install *specs* via :func:`install_env_hooks`; the
    parent's own hook registry is left untouched.
    """
    previous = os.environ.get(FAULT_SPEC_ENV)
    os.environ[FAULT_SPEC_ENV] = encode_fault_specs(specs)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(FAULT_SPEC_ENV, None)
        else:
            os.environ[FAULT_SPEC_ENV] = previous
