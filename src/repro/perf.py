"""Process-level performance tuning shared by the CLI and the bench.

One lever lives here: glibc malloc tuning for array-churn workloads.

The placer's iteration loop allocates and frees the same multi-megabyte
numpy temporaries (assembly value buffers, CG scratch) every iteration;
it runs fastest when those recycle through the heap, so
:func:`tune_allocator` raises ``M_MMAP_THRESHOLD``/``M_TRIM_THRESHOLD``
to 1 GiB ("never mmap, never trim") — on the ``large`` bench this keeps
the determinism repeat at ~10 s where a 128 KiB-pinned threshold costs
~16 s of page-fault tax.

The improver needs no mode of its own.  It prices moves from cached net
extremes (:mod:`repro.legalize.extents`) and allocates no per-round
blocks the size of the affected nets' pins; with and without a 128 KiB
threshold pinned around it, each size's ``improve`` phase of ``repro
bench --sizes tiny,small,medium,large`` stayed within the run-to-run
spread (four alternating pairs, 2-core VM; ``docs/PERFORMANCE.md``).

The knob honors ``REPRO_NO_MALLOC_TUNE=1`` (leaving glibc fully
adaptive), is a no-op off Linux/glibc, and never changes any computed
value — allocator placement does not affect float arithmetic, so
determinism hashes are unaffected.
"""

from __future__ import annotations

import os
import sys

# glibc mallopt parameter numbers (bits/mman.h is not exposed by ctypes).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: 1 GiB: effectively "never mmap, never trim" — the placer-loop mode.
_HEAP_THRESHOLD_BYTES = 1 << 30

_tuned: bool = False
_mallopt = None


def _libc_mallopt():
    """Resolve glibc's ``mallopt`` once; None when unavailable/disabled."""
    global _mallopt
    if _mallopt is not None:
        return _mallopt
    if os.environ.get("REPRO_NO_MALLOC_TUNE"):
        return None
    if not sys.platform.startswith("linux"):
        return None
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        mallopt = libc.mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
    except (OSError, AttributeError):
        return None
    _mallopt = mallopt
    return mallopt


def tune_allocator() -> bool:
    """Switch the process into placer mode: recycle big buffers via heap.

    Idempotent; returns True when the tuning is (already) active.  A
    no-op — returning False — on non-Linux platforms, non-glibc libcs,
    or when ``REPRO_NO_MALLOC_TUNE`` is set.
    """
    global _tuned
    if _tuned:
        return True
    mallopt = _libc_mallopt()
    if mallopt is None:
        return False
    ok = mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD_BYTES) == 1
    ok = mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD_BYTES) == 1 and ok
    _tuned = bool(ok)
    return _tuned
