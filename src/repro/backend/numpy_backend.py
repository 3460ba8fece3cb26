"""The reference numpy backend — the always-on default.

Every method is a thin delegation to the exact numpy/scipy call the hot
path used before the backend layer existed, so routing through this
backend is bit-identical to the historical code (the committed bench
determinism hashes pin it).  ``asarray``/``to_numpy`` are near no-ops:
the host *is* the device.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

from .base import Backend

try:  # pragma: no cover - exercised indirectly by every matvec
    from scipy.sparse import _sparsetools as _spt

    _CSR_MATVEC = _spt.csr_matvec
except (ImportError, AttributeError):  # very old/new scipy layouts
    _CSR_MATVEC = None


class NumpyBackend(Backend):
    name = "numpy"
    is_numpy = True

    # -- conversion ----------------------------------------------------
    def asarray(self, a):
        return np.asarray(a, dtype=np.float64)

    def to_numpy(self, a):
        return np.asarray(a)

    # -- allocation / elementwise --------------------------------------
    def zeros(self, shape):
        return np.zeros(shape)

    def clip(self, a, lo, hi):
        return np.clip(a, lo, hi)

    def minimum(self, a, b):
        return np.minimum(a, b)

    def maximum(self, a, b):
        return np.maximum(a, b)

    def hypot(self, a, b):
        return np.hypot(a, b)

    def trunc_int(self, a):
        return a.astype(np.int64)

    def clamp_max_int(self, a, hi):
        return np.minimum(a, hi)

    def concat(self, arrays, axis=0):
        return np.concatenate(arrays, axis=axis)

    def bincount(self, idx, weights, minlength):
        return np.bincount(idx, weights=weights, minlength=minlength)

    # -- reductions ----------------------------------------------------
    def sum(self, a):
        return float(a.sum())

    def dot(self, a, b):
        return float(np.dot(a, b))

    def norm(self, a):
        # numpy's 1-D real fast path is exactly sqrt(dot(x, x)).
        return float(np.sqrt(np.dot(a, a)))

    # -- spectral ------------------------------------------------------
    def rfft2(self, a, s):
        return _fft.rfftn(a, s=s, axes=(-2, -1))

    def irfft2(self, a, s):
        return _fft.irfftn(a, s=s, axes=(-2, -1))

    # -- sparse --------------------------------------------------------
    def csr_from_scipy(self, A):
        return A

    def matvec(self, A, x, out=None):
        """``A @ x`` through scipy's CSR kernel, reusing *out* if given.

        Calling ``csr_matvec`` directly skips the ``__matmul__`` wrapper
        (result allocation, shape checks) — bit-identical output, and the
        wrapper overhead dominates for the placer's small systems.
        """
        if _CSR_MATVEC is None:
            return A @ x
        if out is None:
            out = np.zeros(A.shape[0])
        else:
            out[:] = 0.0
        _CSR_MATVEC(
            A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out
        )
        return out


#: The always-on reference backend; hot-path call sites use this when no
#: backend is threaded through, keeping the default path allocation-free.
NUMPY = NumpyBackend()
