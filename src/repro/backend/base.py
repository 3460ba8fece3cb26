"""The array-backend protocol of the field/solve hot path.

A :class:`Backend` is a thin vocabulary of array operations — exactly the
ones the per-iteration hot path needs (bilinear splat/sample, spectral
transforms, sparse matrix-vector products, CG reductions) and nothing
more.  The contract:

* **numpy is the reference.**  :class:`~repro.backend.numpy_backend.
  NumpyBackend` delegates every method to the very numpy/scipy call the
  hot path used before the backend layer existed, so the default path is
  bit-identical to the pre-backend code (the bench determinism hashes pin
  this).
* **Boundaries are explicit.**  Device arrays exist only *inside* a
  kernel pipeline (density -> field -> sample, or one CG solve).  Whatever
  crosses back into the placer — sampled forces, field maps, solve
  results — goes through :meth:`Backend.to_numpy`, so checkpoints,
  determinism hashes and telemetry always see plain numpy.
* **Accelerator backends are optional and lazy.**  torch is only
  imported when explicitly requested (``PlacerConfig.backend`` or the
  ``REPRO_BACKEND`` environment variable); a missing library raises an
  informative error instead of poisoning import time.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np


class Backend:
    """Array-operation vocabulary of the hot path (see module docstring).

    Subclasses implement every hook (:meth:`asarray`, :meth:`rfft2`,
    :meth:`matvec`, ...).
    """

    #: Registry name ("numpy", "torch").
    name: str = "abstract"
    #: True only for the numpy reference backend; hot-path call sites use
    #: this to keep the default path free of any conversion overhead.
    is_numpy: bool = False

    # ------------------------------------------------------------------
    # Conversion boundaries
    # ------------------------------------------------------------------
    def asarray(self, a: Any) -> Any:
        """Device float64 array from array-like (numpy: ``np.asarray``)."""
        raise NotImplementedError

    def to_numpy(self, a: Any) -> np.ndarray:
        """Plain numpy array (the explicit device -> host boundary)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Allocation and elementwise primitives
    # ------------------------------------------------------------------
    def zeros(self, shape) -> Any:
        raise NotImplementedError

    def clip(self, a, lo, hi) -> Any:
        raise NotImplementedError

    def minimum(self, a, b) -> Any:
        raise NotImplementedError

    def maximum(self, a, b) -> Any:
        raise NotImplementedError

    def hypot(self, a, b) -> Any:
        raise NotImplementedError

    def trunc_int(self, a) -> Any:
        """Truncating cast to the backend's index integer (``astype(int64)``)."""
        raise NotImplementedError

    def clamp_max_int(self, a, hi: int) -> Any:
        """``min(a, hi)`` for integer index arrays, preserving the dtype.

        Separate from :meth:`minimum` because some backends (torch)
        promote mixed int/float operands to float, which would corrupt
        gather/scatter indices.
        """
        raise NotImplementedError

    def concat(self, arrays: Sequence[Any], axis: int = 0) -> Any:
        raise NotImplementedError

    def bincount(self, idx, weights, minlength: int) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Reductions (host scalars out)
    # ------------------------------------------------------------------
    def sum(self, a) -> float:
        raise NotImplementedError

    def dot(self, a, b) -> float:
        raise NotImplementedError

    def norm(self, a) -> float:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Spectral transforms
    # ------------------------------------------------------------------
    def rfft2(self, a, s) -> Any:
        """Real 2-D FFT over the last two axes, zero-padded to ``s``."""
        raise NotImplementedError

    def irfft2(self, a, s) -> Any:
        """Inverse of :meth:`rfft2`; batched over leading axes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Sparse matrix-vector products
    # ------------------------------------------------------------------
    def csr_from_scipy(self, A) -> Any:
        """Device CSR handle for a ``scipy.sparse.csr_matrix`` snapshot.

        Called once per solve (the placer's shifted operators rewrite the
        matrix data between solves, so the handle must snapshot).
        """
        raise NotImplementedError

    def matvec(self, A, x) -> Any:
        """``A @ x`` for a handle from :meth:`csr_from_scipy`."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
