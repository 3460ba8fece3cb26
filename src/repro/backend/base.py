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

The base class also carries generic real-to-real transforms (DCT-II and
its inverse, via Makhoul's FFT factorization) so accelerator backends
whose FFT stack lacks native DCT support — torch — share one tested
implementation; numpy overrides them with ``scipy.fft``'s native r2r
transforms.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np


class Backend:
    """Array-operation vocabulary of the hot path (see module docstring).

    Subclasses implement the primitive hooks (:meth:`asarray`,
    :meth:`fft`, :meth:`matvec`, ...); derived operations with a single
    correct formulation (the Makhoul DCT) live here so every backend
    shares them.
    """

    #: Registry name ("numpy", "torch").
    name: str = "abstract"
    #: True only for the numpy reference backend; hot-path call sites use
    #: this to keep the default path free of any conversion overhead.
    is_numpy: bool = False
    #: Whether this backend can run the DCT spectral mode.
    supports_dct: bool = True

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

    def flip(self, a, axis: int) -> Any:
        raise NotImplementedError

    def moveaxis(self, a, src: int, dst: int) -> Any:
        raise NotImplementedError

    def bincount(self, idx, weights, minlength: int) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Reductions (host scalars out)
    # ------------------------------------------------------------------
    def sum(self, a) -> float:
        raise NotImplementedError

    def amax(self, a) -> float:
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

    def fft(self, a) -> Any:
        """Complex FFT along the last axis (generic-DCT building block)."""
        raise NotImplementedError

    def ifft(self, a) -> Any:
        raise NotImplementedError

    def real(self, a) -> Any:
        raise NotImplementedError

    def dct2(self, a, axis: int) -> Any:
        """Unnormalized DCT-II along *axis* (scipy ``dct(type=2)`` scale).

        Generic implementation: Makhoul's even-odd permutation + complex
        FFT.  Exact to machine precision against ``scipy.fft.dct``; the
        numpy backend overrides with the native r2r transform.
        """
        x = self.moveaxis(a, axis, -1)
        n = x.shape[-1]
        v = self.concat([x[..., ::2], self.flip(x[..., 1::2], -1)], axis=-1)
        spectrum = self.fft(v)
        k = np.arange(n)
        twiddle = self.asarray_complex(2.0 * np.exp(-1j * np.pi * k / (2 * n)))
        y = self.real(spectrum * twiddle)
        return self.moveaxis(y, -1, axis)

    def idct2(self, a, axis: int) -> Any:
        """Inverse DCT-II along *axis* (matches ``scipy.fft.idct(type=2)``)."""
        y = self.moveaxis(a, axis, -1)
        n = y.shape[-1]
        mirror = self.concat(
            [self.zeros(tuple(y.shape[:-1]) + (1,)), self.flip(y[..., 1:], -1)],
            axis=-1,
        )
        k = np.arange(n)
        twiddle = self.asarray_complex(0.5 * np.exp(1j * np.pi * k / (2 * n)))
        spectrum = (y - 1j * mirror) * twiddle
        v = self.real(self.ifft(spectrum))
        x = self.zeros(y.shape)
        half = (n + 1) // 2
        x[..., ::2] = v[..., :half]
        x[..., 1::2] = self.flip(v[..., half:], -1)
        return self.moveaxis(x, -1, axis)

    def asarray_complex(self, a: np.ndarray) -> Any:
        """Device complex128 array (twiddle factors for the generic DCT)."""
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
