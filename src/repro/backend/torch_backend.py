"""Torch backend (CPU or CUDA), resolved lazily.

Torch is never imported at package import time — only when the backend is
explicitly requested.  All arrays are float64 tensors on
``REPRO_TORCH_DEVICE`` (default ``"cpu"``; set to ``"cuda"`` to run the
hot path on a GPU).
"""

from __future__ import annotations

import os

import numpy as np

from .base import Backend


class TorchBackend(Backend):
    name = "torch"
    is_numpy = False

    def __init__(self, device: str | None = None):
        import torch  # deferred: only requested backends pay the import

        self.torch = torch
        self.device = torch.device(
            device or os.environ.get("REPRO_TORCH_DEVICE", "cpu")
        )

    # -- conversion ----------------------------------------------------
    def asarray(self, a):
        return self.torch.asarray(
            a, dtype=self.torch.float64, device=self.device
        )

    def to_numpy(self, a):
        if isinstance(a, self.torch.Tensor):
            return a.detach().cpu().numpy()
        return np.asarray(a)

    # -- allocation / elementwise --------------------------------------
    def zeros(self, shape):
        return self.torch.zeros(
            tuple(shape), dtype=self.torch.float64, device=self.device
        )

    def clip(self, a, lo, hi):
        return self.torch.clamp(a, min=lo, max=hi)

    def minimum(self, a, b):
        return self.torch.minimum(a, self._wrap(b))

    def maximum(self, a, b):
        return self.torch.maximum(a, self._wrap(b))

    def hypot(self, a, b):
        return self.torch.hypot(a, b)

    def trunc_int(self, a):
        return a.to(self.torch.int64)

    def clamp_max_int(self, a, hi):
        return self.torch.clamp(a, max=hi)

    def concat(self, arrays, axis=0):
        return self.torch.cat(tuple(arrays), dim=axis)

    def bincount(self, idx, weights, minlength):
        return self.torch.bincount(idx, weights=weights, minlength=minlength)

    def _wrap(self, v):
        """Scalars to 0-d tensors (torch.minimum wants tensor operands)."""
        if isinstance(v, self.torch.Tensor):
            return v
        return self.torch.tensor(
            float(v), dtype=self.torch.float64, device=self.device
        )

    # -- reductions ----------------------------------------------------
    def sum(self, a):
        return float(a.sum())

    def dot(self, a, b):
        return float(self.torch.dot(a, b))

    def norm(self, a):
        return float(self.torch.linalg.vector_norm(a))

    # -- spectral ------------------------------------------------------
    def rfft2(self, a, s):
        return self.torch.fft.rfftn(a, s=tuple(s), dim=(-2, -1))

    def irfft2(self, a, s):
        return self.torch.fft.irfftn(a, s=tuple(s), dim=(-2, -1))

    # -- sparse --------------------------------------------------------
    def csr_from_scipy(self, A):
        t = self.torch
        return t.sparse_csr_tensor(
            t.asarray(np.asarray(A.indptr, dtype=np.int64), device=self.device),
            t.asarray(np.asarray(A.indices, dtype=np.int64), device=self.device),
            t.asarray(A.data, dtype=t.float64, device=self.device),
            size=tuple(A.shape),
        )

    def matvec(self, A, x):
        # Sparse-CSR matmul needs a 2-D dense operand on some torch builds.
        return (A @ x.unsqueeze(1)).squeeze(1)
