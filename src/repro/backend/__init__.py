"""Pluggable array backends for the field/solve hot path.

The public surface is tiny:

- :func:`resolve_backend` — name (or ``None``) to a :class:`Backend`
  singleton.  ``None`` consults the ``REPRO_BACKEND`` environment
  variable and falls back to numpy, so the default is always available
  and always bit-identical to the historical numpy code.
- :func:`available_backends` — which of the known backends can actually
  be constructed in this environment (numpy always; torch only when it
  is importable).
- :data:`NUMPY` — the shared reference-backend instance.

See :mod:`repro.backend.base` for the protocol and the guarantees, and
``docs/BACKENDS.md`` for selection, install extras and parity bounds.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from .base import Backend
from .numpy_backend import NumpyBackend

#: Names accepted by :func:`resolve_backend` (and ``PlacerConfig.backend``).
BACKEND_NAMES = ("numpy", "torch")

#: The always-on reference backend; hot-path call sites use this when no
#: backend is threaded through, keeping the default path allocation-free.
NUMPY = NumpyBackend()

_INSTANCES: Dict[str, Backend] = {"numpy": NUMPY}


def resolve_backend(name: Optional[str] = None) -> Backend:
    """The backend for *name*, constructed lazily and cached.

    ``None`` (the config default) resolves through the ``REPRO_BACKEND``
    environment variable, then numpy.  Unknown names and requested-but-
    missing accelerator libraries raise ``ValueError`` with an actionable
    message — never a bare ``ImportError`` from deep inside a placer run.
    """
    if name is None:
        name = os.environ.get("REPRO_BACKEND") or "numpy"
    name = name.lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown array backend {name!r}; choose from {BACKEND_NAMES}"
        )
    backend = _INSTANCES.get(name)
    if backend is None:
        try:
            from .torch_backend import TorchBackend

            backend = TorchBackend()
        except ImportError as exc:
            raise ValueError(
                f"array backend {name!r} requested but {name} is not "
                f"installed (pip install repro[{name}]); the numpy backend "
                f"is always available"
            ) from exc
        _INSTANCES[name] = backend
    return backend


def available_backends() -> List[str]:
    """Names of backends that can be constructed here, numpy first."""
    names = ["numpy"]
    for name in BACKEND_NAMES[1:]:
        try:
            resolve_backend(name)
        except ValueError:
            continue
        names.append(name)
    return names


__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "NUMPY",
    "NumpyBackend",
    "available_backends",
    "resolve_backend",
]
