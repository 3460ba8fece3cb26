"""Lazy package exports (PEP 562).

A package built with :func:`lazy_exports` imports none of its modules up
front: each public name is imported from its module on first access and
then kept in the package namespace, so later lookups are ordinary
attribute reads.  A process therefore loads only the modules whose names
it uses — a wire client never loads the placer, and a placement job never
loads the timing, thermal or floorplanning applications.

Usage, at the end of a package ``__init__``::

    from .._lazy import lazy_exports

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".config": ("PlacerConfig", "STANDARD_K", "FAST_K"),
        ".placer": ("KraftwerkPlacer", "PlacementResult"),
    })
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, modules: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package*.

    *modules* maps a module path relative to *package* (``".placer"``) to
    the names the package exports from it; ``__all__`` lists them in
    table order.  A name outside the table that names a submodule
    (``repro.core.placer``, ``repro.legalize``) imports that submodule, as
    an eager ``__init__`` that had imported it would have exposed it.
    """
    origin = {name: module for module, names in modules.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
        elif (
            name.isidentifier()
            and not name.startswith("__")
            and importlib.util.find_spec(f"{package}.{name}") is not None
        ):
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__
