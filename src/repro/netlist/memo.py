"""One parsed copy of each design per process.

Every path that turns bytes into a :class:`~repro.netlist.netlist.Netlist`
looks the design up here first:

- unpickling (a netlist pickles as its canonical text, see
  :func:`~repro.netlist.io.netlist_to_string`);
- :func:`~repro.netlist.io.netlist_from_string`, which the service's wire
  front end uses for inline designs, and
  :func:`~repro.netlist.io.load_netlist`;
- :func:`repro.api.resolve_source` for Bookshelf ``.aux`` sets and
  generated names.

The key is the SHA-256 of the bytes read (see :func:`content_key`).
Netlists are immutable, so handing every caller the same object is sound,
and because the key is the content, a file rewritten in place is read
anew.  An entry is ``(netlist, region)``: the region of a Bookshelf set or
a generated circuit, ``None`` for netlist text, which carries none.  The
memo never holds a mutable :class:`~repro.netlist.placement.Placement`.

The memo finds any design still alive in the process through a weak
reference.  It also keeps the most recently used designs alive itself, up
to :data:`MAX_CELLS` cells in total.  That is fewer than one 100k-cell
design, so a design that large lives exactly as long as its users.
"""

from __future__ import annotations

import hashlib
import os
import threading
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..geometry import PlacementRegion
    from .netlist import Netlist

    Entry = Tuple[Netlist, Optional[PlacementRegion]]

#: Total cells of the designs the memo keeps alive by itself: a dozen
#: 1.2k-cell designs, about 7.5 MB with their canonical text (0.6 MB
#: each).  Fewer than one 100k-cell design.  A forked worker inherits
#: what its parent holds, so a larger bound raises the resident size of
#: every pool process.
MAX_CELLS = 16_384


def content_key(*parts: bytes) -> str:
    """SHA-256 over length-prefixed *parts*: a tag naming the kind of
    source, then the bytes read (prefixing keeps the split unambiguous)."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest()


class DesignMemo:
    """``key -> (netlist, region)``: weak index plus a cell-bounded LRU.

    Thread-safe.  ``hits``/``misses`` count :meth:`get` lookups.
    """

    def __init__(self, max_cells: int = MAX_CELLS):
        self.max_cells = int(max_cells)
        self._lock = threading.Lock()
        self._entries: Dict[str, Tuple[weakref.ref, Optional["PlacementRegion"]]] = {}
        self._recent: "OrderedDict[str, Netlist]" = OrderedDict()
        self._recent_cells = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional["Entry"]:
        """The live entry for *key*, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            netlist = entry[0]() if entry is not None else None
            if netlist is None:
                self.misses += 1
                return None
            self.hits += 1
            self._keep(key, netlist)
            return netlist, entry[1]

    def put(
        self,
        key: str,
        netlist: "Netlist",
        region: Optional["PlacementRegion"] = None,
    ) -> "Entry":
        """Memoize ``(netlist, region)`` under *key* and return the entry
        now held: when another thread stored a live one first, that one
        wins, so every caller gets the same object."""
        with self._lock:
            entry = self._entries.get(key)
            live = entry[0]() if entry is not None else None
            if live is not None:
                netlist, region = live, entry[1]
            else:
                self._insert(key, netlist, region)
            self._keep(key, netlist)
            return netlist, region

    def adopt(self, key: str, netlist: "Netlist") -> None:
        """Make *netlist* the answer for *key*, its own canonical text,
        without keeping it alive.

        Called each time a netlist is pickled, so that unpickling in this
        process returns the very object that was pickled, even when an
        equal netlist answered for the text before.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0]() is not netlist:
                self._insert(key, netlist, None)
                if key in self._recent:  # same text, so same cell count
                    self._recent[key] = netlist

    def _insert(self, key, netlist, region) -> None:
        # Dead entries are dropped here, so the index stays as small as
        # the set of designs alive in the process.
        self._entries = {
            k: e for k, e in self._entries.items() if e[0]() is not None
        }
        self._entries[key] = (weakref.ref(netlist), region)

    def load(self, key: str, build: Callable[[], "Entry"]) -> "Entry":
        """The entry for *key*, calling ``build()`` on a miss."""
        hit = self.get(key)
        if hit is not None:
            return hit
        return self.put(key, *build())

    def _keep(self, key: str, netlist: "Netlist") -> None:
        """Mark *key* most recently used; hold designs up to the bound."""
        if key in self._recent:
            self._recent.move_to_end(key)
            return
        if netlist.num_cells > self.max_cells:
            return
        self._recent[key] = netlist
        self._recent_cells += netlist.num_cells
        while self._recent_cells > self.max_cells:
            _, old = self._recent.popitem(last=False)
            self._recent_cells -= old.num_cells

    def _after_fork(self) -> None:
        # A fork can land while another thread holds the lock or is midway
        # through _keep; the child gets a fresh lock and a recounted bound.
        self._lock = threading.Lock()
        self._recent_cells = sum(n.num_cells for n in self._recent.values())


#: The process-wide memo every design source goes through.
DESIGNS = DesignMemo()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=DESIGNS._after_fork)


__all__ = ["DESIGNS", "DesignMemo", "MAX_CELLS", "content_key"]
