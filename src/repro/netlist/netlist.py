"""The netlist container: cells + nets + cached numpy views.

A :class:`Netlist` is immutable once built (use
:class:`~repro.netlist.builder.NetlistBuilder` to construct one, and
:mod:`repro.eco` to derive modified netlists).  It caches numpy arrays of
cell sizes and fixed positions because every placer inner loop consumes them.

A netlist crosses process boundaries as its canonical ``repro netlist v1``
text (:func:`~repro.netlist.io.netlist_to_string`, computed once per
object): that is what it pickles as, and unpickling goes through the
design memo (:mod:`repro.netlist.memo`), so a process parses each distinct
design at most once and gets back the object it already holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cell import Cell, CellKind
from .net import Net


class Netlist:
    """An immutable circuit: cells, nets, and derived index structures."""

    def __init__(self, name: str, cells: Sequence[Cell], nets: Sequence[Net]):
        self.name = name
        self.cells: List[Cell] = list(cells)
        self.nets: List[Net] = list(nets)
        #: ``(canonical text, design-memo key)``, computed on first use by
        #: :func:`~repro.netlist.io.netlist_to_string`.
        self._canonical: Optional[Tuple[str, str]] = None
        self._assign_indices()
        self._validate()
        self._build_caches()

    def __reduce__(self):
        from .io import _netlist_from_pickle, _pickled_text

        return (_netlist_from_pickle, (_pickled_text(self),))

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------
    def _assign_indices(self) -> None:
        for i, cell in enumerate(self.cells):
            cell.index = i
        for j, net in enumerate(self.nets):
            net.index = j

    def _validate(self) -> None:
        seen_cells: Dict[str, int] = {}
        for cell in self.cells:
            if cell.name in seen_cells:
                raise ValueError(f"duplicate cell name {cell.name!r}")
            seen_cells[cell.name] = cell.index
            cell.check()  # again: a field may have changed since construction
        seen_nets: set = set()
        for net in self.nets:
            if net.name in seen_nets:
                raise ValueError(f"duplicate net name {net.name!r}")
            seen_nets.add(net.name)
            for pin in net.pins:
                if not 0 <= pin.cell < len(self.cells):
                    raise ValueError(
                        f"net {net.name!r} references cell index {pin.cell} "
                        f"outside [0, {len(self.cells)})"
                    )

    def _build_caches(self) -> None:
        n = len(self.cells)
        self.widths = np.array([c.width for c in self.cells], dtype=np.float64)
        self.heights = np.array([c.height for c in self.cells], dtype=np.float64)
        self.areas = self.widths * self.heights
        self.fixed_mask = np.array([c.fixed for c in self.cells], dtype=bool)
        self.movable_mask = ~self.fixed_mask
        self.movable_indices = np.flatnonzero(self.movable_mask)
        self.fixed_indices = np.flatnonzero(self.fixed_mask)
        self.fixed_x = np.zeros(n)
        self.fixed_y = np.zeros(n)
        for i in self.fixed_indices:
            cell = self.cells[i]
            self.fixed_x[i] = cell.x
            self.fixed_y[i] = cell.y
        # cell -> nets adjacency (list of net indices per cell)
        self._cell_nets: List[List[int]] = [[] for _ in range(n)]
        for net in self.nets:
            for pin in net.pins:
                self._cell_nets[pin.cell].append(net.index)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    @property
    def num_movable(self) -> int:
        return int(self.movable_mask.sum())

    @property
    def num_fixed(self) -> int:
        return int(self.fixed_mask.sum())

    @property
    def num_pins(self) -> int:
        return sum(net.degree for net in self.nets)

    def cell_by_name(self, name: str) -> Cell:
        for cell in self.cells:
            if cell.name == name:
                return cell
        raise KeyError(f"no cell named {name!r}")

    def net_by_name(self, name: str) -> Net:
        for net in self.nets:
            if net.name == name:
                return net
        raise KeyError(f"no net named {name!r}")

    def nets_of_cell(self, cell_index: int) -> List[int]:
        """Indices of nets incident to the cell."""
        return self._cell_nets[cell_index]

    def movable_area(self) -> float:
        return float(self.areas[self.movable_mask].sum())

    def total_cell_area(self) -> float:
        return float(self.areas.sum())

    def average_movable_area(self) -> float:
        if self.num_movable == 0:
            raise ValueError("netlist has no movable cells")
        return self.movable_area() / self.num_movable

    def blocks(self) -> List[Cell]:
        return [c for c in self.cells if c.kind is CellKind.BLOCK]

    def registers(self) -> List[Cell]:
        return [c for c in self.cells if c.is_register]

    def stats(self) -> Dict[str, float]:
        """Headline structural statistics (matches Table 1's parameters)."""
        degrees = np.array([net.degree for net in self.nets]) if self.nets else np.zeros(0)
        return {
            "cells": self.num_cells,
            "movable": self.num_movable,
            "fixed": self.num_fixed,
            "nets": self.num_nets,
            "pins": self.num_pins,
            "avg_net_degree": float(degrees.mean()) if degrees.size else 0.0,
            "max_net_degree": int(degrees.max()) if degrees.size else 0,
            "movable_area": self.movable_area(),
        }

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, cells={self.num_cells}, "
            f"nets={self.num_nets}, movable={self.num_movable})"
        )
