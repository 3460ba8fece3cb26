"""Incremental netlist construction.

The builder resolves cell names to indices, checks for duplicate references
and produces an immutable :class:`~repro.netlist.netlist.Netlist`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .cell import Cell, CellKind
from .net import Net, Pin, PinDirection

# A pin spec accepted by add_net: a cell name, or (name, direction),
# or (name, direction, dx, dy).
PinSpec = Union[str, Tuple[str, str], Tuple[str, str, float, float]]


class NetlistBuilder:
    """Builds a :class:`Netlist` cell by cell, net by net."""

    def __init__(self, name: str):
        self.name = name
        self._cells: List[Cell] = []
        self._nets: List[Net] = []
        self._cell_index: Dict[str, int] = {}
        self._net_names: set = set()

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def add_cell(
        self,
        name: str,
        width: float,
        height: float,
        kind: CellKind = CellKind.STANDARD,
        delay: float = 0.0,
        input_cap: float = 5.0e-13,
        power: float = 0.0,
        is_register: bool = False,
        x: Optional[float] = None,
        y: Optional[float] = None,
    ) -> Cell:
        """Add a movable cell; returns it so callers can keep a handle."""
        return self._register(
            Cell(
                name=name,
                width=width,
                height=height,
                kind=kind,
                fixed=False,
                x=x,
                y=y,
                delay=delay,
                input_cap=input_cap,
                power=power,
                is_register=is_register,
            )
        )

    def add_fixed_cell(
        self,
        name: str,
        width: float,
        height: float,
        x: float,
        y: float,
        kind: CellKind = CellKind.PAD,
        delay: float = 0.0,
        input_cap: float = 5.0e-13,
        power: float = 0.0,
        is_register: bool = False,
    ) -> Cell:
        """Add a fixed cell (pad or pre-placed block) centered at (x, y)."""
        return self._register(
            Cell(
                name=name,
                width=width,
                height=height,
                kind=kind,
                fixed=True,
                x=x,
                y=y,
                delay=delay,
                input_cap=input_cap,
                power=power,
                is_register=is_register,
            )
        )

    def add_block(
        self, name: str, width: float, height: float, **kwargs
    ) -> Cell:
        """Add a movable macro block — just a big cell (the paper's point)."""
        return self.add_cell(name, width, height, kind=CellKind.BLOCK, **kwargs)

    def _register(self, cell: Cell) -> Cell:
        if cell.name in self._cell_index:
            raise ValueError(f"duplicate cell name {cell.name!r}")
        self._cell_index[cell.name] = len(self._cells)
        self._cells.append(cell)
        return cell

    def has_cell(self, name: str) -> bool:
        return name in self._cell_index

    # ------------------------------------------------------------------
    # Nets
    # ------------------------------------------------------------------
    def add_net(
        self, name: str, pins: Sequence[PinSpec], weight: float = 1.0
    ) -> Net:
        """Add a net over the given pins.

        Each pin spec is a cell name, a ``(name, direction)`` pair, or a
        ``(name, direction, dx, dy)`` tuple with pin offsets from the cell
        center.  ``direction`` is ``"input"`` or ``"output"``.
        """
        if name in self._net_names:
            raise ValueError(f"duplicate net name {name!r}")
        resolved: List[Pin] = []
        for spec in pins:
            resolved.append(self._resolve_pin(name, spec))
        net = Net(name=name, pins=resolved, weight=weight)
        self._net_names.add(name)
        self._nets.append(net)
        return net

    def _resolve_pin(self, net_name: str, spec: PinSpec) -> Pin:
        if isinstance(spec, str):
            cell_name, direction, dx, dy = spec, "input", 0.0, 0.0
        elif len(spec) == 2:
            (cell_name, direction), dx, dy = spec, 0.0, 0.0
        elif len(spec) == 4:
            cell_name, direction, dx, dy = spec
        else:
            raise ValueError(f"net {net_name!r}: bad pin spec {spec!r}")
        if cell_name not in self._cell_index:
            raise KeyError(f"net {net_name!r} references unknown cell {cell_name!r}")
        dx, dy = float(dx), float(dy)
        if not (math.isfinite(dx) and math.isfinite(dy)):
            raise ValueError(
                f"net {net_name!r}: non-finite pin offset ({dx!r}, {dy!r}) "
                f"on cell {cell_name!r}"
            )
        return Pin(
            cell=self._cell_index[cell_name],
            direction=PinDirection(direction),
            dx=dx,
            dy=dy,
        )

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def build(self) -> "Netlist":
        from .netlist import Netlist

        return Netlist(self.name, self._cells, self._nets)
