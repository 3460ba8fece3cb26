"""Incremental netlist construction.

The builder collects plain values, one column per cell, net and pin
attribute, resolves cell names to indices, checks each record as it is
added and produces an immutable :class:`~repro.netlist.netlist.Netlist`.
``add_cell`` and ``add_net`` return read-only views of what they added;
the value-level :meth:`NetlistBuilder.cell` and :meth:`NetlistBuilder.net`
(the generator's and coarsening's path) build no object per record.  The
file readers fill a netlist's columns themselves
(:meth:`~repro.netlist.netlist.Netlist.from_columns`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .cell import CELL_KINDS, Cell, CellKind, check_cell
from .net import PIN_DIRECTIONS, Net, Pin, PinDirection, check_net
from .netlist import CELL_COLUMNS, Netlist

# A pin spec accepted by add_net: a cell name, or (name, direction),
# or (name, direction, dx, dy).
PinSpec = Union[str, Tuple[str, str], Tuple[str, str, float, float]]

KIND_CODE = {kind: code for code, kind in enumerate(CELL_KINDS)}
DIRECTION_CODE = {d.value: code for code, d in enumerate(PIN_DIRECTIONS)}


class NetlistBuilder:
    """Builds a :class:`Netlist` cell by cell, net by net."""

    def __init__(self, name: str):
        self.name = name
        self._cell_index: Dict[str, int] = {}
        self._names: List[str] = []
        self._cells: Dict[str, list] = {column: [] for column in CELL_COLUMNS}
        self._net_names: List[str] = []
        self._net_set: set = set()
        self._net_weight: List[float] = []
        self._net_ptr: List[int] = [0]
        self._pin_cell: List[int] = []
        self._pin_dir: List[int] = []
        self._pin_dx: List[float] = []
        self._pin_dy: List[float] = []

    @property
    def num_cells(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def cell(
        self,
        name: str,
        width: float,
        height: float,
        kind: CellKind = CellKind.STANDARD,
        fixed: bool = False,
        x: Optional[float] = None,
        y: Optional[float] = None,
        delay: float = 0.0,
        input_cap: float = 5.0e-13,
        power: float = 0.0,
        is_register: bool = False,
    ) -> int:
        """Add one cell from plain values; returns its index.

        Raises ``ValueError`` for a duplicate name or values that
        :func:`~repro.netlist.cell.check_cell` rejects.
        """
        check_cell(name, width, height, fixed, x, y, delay, input_cap, power)
        if name in self._cell_index:
            raise ValueError(f"duplicate cell name {name!r}")
        index = len(self._names)
        self._cell_index[name] = index
        self._names.append(name)
        for column, value in zip(self._cells.values(), (
            width, height, KIND_CODE[kind], fixed,
            0.0 if x is None else x, 0.0 if y is None else y,
            x is not None, y is not None, delay, input_cap, power,
            is_register,
        )):
            column.append(value)
        return index

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
        """Add a movable cell; returns a read-only view of it."""
        return self._cell_view(self.cell(
            name, width, height, kind, False, x, y, delay, input_cap, power,
            is_register,
        ))

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
        return self._cell_view(self.cell(
            name, width, height, kind, True, x, y, delay, input_cap, power,
            is_register,
        ))

    def add_block(
        self, name: str, width: float, height: float, **kwargs
    ) -> Cell:
        """Add a movable macro block — just a big cell (the paper's point)."""
        return self.add_cell(name, width, height, kind=CellKind.BLOCK, **kwargs)

    def set_register(self, index: int) -> None:
        """Mark cell *index* as a register (the generator's depth bound)."""
        self._cells["register_mask"][index] = True

    def _cell_view(self, index: int) -> Cell:
        c = {column: values[index] for column, values in self._cells.items()}
        return Cell._view(
            index,
            name=self._names[index],
            width=c["widths"], height=c["heights"],
            kind=CELL_KINDS[c["kinds"]], fixed=c["fixed_mask"],
            x=c["cell_x"] if c["has_x"] else None,
            y=c["cell_y"] if c["has_y"] else None,
            delay=c["delays"], input_cap=c["input_caps"], power=c["powers"],
            is_register=c["register_mask"],
        )

    # ------------------------------------------------------------------
    # Nets
    # ------------------------------------------------------------------
    def net(
        self,
        name: str,
        weight: float,
        cells: Sequence[int],
        dirs: Sequence[int],
        dxs: Sequence[float],
        dys: Sequence[float],
    ) -> int:
        """Add one net from plain values: per pin a cell index, a direction
        code (1 drives), and the offsets.  Returns the net's index.

        Raises ``ValueError`` for a duplicate name, non-finite offsets or
        values that :func:`~repro.netlist.net.check_net` rejects.
        """
        if name in self._net_set:
            raise ValueError(f"duplicate net name {name!r}")
        for dx, dy, cell in zip(dxs, dys, cells):
            if not (math.isfinite(dx) and math.isfinite(dy)):
                raise ValueError(
                    f"net {name!r}: non-finite pin offset ({dx!r}, {dy!r}) "
                    f"on cell {self._names[cell]!r}"
                )
        check_net(name, len(cells), weight, sum(dirs))
        self._net_set.add(name)
        self._net_names.append(name)
        self._net_weight.append(weight)
        self._pin_cell.extend(cells)
        self._pin_dir.extend(dirs)
        self._pin_dx.extend(dxs)
        self._pin_dy.extend(dys)
        self._net_ptr.append(len(self._pin_cell))
        return len(self._net_names) - 1

    def add_net(
        self, name: str, pins: Sequence[PinSpec], weight: float = 1.0
    ) -> Net:
        """Add a net over the given pins; returns a read-only view of it.

        Each pin spec is a cell name, a ``(name, direction)`` pair, or a
        ``(name, direction, dx, dy)`` tuple with pin offsets from the cell
        center.  ``direction`` is ``"input"`` or ``"output"``.
        """
        if name in self._net_set:
            raise ValueError(f"duplicate net name {name!r}")
        cells, dirs, dxs, dys = [], [], [], []
        for spec in pins:
            if isinstance(spec, str):
                cell_name, direction, dx, dy = spec, "input", 0.0, 0.0
            elif len(spec) == 2:
                (cell_name, direction), dx, dy = spec, 0.0, 0.0
            elif len(spec) == 4:
                cell_name, direction, dx, dy = spec
            else:
                raise ValueError(f"net {name!r}: bad pin spec {spec!r}")
            if cell_name not in self._cell_index:
                raise KeyError(f"net {name!r} references unknown cell {cell_name!r}")
            cells.append(self._cell_index[cell_name])
            dirs.append(DIRECTION_CODE[PinDirection(direction).value])
            dxs.append(float(dx))
            dys.append(float(dy))
        j = self.net(name, weight, cells, dirs, dxs, dys)
        lo = self._net_ptr[j]
        pin_views = tuple(
            Pin(cell, PIN_DIRECTIONS[d], dx, dy)
            for cell, d, dx, dy in zip(
                self._pin_cell[lo:], self._pin_dir[lo:],
                self._pin_dx[lo:], self._pin_dy[lo:],
            )
        )
        return Net._view(j, name, pin_views, weight)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def build(self) -> Netlist:
        return Netlist.from_columns(
            self.name,
            self._names,
            self._net_names,
            **self._cells,
            net_weight=self._net_weight,
            net_ptr=self._net_ptr,
            pin_cell=self._pin_cell,
            pin_dir=self._pin_dir,
            pin_dx=self._pin_dx,
            pin_dy=self._pin_dy,
        )
