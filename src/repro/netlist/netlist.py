"""The netlist container: one struct of arrays per design.

A :class:`Netlist` stores its design as numpy arrays, because that is how
every placer inner loop reads it (Section 4.1: pin offsets go into ``C``
and ``d``, cell sizes into the density ``D``):

- per cell: ``widths``, ``heights``, ``kinds`` (codes into
  :data:`~repro.netlist.cell.CELL_KINDS`), ``fixed_mask``, the stated
  position ``cell_x``/``cell_y`` with ``has_x``/``has_y`` (a fixed cell's
  pinned center, else an optional hint), ``delays``, ``input_caps``,
  ``powers`` and ``register_mask``;
- per net: ``net_weight`` and the pin CSR ``net_ptr``: the pins of net
  ``j`` are ``net_ptr[j]:net_ptr[j + 1]``;
- per pin: ``pin_cell``, ``pin_dx``/``pin_dy`` (offsets from the cell
  center) and ``pin_dir`` (codes into
  :data:`~repro.netlist.net.PIN_DIRECTIONS`, 1 for a driver);
- ``cell_names`` and ``net_names`` as tuples of strings.

Every array is read-only.  ``netlist.cells[i]`` and ``netlist.nets[j]``
are read-only :class:`~repro.netlist.cell.Cell` and
:class:`~repro.netlist.net.Net` views, built on access and never kept, so
a design held in memory costs no Python object per cell or per pin.  Build
a netlist with :class:`~repro.netlist.builder.NetlistBuilder`, and derive
modified ones with it or with :mod:`repro.eco`.

A netlist crosses process boundaries as its canonical ``repro netlist v1``
text (:func:`~repro.netlist.io.netlist_to_string`, computed once per
object): that is what it pickles as, and unpickling goes through the
design memo (:mod:`repro.netlist.memo`), so a process parses each distinct
design at most once and gets back the object it already holds.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence as _Sequence
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cell import CELL_KINDS, Cell, CellKind, check_cell
from .net import PIN_DIRECTIONS, Net, Pin, PinDirection, check_net
from .records import first_repeat

#: The per-cell, per-net and per-pin columns a netlist stores, with their
#: dtypes.  :meth:`Netlist.from_columns` takes exactly these plus the names.
CELL_COLUMNS: Dict[str, type] = {
    "widths": np.float64,
    "heights": np.float64,
    "kinds": np.int8,
    "fixed_mask": np.bool_,
    "cell_x": np.float64,
    "cell_y": np.float64,
    "has_x": np.bool_,
    "has_y": np.bool_,
    "delays": np.float64,
    "input_caps": np.float64,
    "powers": np.float64,
    "register_mask": np.bool_,
}
NET_COLUMNS: Dict[str, type] = {"net_weight": np.float64, "net_ptr": np.int64}
PIN_COLUMNS: Dict[str, type] = {
    "pin_cell": np.int64,
    "pin_dir": np.int8,
    "pin_dx": np.float64,
    "pin_dy": np.float64,
}


def _frozen(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class Netlist:
    """An immutable circuit stored as arrays (see the module docstring)."""

    def __init__(self, name: str, cells: Sequence[Cell], nets: Sequence[Net]):
        """A netlist from cell and net records.

        Each cell is checked again here (:meth:`Cell.check`), which catches
        a field changed after the cell was constructed.
        """
        cells, nets = list(cells), list(nets)
        for cell in cells:
            cell.check()
        pins = [pin for net in nets for pin in net.pins]
        kind_code = {kind: code for code, kind in enumerate(CELL_KINDS)}
        self._setup(
            name,
            [c.name for c in cells],
            [n.name for n in nets],
            widths=[c.width for c in cells],
            heights=[c.height for c in cells],
            kinds=[kind_code[c.kind] for c in cells],
            fixed_mask=[c.fixed for c in cells],
            cell_x=[0.0 if c.x is None else c.x for c in cells],
            cell_y=[0.0 if c.y is None else c.y for c in cells],
            has_x=[c.x is not None for c in cells],
            has_y=[c.y is not None for c in cells],
            delays=[c.delay for c in cells],
            input_caps=[c.input_cap for c in cells],
            powers=[c.power for c in cells],
            register_mask=[c.is_register for c in cells],
            net_weight=[n.weight for n in nets],
            net_ptr=np.cumsum([0] + [len(n.pins) for n in nets]),
            pin_cell=[p.cell for p in pins],
            pin_dir=[p.direction is PinDirection.OUTPUT for p in pins],
            pin_dx=[p.dx for p in pins],
            pin_dy=[p.dy for p in pins],
        )

    @classmethod
    def from_columns(
        cls,
        name: str,
        cell_names: Sequence[str],
        net_names: Sequence[str],
        **columns,
    ) -> "Netlist":
        """A netlist from its columns (:data:`CELL_COLUMNS`,
        :data:`NET_COLUMNS`, :data:`PIN_COLUMNS`), checked as a whole."""
        netlist = cls.__new__(cls)
        netlist._setup(name, cell_names, net_names, **columns)
        return netlist

    def __reduce__(self):
        from .io import _netlist_from_pickle, _pickled_text

        return (_netlist_from_pickle, (_pickled_text(self),))

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------
    def _setup(self, name, cell_names, net_names, **columns) -> None:
        expected = {**CELL_COLUMNS, **NET_COLUMNS, **PIN_COLUMNS}
        if set(columns) != set(expected):
            raise TypeError(
                f"netlist columns {sorted(columns)} are not {sorted(expected)}"
            )
        self.name = name
        self.cell_names: Tuple[str, ...] = tuple(cell_names)
        self.net_names: Tuple[str, ...] = tuple(net_names)
        for column, dtype in expected.items():
            setattr(self, column, _frozen(columns[column], dtype))
        #: ``(canonical text, design-memo key)``, computed on first use by
        #: :func:`~repro.netlist.io.netlist_to_string`.
        self._canonical: Optional[Tuple[str, str]] = None
        self._cell_nets: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._validate()
        fixed = self.fixed_mask
        self.areas = _frozen(self.widths * self.heights, np.float64)
        self.movable_mask = _frozen(~fixed, np.bool_)
        self.movable_indices = _frozen(np.flatnonzero(~fixed), np.int64)
        self.fixed_indices = _frozen(np.flatnonzero(fixed), np.int64)
        self.fixed_x = _frozen(np.where(fixed, self.cell_x, 0.0), np.float64)
        self.fixed_y = _frozen(np.where(fixed, self.cell_y, 0.0), np.float64)
        self.net_degree = _frozen(np.diff(self.net_ptr), np.int64)

    def _validate(self) -> None:
        n, m = len(self.cell_names), len(self.net_names)
        if any(len(getattr(self, c)) != n for c in CELL_COLUMNS) or (
            len(self.net_weight) != m or len(self.net_ptr) != m + 1
        ):
            raise ValueError("netlist columns disagree with the name counts")
        degree = np.diff(self.net_ptr)
        num_pins = int(self.net_ptr[-1])
        if self.net_ptr[0] != 0 or np.any(degree < 0) or any(
            len(getattr(self, c)) != num_pins for c in PIN_COLUMNS
        ):
            raise ValueError("pin columns do not match net_ptr")
        _check_unique("cell", self.cell_names)
        w, h = self.widths, self.heights
        fixed = self.fixed_mask
        with np.errstate(invalid="ignore"):
            bad = ~(np.isfinite(w) & np.isfinite(h) & (w > 0) & (h > 0))
            bad |= fixed & ~(
                self.has_x & self.has_y
                & np.isfinite(self.cell_x) & np.isfinite(self.cell_y)
            )
            for values in (self.delays, self.input_caps, self.powers):
                bad |= ~np.isfinite(values)
            bad |= self.delays < 0
        if bad.any():
            check_cell(**self._cell_values(int(np.argmax(bad))))
            raise AssertionError("unreachable: check_cell accepted a bad cell")
        if np.any((self.kinds < 0) | (self.kinds >= len(CELL_KINDS))):
            raise ValueError("cell kind codes out of range")
        _check_unique("net", self.net_names)
        cell = self.pin_cell
        out_of_range = (cell < 0) | (cell >= n)
        if out_of_range.any():
            p = int(np.argmax(out_of_range))
            j = int(np.searchsorted(self.net_ptr, p, side="right")) - 1
            raise ValueError(
                f"net {self.net_names[j]!r} references cell index "
                f"{int(cell[p])} outside [0, {n})"
            )
        if np.any((self.pin_dir < 0) | (self.pin_dir >= len(PIN_DIRECTIONS))):
            raise ValueError("pin direction codes out of range")
        empty = degree < 1
        if empty.any():
            check_net(self.net_names[int(np.argmax(empty))], 0, 1.0, 0)
        drivers = (
            np.add.reduceat(self.pin_dir, self.net_ptr[:-1], dtype=np.int64)
            if m else np.zeros(0, dtype=np.int64)
        )
        weight = self.net_weight
        with np.errstate(invalid="ignore"):
            bad = ~(np.isfinite(weight) & (weight > 0)) | (drivers > 1)
        if bad.any():
            j = int(np.argmax(bad))
            check_net(self.net_names[j], int(degree[j]), float(weight[j]),
                      int(drivers[j]))
        offsets_ok = np.isfinite(self.pin_dx) & np.isfinite(self.pin_dy)
        if not offsets_ok.all():
            p = int(np.argmin(offsets_ok))
            j = int(np.searchsorted(self.net_ptr, p, side="right")) - 1
            raise ValueError(
                f"net {self.net_names[j]!r}: non-finite pin offset "
                f"({float(self.pin_dx[p])!r}, {float(self.pin_dy[p])!r}) "
                f"on cell {self.cell_names[int(cell[p])]!r}"
            )

    def columns(self) -> Dict[str, np.ndarray]:
        """The stored columns as :meth:`from_columns` takes them (the
        netlist's own read-only arrays)."""
        return {
            column: getattr(self, column)
            for column in (*CELL_COLUMNS, *NET_COLUMNS, *PIN_COLUMNS)
        }

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _cell_values(self, i: int) -> dict:
        """The fields of cell *i* as Python values (no index)."""
        return dict(
            name=self.cell_names[i],
            width=float(self.widths[i]),
            height=float(self.heights[i]),
            fixed=bool(self.fixed_mask[i]),
            x=float(self.cell_x[i]) if self.has_x[i] else None,
            y=float(self.cell_y[i]) if self.has_y[i] else None,
            delay=float(self.delays[i]),
            input_cap=float(self.input_caps[i]),
            power=float(self.powers[i]),
        )

    def _cell(self, i: int) -> Cell:
        return Cell._view(
            i,
            kind=CELL_KINDS[self.kinds[i]],
            is_register=bool(self.register_mask[i]),
            **self._cell_values(i),
        )

    def _net(self, j: int) -> Net:
        lo, hi = int(self.net_ptr[j]), int(self.net_ptr[j + 1])
        pins = tuple(
            Pin(cell, PIN_DIRECTIONS[d], dx, dy)
            for cell, d, dx, dy in zip(
                self.pin_cell[lo:hi].tolist(), self.pin_dir[lo:hi].tolist(),
                self.pin_dx[lo:hi].tolist(), self.pin_dy[lo:hi].tolist(),
            )
        )
        return Net._view(j, self.net_names[j], pins, float(self.net_weight[j]))

    @property
    def cells(self) -> "Sequence[Cell]":
        """Read-only :class:`Cell` views, built on access."""
        return _Views(self._cell, len(self.cell_names))

    @property
    def nets(self) -> "Sequence[Net]":
        """Read-only :class:`Net` views, built on access."""
        return _Views(self._net, len(self.net_names))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return len(self.cell_names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_movable(self) -> int:
        return int(self.movable_indices.size)

    @property
    def num_fixed(self) -> int:
        return int(self.fixed_indices.size)

    @property
    def num_pins(self) -> int:
        return int(self.pin_cell.size)

    def kind_mask(self, kind: CellKind) -> np.ndarray:
        """Boolean mask of the cells of *kind*."""
        return self.kinds == CELL_KINDS.index(kind)

    def cell_by_name(self, name: str) -> Cell:
        try:
            return self._cell(self.cell_names.index(name))
        except ValueError:
            raise KeyError(f"no cell named {name!r}") from None

    def net_by_name(self, name: str) -> Net:
        try:
            return self._net(self.net_names.index(name))
        except ValueError:
            raise KeyError(f"no net named {name!r}") from None

    def nets_of_cell(self, cell_index: int) -> List[int]:
        """Indices of nets incident to the cell, once per pin, in net order."""
        if self._cell_nets is None:
            order = np.argsort(self.pin_cell, kind="stable")
            net_of_pin = np.repeat(
                np.arange(self.num_nets, dtype=np.int64), self.net_degree
            )
            ptr = np.searchsorted(
                self.pin_cell[order], np.arange(self.num_cells + 1)
            )
            self._cell_nets = (ptr, net_of_pin[order])
        ptr, nets = self._cell_nets
        return nets[ptr[cell_index]:ptr[cell_index + 1]].tolist()

    def movable_area(self) -> float:
        return float(self.areas[self.movable_mask].sum())

    def total_cell_area(self) -> float:
        return float(self.areas.sum())

    def average_movable_area(self) -> float:
        if self.num_movable == 0:
            raise ValueError("netlist has no movable cells")
        return self.movable_area() / self.num_movable

    def blocks(self) -> List[Cell]:
        return [self._cell(int(i)) for i in np.flatnonzero(self.kind_mask(CellKind.BLOCK))]

    def registers(self) -> List[Cell]:
        return [self._cell(int(i)) for i in np.flatnonzero(self.register_mask)]

    def stats(self) -> Dict[str, float]:
        """Headline structural statistics (matches Table 1's parameters)."""
        degrees = self.net_degree
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


def _check_unique(what: str, names: Sequence[str]) -> None:
    """Raise ``ValueError`` naming the first repeated name, if any."""
    k = first_repeat(names)
    if k is not None:
        raise ValueError(f"duplicate {what} name {names[k]!r}")


class _Views(_Sequence):
    """The cells or nets of a netlist as a sequence of read-only views."""

    __slots__ = ("_view", "_len")

    def __init__(self, view: Callable[[int], object], length: int):
        self._view = view  # a bound method: it keeps the netlist alive
        self._len = length

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._view(i) for i in range(*index.indices(self._len))]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("netlist view index out of range")
        return self._view(i)

    def __iter__(self) -> Iterator:
        return map(self._view, range(self._len))
