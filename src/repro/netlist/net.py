"""Nets and pins.

A net is a hyperedge over cell pins.  The quadratic engine expands each net
into a clique (Section 2.1 of the paper: a ``k``-pin net becomes
``k(k-1)/2`` edges of weight ``1/k``) or, for very large nets, into a star
with an auxiliary movable vertex — see :mod:`repro.core.quadratic`.

Pins carry offsets from the owning cell's center so pin-accurate wire-length
evaluation is possible; the paper's model connects cell centers, which is the
default offset of ``(0, 0)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


class PinDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


#: Pin directions by storage code: a netlist keeps ``pin_dir`` as indices
#: into this tuple, so ``pin_dir == 1`` marks the driving pins.
PIN_DIRECTIONS = (PinDirection.INPUT, PinDirection.OUTPUT)


def check_net(name: str, num_pins: int, weight: float, num_drivers: int) -> None:
    """Raise ``ValueError`` unless the values describe a valid net: at
    least one pin, a finite positive weight and at most one driver."""
    if num_pins < 1:
        raise ValueError(f"net {name!r} has no pins")
    # NaN compares False with everything: "weight <= 0" lets it pass.
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError(
            f"net {name!r} needs a finite, positive weight, got {weight!r}"
        )
    if num_drivers > 1:
        raise ValueError(f"net {name!r} has multiple drivers")


@dataclass(frozen=True)
class Pin:
    """A connection point of a net on a cell.

    ``dx``/``dy`` are offsets of the pin from the cell center, in microns.
    """

    cell: int  # index of the cell in the netlist
    direction: PinDirection = PinDirection.INPUT
    dx: float = 0.0
    dy: float = 0.0


@dataclass
class Net:
    """One hyperedge.

    Like :class:`~repro.netlist.cell.Cell`, a net read from a netlist is a
    read-only view built on access, with its pins as a tuple; a net built
    by its constructor is a plain record.

    Attributes
    ----------
    name:
        Unique identifier.
    pins:
        The connected pins.  By convention a net has at most one OUTPUT pin,
        which drives the net (needed for timing analysis); purely structural
        netlists may omit directions entirely.
    weight:
        Static user weight; placement-time timing weights are maintained
        *outside* the netlist (in :class:`~repro.timing.weights.NetWeights`)
        so a netlist is immutable during a placement run.
    index:
        Position in the owning netlist, ``-1`` for a net that belongs to
        none.
    """

    name: str
    pins: Sequence[Pin]
    weight: float = 1.0
    index: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        check_net(self.name, len(self.pins), self.weight, len(self.driver_pins()))

    @classmethod
    def _view(
        cls, index: int, name: str, pins: Tuple[Pin, ...], weight: float
    ) -> "Net":
        """A read-only net over values a netlist or builder holds."""
        view = object.__new__(cls)
        view.__dict__.update(
            name=name, pins=pins, weight=weight, index=index, _read_only=True
        )
        return view

    def __setattr__(self, name: str, value) -> None:
        if "_read_only" in self.__dict__:
            raise AttributeError(
                f"net {self.name!r} is a read-only view of its netlist; "
                "derive a modified design with NetlistBuilder or repro.eco"
            )
        object.__setattr__(self, name, value)

    @property
    def degree(self) -> int:
        return len(self.pins)

    def cells(self) -> List[int]:
        """Indices of connected cells (with multiplicity)."""
        return [pin.cell for pin in self.pins]

    def driver_pins(self) -> List[Pin]:
        return [p for p in self.pins if p.direction is PinDirection.OUTPUT]

    @property
    def driver(self) -> Optional[Pin]:
        """The driving (output) pin, or ``None`` for undirected nets."""
        drivers = self.driver_pins()
        return drivers[0] if drivers else None

    @property
    def sinks(self) -> Sequence[Pin]:
        return [p for p in self.pins if p.direction is PinDirection.INPUT]
