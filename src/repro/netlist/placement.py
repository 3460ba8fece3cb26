"""Placement: cell-center coordinates for every cell of a netlist.

The paper's placement vector ``p = (x_1..x_n, y_1..y_n)`` covers movable
cells only; this class stores coordinates for *all* cells (fixed entries are
pinned to the fixed positions) because evaluators and legalizers want a
uniform view.  Conversion to/from the movable-only solver vector happens in
:mod:`repro.core.quadratic`.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

from ..geometry import PlacementRegion, Rect
from .netlist import Netlist


class Placement:
    """Coordinates (cell centers) for every cell of a netlist."""

    def __init__(self, netlist: Netlist, x: np.ndarray, y: np.ndarray):
        if len(x) != netlist.num_cells or len(y) != netlist.num_cells:
            raise ValueError(
                f"coordinate arrays of length {len(x)}/{len(y)} do not match "
                f"{netlist.num_cells} cells"
            )
        self.netlist = netlist
        self.x = np.asarray(x, dtype=np.float64).copy()
        self.y = np.asarray(y, dtype=np.float64).copy()
        self.reset_fixed()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def at_center(cls, netlist: Netlist, region: PlacementRegion) -> "Placement":
        """All movable cells at the region center — the paper's initial state."""
        cx, cy = region.bounds.center
        x = np.full(netlist.num_cells, cx)
        y = np.full(netlist.num_cells, cy)
        return cls(netlist, x, y)

    @classmethod
    def random(
        cls,
        netlist: Netlist,
        region: PlacementRegion,
        rng: np.random.Generator,
    ) -> "Placement":
        """Uniform random placement inside the region (annealer start)."""
        b = region.bounds
        x = rng.uniform(b.xlo, b.xhi, netlist.num_cells)
        y = rng.uniform(b.ylo, b.yhi, netlist.num_cells)
        return cls(netlist, x, y)

    def copy(self) -> "Placement":
        return Placement(self.netlist, self.x, self.y)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def reset_fixed(self) -> None:
        """Re-pin fixed cells to their netlist-declared positions."""
        nl = self.netlist
        if nl.num_fixed:
            self.x[nl.fixed_indices] = nl.fixed_x[nl.fixed_indices]
            self.y[nl.fixed_indices] = nl.fixed_y[nl.fixed_indices]

    # ------------------------------------------------------------------
    # Geometry views
    # ------------------------------------------------------------------
    def lower_left(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower-left corners of all cell footprints."""
        nl = self.netlist
        return (self.x - nl.widths / 2.0, self.y - nl.heights / 2.0)

    def rect_of(self, cell_index: int) -> Rect:
        nl = self.netlist
        return Rect.from_center(
            float(self.x[cell_index]), float(self.y[cell_index]),
            float(nl.widths[cell_index]), float(nl.heights[cell_index]),
        )

    def rects(self, movable_only: bool = False) -> List[Rect]:
        indices = (
            self.netlist.movable_indices
            if movable_only
            else range(self.netlist.num_cells)
        )
        return [self.rect_of(int(i)) for i in indices]

    def pin_coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Absolute coordinates of every pin, in the netlist's pin order."""
        nl = self.netlist
        return self.x[nl.pin_cell] + nl.pin_dx, self.y[nl.pin_cell] + nl.pin_dy

    def pin_positions(self, net_index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Absolute coordinates of every pin of the net."""
        nl = self.netlist
        pins = slice(nl.net_ptr[net_index], nl.net_ptr[net_index + 1])
        cells = nl.pin_cell[pins]
        return self.x[cells] + nl.pin_dx[pins], self.y[cells] + nl.pin_dy[pins]

    # ------------------------------------------------------------------
    # Editing helpers
    # ------------------------------------------------------------------
    def move_to(self, cell_index: int, x: float, y: float) -> None:
        if self.netlist.fixed_mask[cell_index]:
            raise ValueError(
                f"cell {self.netlist.cell_names[cell_index]!r} is fixed"
            )
        self.x[cell_index] = x
        self.y[cell_index] = y

    def clamp_to_region(self, region: PlacementRegion) -> None:
        """Pull movable cell footprints inside the region (centers clamped)."""
        nl = self.netlist
        b = region.bounds
        half_w = nl.widths / 2.0
        half_h = nl.heights / 2.0
        m = nl.movable_mask
        lo_x = np.minimum(b.xlo + half_w, b.xhi - half_w)
        hi_x = np.maximum(b.xlo + half_w, b.xhi - half_w)
        lo_y = np.minimum(b.ylo + half_h, b.yhi - half_h)
        hi_y = np.maximum(b.ylo + half_h, b.yhi - half_h)
        self.x[m] = np.clip(self.x[m], lo_x[m], hi_x[m])
        self.y[m] = np.clip(self.y[m], lo_y[m], hi_y[m])

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def displacement_from(self, other: "Placement") -> np.ndarray:
        """Per-cell Euclidean displacement to another placement."""
        if other.netlist.num_cells != self.netlist.num_cells:
            raise ValueError("placements have different cell counts")
        return np.hypot(self.x - other.x, self.y - other.y)

    def max_displacement_from(self, other: "Placement") -> float:
        d = self.displacement_from(other)
        return float(d.max()) if d.size else 0.0

    def mean_displacement_from(self, other: "Placement") -> float:
        d = self.displacement_from(other)
        return float(d.mean()) if d.size else 0.0

    def __repr__(self) -> str:
        return f"Placement({self.netlist.name!r}, cells={self.netlist.num_cells})"


def placement_hash(placement: Placement) -> str:
    """SHA-256 over the raw float64 coordinate bytes — bit-exact identity."""
    digest = hashlib.sha256()
    digest.update(placement.x.astype("<f8", copy=False).tobytes())
    digest.update(placement.y.astype("<f8", copy=False).tobytes())
    return digest.hexdigest()
