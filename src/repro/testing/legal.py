"""Shared legality oracle for every legalizer.

One vectorized :func:`assert_legal` that the unit suite, the randomized
property suite and the cross-check tests all call, so "legal" means exactly
one thing everywhere:

- **no overlaps** between movable standard cells (checked row by row on the
  sorted order — O(n log n), so the oracle scales to 100k-cell instances),
- **in region**: every movable cell rect inside the region bounds,
- **row alignment**: every movable standard cell's center y on a row
  center (the repo's rows carry no site grid, so x is continuous;
  ``site_width`` opts into an x-grid check for flows that snap to sites),
- **obstacles avoided** when given,
- **fixed cells untouched** relative to a reference placement.

Checks raise ``AssertionError`` with a message naming the first offending
cell, so property-suite failures are directly actionable.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..geometry import PlacementRegion, Rect
from ..netlist import CellKind, Placement

#: Overlap / containment tolerance in um.  Improvement passes move cells by
#: exact arithmetic but repack edges via sums of widths, so adjacent cells
#: can interpenetrate by a few ULPs; anything past this is a real overlap.
TOL = 1e-6


def _movable_std(placement: Placement) -> np.ndarray:
    nl = placement.netlist
    movable = nl.movable_indices
    if not movable.size:
        return movable
    return movable[~nl.kind_mask(CellKind.BLOCK)[movable]]


def assert_legal(
    placement: Placement,
    region: PlacementRegion,
    obstacles: Sequence[Rect] = (),
    reference: Optional[Placement] = None,
    site_width: Optional[float] = None,
) -> None:
    """Assert that *placement* is a legal row placement.

    *reference* (usually the pre-legalization placement) enables the
    fixed-cells-untouched check.  *site_width* additionally requires every
    movable cell's left edge to sit on that x grid.
    """
    nl = placement.netlist
    std = _movable_std(placement)
    if np.any(~np.isfinite(placement.x)) or np.any(~np.isfinite(placement.y)):
        raise AssertionError("non-finite coordinates in placement")

    # Fixed cells untouched.
    if reference is not None:
        fixed = nl.fixed_indices
        if fixed.size:
            dx = placement.x[fixed] - reference.x[fixed]
            dy = placement.y[fixed] - reference.y[fixed]
            bad = np.flatnonzero((dx != 0.0) | (dy != 0.0))
            if bad.size:
                i = int(fixed[bad[0]])
                raise AssertionError(
                    f"fixed cell {nl.cells[i].name} moved by "
                    f"({float(dx[bad[0]])}, {float(dy[bad[0]])})"
                )

    if not std.size:
        return

    x = placement.x[std]
    y = placement.y[std]
    w = nl.widths[std]
    h = nl.heights[std]

    # In region.
    b = region.bounds
    out = (
        (x - w / 2.0 < b.xlo - TOL)
        | (x + w / 2.0 > b.xhi + TOL)
        | (y - h / 2.0 < b.ylo - TOL)
        | (y + h / 2.0 > b.yhi + TOL)
    )
    bad = np.flatnonzero(out)
    if bad.size:
        i = int(std[bad[0]])
        raise AssertionError(
            f"cell {nl.cells[i].name} outside region: "
            f"({placement.x[i]}, {placement.y[i]})"
        )

    # Row alignment: each center y must be (almost exactly) a row center.
    row_ys = np.array(sorted({row.center_y for row in region.rows}))
    if not row_ys.size:
        raise AssertionError("region has no rows")
    nearest = row_ys[
        np.clip(np.searchsorted(row_ys, y), 0, len(row_ys) - 1)
    ]
    lower = row_ys[np.clip(np.searchsorted(row_ys, y) - 1, 0, len(row_ys) - 1)]
    off_row = np.minimum(np.abs(y - nearest), np.abs(y - lower)) > TOL
    bad = np.flatnonzero(off_row)
    if bad.size:
        i = int(std[bad[0]])
        raise AssertionError(
            f"cell {nl.cells[i].name} not on a row: y={placement.y[i]}"
        )

    if site_width is not None:
        left = x - w / 2.0
        frac = np.abs(
            left - np.round((left - b.xlo) / site_width) * site_width - b.xlo
        )
        bad = np.flatnonzero(frac > TOL)
        if bad.size:
            i = int(std[bad[0]])
            raise AssertionError(
                f"cell {nl.cells[i].name} off the site grid: "
                f"left edge {float(left[bad[0]])}"
            )

    # No overlaps within a row: sort by (row, left edge) and require each
    # cell's left edge at or beyond its predecessor's right edge.
    order = np.lexsort((x - w / 2.0, np.round(y, 6)))
    xs = (x - w / 2.0)[order]
    xe = (x + w / 2.0)[order]
    ys = np.round(y, 6)[order]
    same_row = ys[1:] == ys[:-1]
    overlap = same_row & (xs[1:] < xe[:-1] - TOL)
    bad = np.flatnonzero(overlap)
    if bad.size:
        a = int(std[order[bad[0]]])
        c = int(std[order[bad[0] + 1]])
        raise AssertionError(
            f"cells {nl.cells[a].name} and {nl.cells[c].name} overlap by "
            f"{float(xe[:-1][bad[0]] - xs[1:][bad[0]])} um in row "
            f"y={float(ys[bad[0]])}"
        )

    # Obstacles (and movable blocks treated as placed rects by callers).
    for obs in obstacles:
        hit = (
            (x - w / 2.0 < obs.xhi - TOL)
            & (x + w / 2.0 > obs.xlo + TOL)
            & (y - h / 2.0 < obs.yhi - TOL)
            & (y + h / 2.0 > obs.ylo + TOL)
        )
        bad = np.flatnonzero(hit)
        if bad.size:
            i = int(std[bad[0]])
            raise AssertionError(
                f"cell {nl.cells[i].name} overlaps obstacle {obs}"
            )


__all__ = ["assert_legal", "TOL"]
