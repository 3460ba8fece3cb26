"""Rectangular bin grid used for density maps and emptiness queries.

The density model of the paper (Eq. 4) is continuous; we discretize it on a
uniform grid of bins.  Each cell contributes its *exact* overlap area to every
bin it touches (fractional coverage, not center-point snapping), so the
discrete density converges to the continuous one as the grid is refined.

The grid also answers the paper's stopping-criterion query: *the largest empty
square inside the placement area* (Section 4.2: iteration stops once no empty
square larger than four times the average cell area remains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .rect import Rect


@dataclass(frozen=True)
class Grid:
    """A uniform ``ny x nx`` grid of bins over a rectangle.

    Arrays indexed by this grid use the ``[iy, ix]`` (row-major, y first)
    convention so they print the way a floorplan reads.
    """

    bounds: Rect
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(f"grid needs positive bin counts, got {self.nx} x {self.ny}")
        if self.bounds.is_empty():
            raise ValueError("grid over an empty rectangle")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def square_bins(cls, bounds: Rect, target_bin: float) -> "Grid":
        """Grid whose bins are approximately *target_bin* wide squares."""
        if target_bin <= 0:
            raise ValueError("target_bin must be positive")
        nx = max(1, int(round(bounds.width / target_bin)))
        ny = max(1, int(round(bounds.height / target_bin)))
        return cls(bounds, nx, ny)

    # ------------------------------------------------------------------
    # Bin geometry
    # ------------------------------------------------------------------
    @property
    def dx(self) -> float:
        return self.bounds.width / self.nx

    @property
    def dy(self) -> float:
        return self.bounds.height / self.ny

    @property
    def bin_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.ny, self.nx)

    def x_edges(self) -> np.ndarray:
        return self.bounds.xlo + self.dx * np.arange(self.nx + 1)

    def x_centers(self) -> np.ndarray:
        return self.bounds.xlo + self.dx * (np.arange(self.nx) + 0.5)

    def y_centers(self) -> np.ndarray:
        return self.bounds.ylo + self.dy * (np.arange(self.ny) + 0.5)

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=np.float64)

    def bin_of(self, x: float, y: float) -> Tuple[int, int]:
        """``(iy, ix)`` of the bin containing the point, clamped to the grid."""
        ix = int(np.clip((x - self.bounds.xlo) / self.dx, 0, self.nx - 1))
        iy = int(np.clip((y - self.bounds.ylo) / self.dy, 0, self.ny - 1))
        return (iy, ix)

    def bin_rect(self, iy: int, ix: int) -> Rect:
        return Rect(
            self.bounds.xlo + ix * self.dx,
            self.bounds.ylo + iy * self.dy,
            self.dx,
            self.dy,
        )

    # ------------------------------------------------------------------
    # Rasterization
    # ------------------------------------------------------------------
    def coverage_1d(
        self, lo: float, hi: float, axis: str
    ) -> Tuple[int, np.ndarray]:
        """Per-bin overlap lengths of the interval ``[lo, hi]`` along *axis*.

        Returns ``(first_index, lengths)`` where ``lengths[k]`` is the overlap
        of the interval with bin ``first_index + k``.  The interval is clipped
        to the grid; an interval fully outside yields an empty array.
        """
        if axis == "x":
            origin, step, count = self.bounds.xlo, self.dx, self.nx
        elif axis == "y":
            origin, step, count = self.bounds.ylo, self.dy, self.ny
        else:
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        lo = max(lo, origin)
        hi = min(hi, origin + step * count)
        if hi <= lo:
            return (0, np.zeros(0))
        i0 = int((lo - origin) / step)
        i1 = int(np.ceil((hi - origin) / step))
        i0 = min(max(i0, 0), count - 1)
        i1 = min(max(i1, i0 + 1), count)
        edges = origin + step * np.arange(i0, i1 + 1)
        lengths = np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo)
        return (i0, np.maximum(lengths, 0.0))

    def add_rect(self, array: np.ndarray, rect: Rect, scale: float = 1.0) -> None:
        """Add ``scale`` times the rect's per-bin overlap *area* into *array*."""
        ix0, wx = self.coverage_1d(rect.xlo, rect.xhi, "x")
        iy0, wy = self.coverage_1d(rect.ylo, rect.yhi, "y")
        if wx.size == 0 or wy.size == 0:
            return
        array[iy0 : iy0 + wy.size, ix0 : ix0 + wx.size] += scale * np.outer(wy, wx)

    def paint_rects(
        self,
        xlo: np.ndarray,
        ylo: np.ndarray,
        widths: np.ndarray,
        heights: np.ndarray,
        weights: Optional[np.ndarray] = None,
        max_span: int = 16,
    ) -> np.ndarray:
        """Area map of many rectangles given by corner/size arrays.

        ``weights`` scales each rectangle's contribution (default 1: plain
        area).  Shapes of all inputs must match.

        Rectangles spanning at most ``max_span`` bins per axis are
        rasterized in one vectorized pass (separable fractional coverage
        scattered with ``bincount``); wider ones — rare macros and pads —
        fall back to the per-rect path, so the cost stays proportional to
        touched bins either way.
        """
        out = self.zeros()
        xlo = np.asarray(xlo, dtype=np.float64)
        ylo = np.asarray(ylo, dtype=np.float64)
        widths = np.asarray(widths, dtype=np.float64)
        heights = np.asarray(heights, dtype=np.float64)
        n = xlo.size
        if n == 0:
            return out
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
        b = self.bounds
        x0 = np.maximum(xlo, b.xlo)
        x1 = np.minimum(xlo + widths, b.xhi)
        y0 = np.maximum(ylo, b.ylo)
        y1 = np.minimum(ylo + heights, b.yhi)
        valid = (x1 > x0) & (y1 > y0)
        ix0 = np.clip(((x0 - b.xlo) / self.dx).astype(np.int64), 0, self.nx - 1)
        iy0 = np.clip(((y0 - b.ylo) / self.dy).astype(np.int64), 0, self.ny - 1)
        ix1 = np.clip(
            np.ceil((x1 - b.xlo) / self.dx).astype(np.int64), ix0 + 1, self.nx
        )
        iy1 = np.clip(
            np.ceil((y1 - b.ylo) / self.dy).astype(np.int64), iy0 + 1, self.ny
        )
        span_x = ix1 - ix0
        span_y = iy1 - iy0
        bulk = valid & (span_x <= max_span) & (span_y <= max_span)
        for i in np.flatnonzero(valid & ~bulk):
            self.add_rect(
                out,
                Rect(float(xlo[i]), float(ylo[i]), float(widths[i]), float(heights[i])),
                float(w[i]),
            )
        sel = np.flatnonzero(bulk)
        if sel.size == 0:
            return out
        ux = int(span_x[sel].max())
        uy = int(span_y[sel].max())
        # Separable per-bin coverage: edges are computed unclamped so bins
        # past a rect's span get exactly zero length, which lets the bin
        # indices be clamped into range without adding spurious area.
        ex = b.xlo + self.dx * (ix0[sel, None] + np.arange(ux + 1)[None, :])
        ey = b.ylo + self.dy * (iy0[sel, None] + np.arange(uy + 1)[None, :])
        cov_x = np.maximum(
            np.minimum(x1[sel, None], ex[:, 1:]) - np.maximum(x0[sel, None], ex[:, :-1]),
            0.0,
        )
        cov_y = np.maximum(
            np.minimum(y1[sel, None], ey[:, 1:]) - np.maximum(y0[sel, None], ey[:, :-1]),
            0.0,
        )
        contrib = w[sel, None, None] * cov_y[:, :, None] * cov_x[:, None, :]
        bx = np.minimum(ix0[sel, None] + np.arange(ux)[None, :], self.nx - 1)
        by = np.minimum(iy0[sel, None] + np.arange(uy)[None, :], self.ny - 1)
        flat = (by[:, :, None] * self.nx + bx[:, None, :]).ravel()
        out += np.bincount(
            flat, weights=contrib.ravel(), minlength=self.nx * self.ny
        ).reshape(self.shape)
        return out


def summed_area_table(array: np.ndarray) -> np.ndarray:
    """Inclusive 2-D prefix sums with a zero border row/column prepended."""
    sat = np.zeros((array.shape[0] + 1, array.shape[1] + 1), dtype=np.float64)
    np.cumsum(array, axis=0, out=sat[1:, 1:])
    np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
    return sat


def window_sums(sat: np.ndarray, k: int) -> np.ndarray:
    """Sums of all ``k x k`` windows given a summed-area table."""
    if k <= 0:
        raise ValueError("window size must be positive")
    ny, nx = sat.shape[0] - 1, sat.shape[1] - 1
    if k > ny or k > nx:
        return np.zeros((0, 0))
    return (
        sat[k:, k:]
        - sat[:-k, k:]
        - sat[k:, :-k]
        + sat[:-k, :-k]
    )


def largest_empty_square_side(
    occupancy: np.ndarray, bin_side: float, tol_area: float = 0.0
) -> float:
    """Side length (in model units) of the largest empty square window.

    ``occupancy`` holds covered area per bin on a grid of *square* bins of
    side ``bin_side``.  A ``k x k`` bin window counts as empty when its total
    covered area is at most ``tol_area``.  Binary-searches the largest such
    ``k`` (window emptiness is monotone in ``k``) and returns ``k*bin_side``.
    """
    sat = summed_area_table(occupancy)
    max_k = min(occupancy.shape)

    def window_is_empty(k: int) -> bool:
        sums = window_sums(sat, k)
        return sums.size > 0 and bool((sums <= tol_area).any())

    if max_k == 0 or not window_is_empty(1):
        return 0.0
    lo, hi = 1, max_k
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if window_is_empty(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo * bin_side
