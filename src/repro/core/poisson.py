"""Poisson-derived force fields (Section 3.3, Eq. 7-9).

Requirements 1-4 of the paper determine the additional force uniquely as the
field of the density "charge" distribution:

    f(r) = (k / 2π) ∬ D(r') (r - r') / |r - r'|²  dr'        (Eq. 9)

On the density grid this integral becomes a discrete convolution of the bin
masses ``D`` with the kernel ``g(v) = v / |v|²`` (zero at the origin).  The
fourth requirement (forces vanish at infinity) makes this the free-space
field, which one engine evaluates:

* :class:`PoissonSolver` — cached spectral kernels, O(N log N).  The kernel
  depends only on the grid geometry, so its forward transforms are computed
  once per grid and every field evaluation is one forward FFT plus two
  pointwise-multiply/inverse passes.
* :func:`force_field_fft` — convenience wrapper over a small solver cache,
  the entry point for ad-hoc calls.

The literal O(N²) double sum the FFT path is tested against lives in
:mod:`repro.testing.oracles`.

The solver accepts an optional array :class:`~repro.backend.Backend`;
inputs are uploaded with ``asarray`` and results returned as numpy via
``to_numpy``, so :class:`ForceField` always holds host arrays regardless of
where the transforms ran.

The returned field is *unscaled* (``k = 1``); the placer rescales it so the
strongest per-cell force matches ``K (W + H)`` (Section 4.1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import fft as _fft

from ..backend import NUMPY, Backend
from ..geometry import Grid
from .density import DensityResult

_TWO_PI = 2.0 * np.pi


def _kernel_grids(grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """The x- and y-kernels sampled at all bin-center offset vectors."""
    off_x = grid.dx * np.arange(-(grid.nx - 1), grid.nx)
    off_y = grid.dy * np.arange(-(grid.ny - 1), grid.ny)
    vx, vy = np.meshgrid(off_x, off_y)
    r2 = vx * vx + vy * vy
    with np.errstate(divide="ignore", invalid="ignore"):
        gx = np.where(r2 > 0.0, vx / r2, 0.0)
        gy = np.where(r2 > 0.0, vy / r2, 0.0)
    return gx, gy


@dataclass
class ForceField:
    """Force vectors sampled at the bin centers of *grid* (host arrays)."""

    grid: Grid
    fx: np.ndarray
    fy: np.ndarray

    def sample(
        self,
        x: np.ndarray,
        y: np.ndarray,
        backend: Optional[Backend] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bilinearly interpolated force at arbitrary points (clamped)."""
        return (
            bilinear_sample(self.grid, self.fx, x, y, backend=backend),
            bilinear_sample(self.grid, self.fy, x, y, backend=backend),
        )

    def max_magnitude(self) -> float:
        return float(np.sqrt(self.fx * self.fx + self.fy * self.fy).max())


class PoissonSolver:
    """Spectral evaluator of Eq. 9 with precomputed kernel transforms.

    The convolution kernels ``g(v) = v / |v|²`` sampled at all bin-center
    offsets are position-independent: they depend only on the grid's bin
    counts and bin sizes.  Transforming them is the expensive half of the
    FFT convolution, so this solver does it once in the constructor; each
    :meth:`field` call then costs one forward transform of the density,
    two pointwise multiplies and two inverse transforms.
    """

    def __init__(self, grid: Grid, backend: Optional[Backend] = None):
        self.grid = grid
        self.backend = backend if backend is not None else NUMPY
        bk = self.backend
        gx, gy = _kernel_grids(grid)
        ny, nx = grid.shape
        # Linear (zero-padded) convolution size, rounded up to FFT-friendly
        # lengths; the pad beyond the exact size only grows the zero region.
        full = (ny + gx.shape[0] - 1, nx + gx.shape[1] - 1)
        self._fshape = tuple(_fft.next_fast_len(s, real=True) for s in full)
        self._gx_hat = bk.rfft2(bk.asarray(gx), self._fshape)
        self._gy_hat = bk.rfft2(bk.asarray(gy), self._fshape)
        # "same"-mode window of the full convolution: centered, density-sized.
        self._win = (slice(ny - 1, 2 * ny - 1), slice(nx - 1, 2 * nx - 1))

    def compatible_with(self, grid: Grid) -> bool:
        """Whether the cached kernels apply to *grid* (same bin geometry)."""
        g = self.grid
        return (
            grid.nx == g.nx and grid.ny == g.ny
            and grid.dx == g.dx and grid.dy == g.dy
        )

    def _check(self, grid: Grid) -> None:
        if not self.compatible_with(grid):
            raise ValueError(
                f"solver built for {self.grid.shape} bins of "
                f"({self.grid.dx}, {self.grid.dy}) cannot evaluate a "
                f"{grid.shape} grid"
            )

    def field(self, density: DensityResult) -> ForceField:
        """The force field of *density* using the cached kernel transforms."""
        self._check(density.grid)
        bk = self.backend
        d_hat = bk.rfft2(bk.asarray(density.density), self._fshape)
        fx = bk.irfft2(d_hat * self._gx_hat, self._fshape)
        fy = bk.irfft2(d_hat * self._gy_hat, self._fshape)
        win = self._win
        return ForceField(
            grid=density.grid,
            fx=np.ascontiguousarray(bk.to_numpy(fx[win] / _TWO_PI)),
            fy=np.ascontiguousarray(bk.to_numpy(fy[win] / _TWO_PI)),
        )


#: Small keep-alive cache so ad-hoc calls (tests, analysis scripts) also
#: reuse spectral plans.  Keyed by the bin geometry the plans depend on and
#: the backend; bounded so sweeps over many grid resolutions cannot hoard
#: memory.
_SOLVER_CACHE: "OrderedDict[tuple, PoissonSolver]" = OrderedDict()
_SOLVER_CACHE_SIZE = 8


def solver_for_grid(
    grid: Grid, backend: Optional[Backend] = None
) -> PoissonSolver:
    """A spectral solver for *grid*, reused across equal geometries.

    The cache key includes the backend name, so mixed-device callers never
    share plans that live on different devices.
    """
    bk = backend if backend is not None else NUMPY
    key = (grid.nx, grid.ny, grid.dx, grid.dy, bk.name)
    solver = _SOLVER_CACHE.get(key)
    if solver is None:
        solver = PoissonSolver(grid, backend=bk)
        _SOLVER_CACHE[key] = solver
        while len(_SOLVER_CACHE) > _SOLVER_CACHE_SIZE:
            _SOLVER_CACHE.popitem(last=False)
    else:
        _SOLVER_CACHE.move_to_end(key)
    return solver


def force_field_fft(
    density: DensityResult, backend: Optional[Backend] = None
) -> ForceField:
    """FFT evaluation of Eq. 9 over the whole grid (cached kernels)."""
    return solver_for_grid(density.grid, backend).field(density)


def bilinear_sample(
    grid: Grid,
    field: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    backend: Optional[Backend] = None,
) -> np.ndarray:
    """Bilinear interpolation of a bin-center field at points (clamped)."""
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} does not match grid {grid.shape}")
    bk = backend if backend is not None else NUMPY
    f = bk.asarray(field)
    gx = (bk.asarray(x) - grid.bounds.xlo) / grid.dx - 0.5
    gy = (bk.asarray(y) - grid.bounds.ylo) / grid.dy - 0.5
    gx = bk.clip(gx, 0.0, grid.nx - 1.0)
    gy = bk.clip(gy, 0.0, grid.ny - 1.0)
    if grid.nx > 1:
        ix0 = bk.clamp_max_int(bk.trunc_int(gx), grid.nx - 2)
        tx = gx - ix0
    else:
        ix0 = bk.trunc_int(bk.zeros(np.shape(gx)))
        tx = bk.zeros(np.shape(gx))
    if grid.ny > 1:
        iy0 = bk.clamp_max_int(bk.trunc_int(gy), grid.ny - 2)
        ty = gy - iy0
    else:
        iy0 = bk.trunc_int(bk.zeros(np.shape(gy)))
        ty = bk.zeros(np.shape(gy))
    ix1 = bk.clamp_max_int(ix0 + 1, grid.nx - 1)
    iy1 = bk.clamp_max_int(iy0 + 1, grid.ny - 1)
    out = (
        f[iy0, ix0] * (1 - tx) * (1 - ty)
        + f[iy0, ix1] * tx * (1 - ty)
        + f[iy1, ix0] * (1 - tx) * ty
        + f[iy1, ix1] * tx * ty
    )
    return bk.to_numpy(out)


def divergence(field: ForceField) -> np.ndarray:
    """Discrete divergence of the field (central differences, interior bins).

    For the exact continuum field, ``div f = k D`` (that is Poisson's
    equation); tests use this to check the field against its source.
    """
    dfx = np.gradient(field.fx, field.grid.dx, axis=1)
    dfy = np.gradient(field.fy, field.grid.dy, axis=0)
    return dfx + dfy


def curl(field: ForceField) -> np.ndarray:
    """Discrete curl (z-component).  Requirement 3: the field is curl-free."""
    dfy_dx = np.gradient(field.fy, field.grid.dx, axis=1)
    dfx_dy = np.gradient(field.fx, field.grid.dy, axis=0)
    return dfy_dx - dfx_dy
