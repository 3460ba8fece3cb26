"""Poisson-derived force fields (Section 3.3, Eq. 7-9).

Requirements 1-4 of the paper determine the additional force uniquely as the
field of the density "charge" distribution:

    f(r) = (k / 2π) ∬ D(r') (r - r') / |r - r'|²  dr'        (Eq. 9)

On the density grid this integral becomes a discrete convolution of the bin
masses ``D`` with the kernel ``g(v) = v / |v|²`` (zero at the origin).  Three
evaluators are provided:

* :class:`PoissonSolver` — cached spectral kernels, O(N log N); the
  production path.  The kernel depends only on the grid geometry, so its
  forward transforms are computed once per grid and every field evaluation
  is one forward FFT plus one batched pointwise-multiply/inverse pass.
* :class:`DctPoissonSolver` — reduced real-to-real transform solve of the
  equivalent Poisson problem with Neumann (reflecting) boundary conditions,
  the formulation used by ePlace-family placers.  Opt in with
  ``spectral_mode="dct"``; fields differ from the free-space convolution
  near the region boundary (mirror charges) but satisfy the same interior
  physics (curl-free, ``div f = D``).
* :func:`force_field_fft` — convenience wrapper over a small solver cache.
* :func:`force_field_direct` — literal double sum, O(N²); the reference the
  FFT path is tested against.  :func:`force_field_dct_direct` is the
  matching dense oracle for the DCT mode: it evaluates the same cosine/sine
  series by explicit matrix products, so the fast path must match it to
  round-off on every backend.

All evaluators accept an optional array :class:`~repro.backend.Backend`;
inputs are uploaded with ``asarray`` and results returned as numpy via
``to_numpy``, so :class:`ForceField` always holds host arrays regardless of
where the transforms ran.

The returned field is *unscaled* (``k = 1``); the placer rescales it so the
strongest per-cell force matches ``K (W + H)`` (Section 4.1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import fft as _fft

from ..backend import NUMPY, Backend
from ..geometry import Grid
from ..observability import NULL_TELEMETRY
from .density import DensityResult

_TWO_PI = 2.0 * np.pi

#: Spectral formulations accepted by :func:`solver_for_grid`.
SPECTRAL_MODES = ("fft", "dct")


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
    two pointwise multiplies and two inverse transforms.  Batch callers
    (:meth:`field_many`) instead ride all spectra through one stacked
    ``irfftn`` — bit-identical to the separate inverse transforms on the
    numpy backend, and amortized over the whole batch.
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

    def _field_arrays(self, batch):
        """Stacked ``(fx, fy)`` of a ``(..., ny, nx)`` density batch.

        Only :meth:`field_many` pays the spectrum concat — it amortizes
        over the whole batch.  The single-density :meth:`field` path runs
        two direct inverse transforms instead, which measures ~2x faster
        per call (no concat copy, better single-plan FFTs).
        """
        bk = self.backend
        d_hat = bk.rfft2(batch, self._fshape)
        spec = bk.concat(
            [(d_hat * self._gx_hat)[None], (d_hat * self._gy_hat)[None]],
            axis=0,
        )
        return bk.irfft2(spec, self._fshape)

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

    def field_many(self, densities: Sequence[DensityResult]) -> List[ForceField]:
        """Fields for several same-grid densities in one batched transform.

        Sweep and batch jobs that share a grid amortize both the kernel
        plan *and* the per-call transform overhead: all ``B`` densities go
        through a single forward ``rfftn`` and a single inverse over the
        ``2B`` product spectra.
        """
        if not densities:
            return []
        for d in densities:
            self._check(d.grid)
        bk = self.backend
        batch = bk.asarray(np.stack([d.density for d in densities], axis=0))
        f = self._field_arrays(batch)
        n = len(densities)
        win = (slice(None),) + self._win
        fxs = bk.to_numpy(f[0][win] / _TWO_PI)
        fys = bk.to_numpy(f[1][win] / _TWO_PI)
        return [
            ForceField(
                grid=d.grid,
                fx=np.ascontiguousarray(fxs[i]),
                fy=np.ascontiguousarray(fys[i]),
            )
            for i, d in enumerate(densities)
        ]


class DctPoissonSolver:
    """Poisson force field via real-to-real (DCT-II / DST) transforms.

    Solves ``∇²ψ = -ρ`` on the placement region with homogeneous Neumann
    boundary conditions by expanding the bin-sampled density in the
    half-sample cosine basis ``cos(w_u x̃) cos(w_v ỹ)`` with
    ``w_u = πu / W`` and ``x̃`` measured from the region corner.  The
    forces are then the term-wise scaled series

        f_x = Σ ρ_vu · w_u / (w_u² + w_v²) · sin(w_u x̃) cos(w_v ỹ)

    (and symmetrically for ``f_y``), evaluated at the bin centers with two
    cosine transforms in and two synthesis transforms out per component —
    all O(N log N) real-to-real transforms, no zero padding.  ``ρ`` is the
    bin density per unit area (the stored grid masses divided by the bin
    area), which puts the interior field on the same scale as the
    free-space evaluators.  The sine synthesis reuses the cosine transform
    through the reversal identity

        Σ_{u≥1} b_u sin(πu(2n+1)/2N) = (-1)ⁿ Σ_k b_{N-k} cos(πk(2n+1)/2N)

    so only a DCT/IDCT pair is needed from the backend (torch gets the
    generic FFT-based Makhoul transforms).

    The constructor precomputes every frequency-domain multiplier for the
    grid geometry; :func:`solver_for_grid` caches instances per
    ``(geometry, mode, backend)`` so repeated evaluations — and batch jobs
    sharing a grid — pay the planning cost once.

    Relative to :class:`PoissonSolver` (free-space convolution), the
    Neumann walls act as mirror charges: fields agree in the interior but
    diverge near the region boundary, and the zero-frequency (DC) term is
    dropped because a uniform density exerts no net force.  The fast path
    is pinned against :func:`force_field_dct_direct`, a dense evaluation of
    the identical series.
    """

    def __init__(self, grid: Grid, backend: Optional[Backend] = None):
        self.grid = grid
        self.backend = backend if backend is not None else NUMPY
        bk = self.backend
        ny, nx = grid.shape
        mul_x, mul_y = _dct_multipliers(grid)
        self._mul_x = bk.asarray(mul_x)
        self._mul_y = bk.asarray(mul_y)
        u = np.arange(nx)
        v = np.arange(ny)
        self._sign_x = bk.asarray(np.where(u % 2 == 0, 1.0, -1.0))
        self._sign_y = bk.asarray(np.where(v % 2 == 0, 1.0, -1.0)[:, None])
        # Pre-scaled synthesis weights: idct2 of (s · g) evaluates
        # Σ_k g_k cos(πk(2n+1)/2N) when s_0 = 2N and s_k = N.
        cs_x = np.full(nx, float(nx))
        cs_x[0] = 2.0 * nx
        cs_y = np.full(ny, float(ny))
        cs_y[0] = 2.0 * ny
        self._cos_scale_x = bk.asarray(cs_x)
        self._cos_scale_y = bk.asarray(cs_y[:, None])

    def compatible_with(self, grid: Grid) -> bool:
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

    # -- separable synthesis (all support a leading batch axis) ---------
    def _cos_x(self, g):
        return self.backend.idct2(g * self._cos_scale_x, -1)

    def _cos_y(self, g):
        return self.backend.idct2(g * self._cos_scale_y, -2)

    def _sin_x(self, g):
        bk = self.backend
        zeros = bk.zeros(tuple(g.shape[:-1]) + (1,))
        rev = bk.concat([zeros, bk.flip(g[..., 1:], -1)], axis=-1)
        return self._sign_x * self._cos_x(rev)

    def _sin_y(self, g):
        bk = self.backend
        zeros = bk.zeros(tuple(g.shape[:-2]) + (1, g.shape[-1]))
        rev = bk.concat([zeros, bk.flip(g[..., 1:, :], -2)], axis=-2)
        return self._sign_y * self._cos_y(rev)

    def _field_arrays(self, batch):
        bk = self.backend
        a = bk.dct2(bk.dct2(batch, -2), -1)
        fx = self._sin_x(self._cos_y(a * self._mul_x))
        fy = self._cos_x(self._sin_y(a * self._mul_y))
        return fx, fy

    def field(self, density: DensityResult) -> ForceField:
        """The Neumann-BC force field of *density* at the bin centers."""
        self._check(density.grid)
        bk = self.backend
        fx, fy = self._field_arrays(bk.asarray(density.density))
        return ForceField(
            grid=density.grid,
            fx=np.ascontiguousarray(bk.to_numpy(fx)),
            fy=np.ascontiguousarray(bk.to_numpy(fy)),
        )

    def field_many(self, densities: Sequence[DensityResult]) -> List[ForceField]:
        """Batched :meth:`field` over same-grid densities (one plan)."""
        if not densities:
            return []
        for d in densities:
            self._check(d.grid)
        bk = self.backend
        batch = bk.asarray(np.stack([d.density for d in densities], axis=0))
        fx, fy = self._field_arrays(batch)
        fxs = bk.to_numpy(fx)
        fys = bk.to_numpy(fy)
        return [
            ForceField(
                grid=d.grid,
                fx=np.ascontiguousarray(fxs[i]),
                fy=np.ascontiguousarray(fys[i]),
            )
            for i, d in enumerate(densities)
        ]


def _dct_multipliers(grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Frequency-domain multipliers of the DCT Poisson solve.

    ``a · mul_x`` maps the raw DCT-II analysis coefficients ``a`` of the
    stored bin masses straight to the sine-series coefficients of ``f_x``:
    the map folds the inverse-transform normalization (``β_v β_u / n_y
    n_x``), the per-unit-area density conversion, and the spectral Green's
    function ``w / (w_u² + w_v²)`` into one array.
    """
    ny, nx = grid.shape
    width = nx * grid.dx
    height = ny * grid.dy
    u = np.arange(nx)
    v = np.arange(ny)
    wu = np.pi * u / width
    wv = np.pi * v / height
    denom = wu[None, :] ** 2 + wv[:, None] ** 2
    denom[0, 0] = 1.0  # avoids 0/0; the DC numerators below are zero anyway
    beta_u = np.where(u == 0, 0.5, 1.0)
    beta_v = np.where(v == 0, 0.5, 1.0)
    bin_area = grid.dx * grid.dy
    base = (beta_v[:, None] * beta_u[None, :]) / (nx * ny * bin_area * denom)
    return base * wu[None, :], base * wv[:, None]


def force_field_dct_direct(density: DensityResult) -> ForceField:
    """Dense O(N²) oracle for the DCT mode.

    Evaluates exactly the series :class:`DctPoissonSolver` computes —
    DCT-II analysis, spectral scaling, cosine/sine synthesis — by explicit
    matrix products, with no FFTs and no reversal identities.  The fast
    path must agree with this to round-off on every backend; it is the
    ground truth the cross-backend parity tests pin.
    """
    grid = density.grid
    ny, nx = grid.shape
    d = np.asarray(density.density, dtype=np.float64)
    u = np.arange(nx)
    v = np.arange(ny)
    ang_x = np.pi * np.outer(2 * np.arange(nx) + 1, u) / (2 * nx)  # (i, u)
    ang_y = np.pi * np.outer(2 * np.arange(ny) + 1, v) / (2 * ny)  # (j, v)
    cos_x = np.cos(ang_x)
    cos_y = np.cos(ang_y)
    sin_x = np.sin(ang_x)
    sin_y = np.sin(ang_y)
    a = 4.0 * cos_y.T @ d @ cos_x  # dctn(d, type=2), written out
    mul_x, mul_y = _dct_multipliers(grid)
    fx = cos_y @ (a * mul_x) @ sin_x.T
    fy = sin_y @ (a * mul_y) @ cos_x.T
    return ForceField(grid=grid, fx=fx, fy=fy)


#: Small keep-alive cache so ad-hoc calls (tests, analysis scripts) also
#: reuse spectral plans.  Keyed by the bin geometry the plans depend on,
#: the spectral mode, and the backend; bounded so sweeps over many grid
#: resolutions cannot hoard memory.
_SOLVER_CACHE: "OrderedDict[tuple, PoissonSolver | DctPoissonSolver]" = (
    OrderedDict()
)
_SOLVER_CACHE_SIZE = 8


def solver_for_grid(
    grid: Grid,
    mode: str = "fft",
    backend: Optional[Backend] = None,
) -> "PoissonSolver | DctPoissonSolver":
    """A spectral solver for *grid*, reused across equal geometries.

    *mode* selects the formulation (``"fft"`` free-space convolution,
    ``"dct"`` Neumann reduced transforms); the cache key includes the mode
    and the backend name, so mixed-mode or mixed-device callers never
    share plans that live on different devices.
    """
    if mode not in SPECTRAL_MODES:
        raise ValueError(
            f"unknown spectral mode {mode!r}; choose from {SPECTRAL_MODES}"
        )
    bk = backend if backend is not None else NUMPY
    key = (grid.nx, grid.ny, grid.dx, grid.dy, mode, bk.name)
    solver = _SOLVER_CACHE.get(key)
    if solver is None:
        cls = PoissonSolver if mode == "fft" else DctPoissonSolver
        solver = cls(grid, backend=bk)
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
    return solver_for_grid(density.grid, "fft", backend).field(density)


def force_field_dct(
    density: DensityResult, backend: Optional[Backend] = None
) -> ForceField:
    """DCT (Neumann-BC) spectral field over the whole grid (cached plans)."""
    return solver_for_grid(density.grid, "dct", backend).field(density)


def force_field_direct(density: DensityResult) -> ForceField:
    """O(N²) literal evaluation of Eq. 9 — reference implementation."""
    grid = density.grid
    xc = grid.x_centers()
    yc = grid.y_centers()
    px, py = np.meshgrid(xc, yc)
    points = np.stack([px.ravel(), py.ravel()], axis=1)
    masses = density.density.ravel()
    fx = np.zeros(len(points))
    fy = np.zeros(len(points))
    for src_idx in range(len(points)):
        m = masses[src_idx]
        if m == 0.0:
            continue
        dx = points[:, 0] - points[src_idx, 0]
        dy = points[:, 1] - points[src_idx, 1]
        r2 = dx * dx + dy * dy
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(r2 > 0.0, 1.0 / r2, 0.0)
        fx += m * dx * inv
        fy += m * dy * inv
    shape = grid.shape
    return ForceField(
        grid=grid,
        fx=(fx / _TWO_PI).reshape(shape),
        fy=(fy / _TWO_PI).reshape(shape),
    )


def compute_force_field(
    density: DensityResult,
    method: str = "fft",
    telemetry=NULL_TELEMETRY,
    solver: "PoissonSolver | DctPoissonSolver | None" = None,
    backend: Optional[Backend] = None,
) -> ForceField:
    """Dispatch between the spectral and direct evaluators.

    Long-lived callers (the placer's :class:`~repro.core.forces.
    ForceCalculator`) pass their own ``solver`` so spectral plans live
    exactly as long as the grid they serve; otherwise the module cache is
    consulted.  ``method`` accepts ``"fft"``, ``"dct"`` and ``"direct"``.
    """
    with telemetry.span("poisson") as span:
        grid = density.grid
        span.add("bins", grid.nx * grid.ny)
        if solver is not None:
            return solver.field(density)
        if method in SPECTRAL_MODES:
            return solver_for_grid(grid, method, backend).field(density)
        if method == "direct":
            return force_field_direct(density)
        raise ValueError(f"unknown force-field method {method!r}")


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
