"""Tests for the Poisson force field (Eq. 9): FFT vs direct, field laws."""

import numpy as np
import pytest

from repro.core import (
    ForceCalculator,
    PoissonSolver,
    bilinear_sample,
    curl,
    force_field_fft,
    solver_for_grid,
)
from repro.core.density import DensityResult
from repro.geometry import Grid, Rect
from repro.netlist import Placement
from repro.testing import force_field_direct


def _density_on(grid: Grid, spots) -> DensityResult:
    """DensityResult with given (iy, ix, mass) spots, zero-sum normalized."""
    density = np.zeros(grid.shape)
    for iy, ix, m in spots:
        density[iy, ix] += m
    density -= density.sum() / density.size
    return DensityResult(
        grid=grid, demand=np.maximum(density, 0.0), supply_rate=0.0, density=density
    )


@pytest.fixture()
def grid():
    return Grid(Rect(0, 0, 64, 64), 16, 16)


class TestFftMatchesDirect:
    def test_single_spot(self, grid):
        d = _density_on(grid, [(8, 8, 100.0)])
        fft = force_field_fft(d)
        direct = force_field_direct(d)
        assert np.allclose(fft.fx, direct.fx, atol=1e-8)
        assert np.allclose(fft.fy, direct.fy, atol=1e-8)

    def test_random_density(self, grid, rng):
        density = rng.normal(size=grid.shape)
        density -= density.mean()
        d = DensityResult(grid=grid, demand=np.maximum(density, 0), supply_rate=0.0, density=density)
        fft = force_field_fft(d)
        direct = force_field_direct(d)
        assert np.allclose(fft.fx, direct.fx, atol=1e-8)
        assert np.allclose(fft.fy, direct.fy, atol=1e-8)


def _random_density(grid: Grid, rng) -> DensityResult:
    density = rng.normal(size=grid.shape)
    density -= density.mean()
    return DensityResult(
        grid=grid,
        demand=np.maximum(density, 0.0),
        supply_rate=0.0,
        density=density,
    )


class TestPoissonSolver:
    """The cached-kernel spectral path: correctness, reuse, determinism."""

    # Odd/even/non-square bin counts, square and non-square bins.
    GRIDS = [
        Grid(Rect(0, 0, 64, 64), 16, 16),
        Grid(Rect(0, 0, 51, 39), 17, 13),
        Grid(Rect(0, 0, 48, 80), 12, 20),
        Grid(Rect(0, 0, 27, 35), 9, 7),
        Grid(Rect(0, 0, 10, 50), 1, 5),
    ]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
    def test_cached_kernels_match_direct(self, grid, rng):
        solver = PoissonSolver(grid)
        for _ in range(3):
            d = _random_density(grid, rng)
            fft = solver.field(d)
            direct = force_field_direct(d)
            assert np.allclose(fft.fx, direct.fx, atol=1e-8)
            assert np.allclose(fft.fy, direct.fy, atol=1e-8)

    def test_repeat_evaluation_bit_identical(self, grid, rng):
        d = _random_density(grid, rng)
        solver = PoissonSolver(grid)
        a = solver.field(d)
        b = solver.field(d)
        assert np.array_equal(a.fx, b.fx)
        assert np.array_equal(a.fy, b.fy)

    def test_wrapper_uses_cached_solver(self, grid, rng):
        d = _random_density(grid, rng)
        solver = solver_for_grid(grid)
        assert solver_for_grid(grid) is solver
        via_wrapper = force_field_fft(d)
        via_solver = solver.field(d)
        assert np.array_equal(via_wrapper.fx, via_solver.fx)
        assert np.array_equal(via_wrapper.fy, via_solver.fy)

    def test_equal_geometry_shares_solver(self, grid):
        clone = Grid(Rect(0, 0, 64, 64), 16, 16)
        assert solver_for_grid(clone) is solver_for_grid(grid)

    def test_mismatched_grid_rejected(self, grid, rng):
        other = Grid(Rect(0, 0, 64, 64), 8, 8)
        with pytest.raises(ValueError, match="cannot evaluate"):
            PoissonSolver(other).field(_random_density(grid, rng))

    def test_force_calculator_uses_its_solver(self, tiny_circuit, rng):
        nl, region = tiny_circuit.netlist, tiny_circuit.region
        calc = ForceCalculator(nl, region)
        assert calc.poisson_solver is solver_for_grid(calc.density_model.grid)
        forces = calc.compute(Placement.random(nl, region, rng), K=0.2)
        direct = force_field_direct(forces.density)
        assert np.allclose(forces.field.fx, direct.fx, atol=1e-8)
        assert np.allclose(forces.field.fy, direct.fy, atol=1e-8)


class TestFieldLaws:
    def test_force_points_away_from_source(self, grid):
        d = _density_on(grid, [(8, 8, 100.0)])
        field = force_field_fft(d)
        # Right of the source: fx > 0; left: fx < 0 (repulsion).
        assert field.fx[8, 12] > 0.0
        assert field.fx[8, 4] < 0.0
        assert field.fy[12, 8] > 0.0
        assert field.fy[4, 8] < 0.0

    def test_negative_density_attracts(self, grid):
        d = _density_on(grid, [(8, 8, -100.0)])
        field = force_field_fft(d)
        assert field.fx[8, 12] < 0.0  # pulled toward the sink

    def test_inverse_distance_decay(self):
        grid = Grid(Rect(0, 0, 256, 256), 64, 64)
        d = _density_on(grid, [(32, 32, 1000.0)])
        field = force_field_direct(d)
        # |f| ~ 1/r for a point source: f(2r)/f(r) ~ 0.5.
        f_near = abs(field.fx[32, 32 + 4])
        f_far = abs(field.fx[32, 32 + 8])
        assert f_far / f_near == pytest.approx(0.5, rel=0.2)

    def test_curl_free(self, grid, rng):
        density = rng.normal(size=grid.shape)
        density -= density.mean()
        d = DensityResult(grid=grid, demand=np.maximum(density, 0), supply_rate=0.0, density=density)
        field = force_field_fft(d)
        c = curl(field)
        # Interior curl is tiny relative to the field magnitude.
        mag = np.hypot(field.fx, field.fy).max()
        assert np.abs(c[2:-2, 2:-2]).max() < 0.15 * mag

    def test_symmetry(self):
        # Odd grid so the source sits exactly at the geometric center.
        grid = Grid(Rect(0, 0, 68, 68), 17, 17)
        d = _density_on(grid, [(8, 8, 100.0)])
        field = force_field_fft(d)
        assert field.fx[8, 12] == pytest.approx(-field.fx[8, 4], abs=1e-9)
        assert field.fy[12, 8] == pytest.approx(-field.fy[4, 8], abs=1e-9)

    def test_max_magnitude(self, grid):
        d = _density_on(grid, [(8, 8, 100.0)])
        field = force_field_fft(d)
        assert field.max_magnitude() == pytest.approx(
            np.hypot(field.fx, field.fy).max()
        )


class TestBilinearSample:
    def test_exact_at_centers(self, grid, rng):
        field = rng.normal(size=grid.shape)
        xc, yc = grid.x_centers(), grid.y_centers()
        sampled = bilinear_sample(grid, field, np.full(grid.ny, xc[3]), yc)
        assert np.allclose(sampled, field[:, 3])

    def test_interpolates_midpoint(self, grid):
        field = np.zeros(grid.shape)
        field[0, 0] = 1.0
        field[0, 1] = 3.0
        xc = grid.x_centers()
        mid = (xc[0] + xc[1]) / 2.0
        v = bilinear_sample(grid, field, np.array([mid]), np.array([grid.y_centers()[0]]))
        assert v[0] == pytest.approx(2.0)

    def test_clamped_outside(self, grid):
        field = np.arange(grid.nx * grid.ny, dtype=float).reshape(grid.shape)
        v = bilinear_sample(grid, field, np.array([-1e9]), np.array([-1e9]))
        assert v[0] == field[0, 0]

    def test_shape_check(self, grid):
        with pytest.raises(ValueError):
            bilinear_sample(grid, np.zeros((2, 2)), np.array([0.0]), np.array([0.0]))
