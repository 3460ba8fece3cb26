"""Tests for the supply/demand density model (Eq. 4)."""

import numpy as np
import pytest

from repro import NetlistBuilder, Placement, PlacementRegion
from repro.core import DensityModel, density_grid, splat_bilinear
from repro.core.density import MAX_DENSITY_BINS
from repro.geometry import Grid, Rect


def _netlist(n: int, size: float = 8.0, block: bool = False):
    b = NetlistBuilder("d")
    for i in range(n):
        b.add_cell(f"c{i}", size, size)
    if block:
        b.add_block("blk", 40.0, 40.0)
    return b.build()


@pytest.fixture()
def region():
    return PlacementRegion.standard_cell(80.0, 80.0, 8.0)


class TestSplat:
    def test_mass_conserved(self, rng):
        grid = Grid(Rect(0, 0, 100, 100), 10, 10)
        x = rng.uniform(10, 90, 50)
        y = rng.uniform(10, 90, 50)
        m = rng.uniform(1, 5, 50)
        out = splat_bilinear(grid, x, y, m)
        assert out.sum() == pytest.approx(m.sum())

    def test_center_of_mass_preserved(self, rng):
        grid = Grid(Rect(0, 0, 100, 100), 10, 10)
        x = rng.uniform(20, 80, 30)
        y = rng.uniform(20, 80, 30)
        m = rng.uniform(1, 2, 30)
        out = splat_bilinear(grid, x, y, m)
        xc, yc = grid.x_centers(), grid.y_centers()
        com_x = (out.sum(axis=0) * xc).sum() / out.sum()
        com_y = (out.sum(axis=1) * yc).sum() / out.sum()
        assert com_x == pytest.approx((x * m).sum() / m.sum(), rel=1e-9)
        assert com_y == pytest.approx((y * m).sum() / m.sum(), rel=1e-9)

    def test_point_on_bin_center(self):
        grid = Grid(Rect(0, 0, 100, 100), 10, 10)
        out = splat_bilinear(grid, np.array([15.0]), np.array([25.0]), np.array([7.0]))
        assert out[2, 1] == pytest.approx(7.0)

    def test_boundary_clamped(self):
        grid = Grid(Rect(0, 0, 100, 100), 10, 10)
        out = splat_bilinear(grid, np.array([-50.0]), np.array([500.0]), np.array([1.0]))
        assert out.sum() == pytest.approx(1.0)

    def test_empty_input(self):
        grid = Grid(Rect(0, 0, 10, 10), 2, 2)
        out = splat_bilinear(grid, np.zeros(0), np.zeros(0), np.zeros(0))
        assert out.shape == (2, 2) and out.sum() == 0.0


class TestDensityModel:
    def test_density_integrates_to_zero(self, region, rng):
        nl = _netlist(20)
        model = DensityModel(nl, region)
        p = Placement.random(nl, region, rng)
        result = model.compute(p)
        assert result.density.sum() == pytest.approx(0.0, abs=1e-6)

    def test_supply_rate(self, region, rng):
        nl = _netlist(20)
        model = DensityModel(nl, region)
        p = Placement.random(nl, region, rng)
        result = model.compute(p)
        assert result.supply_rate == pytest.approx(
            nl.total_cell_area() / region.area, rel=1e-6
        )

    def test_demand_conserves_cell_area(self, region, rng):
        nl = _netlist(25)
        model = DensityModel(nl, region)
        p = Placement.random(nl, region, rng)
        result = model.compute(p)
        assert result.demand.sum() == pytest.approx(nl.total_cell_area(), rel=1e-9)

    def test_outside_cells_clamped_in(self, region):
        nl = _netlist(3)
        p = Placement(nl, np.array([-100.0, 40.0, 500.0]), np.array([40.0, 40.0, 40.0]))
        result = DensityModel(nl, region).compute(p)
        assert result.demand.sum() == pytest.approx(nl.total_cell_area(), rel=1e-9)

    def test_large_cells_rasterized_exactly(self, region):
        nl = _netlist(0, block=True)
        p = Placement(nl, np.array([40.0]), np.array([40.0]))
        model = DensityModel(nl, region)
        result = model.compute(p)
        # The 40x40 block covers exactly those bins.
        assert result.demand.max() <= model.grid.bin_area + 1e-9
        assert result.demand.sum() == pytest.approx(1600.0)

    def test_extra_demand_included(self, region, rng):
        nl = _netlist(10)
        model = DensityModel(nl, region)
        p = Placement.random(nl, region, rng)
        extra = np.zeros(model.grid.shape)
        extra[0, 0] = 500.0
        result = model.compute(p, extra_demand=extra)
        plain = model.compute(p)
        assert result.demand.sum() == pytest.approx(plain.demand.sum() + 500.0)
        # Still integrates to zero thanks to the recomputed supply rate.
        assert result.density.sum() == pytest.approx(0.0, abs=1e-6)

    def test_extra_demand_shape_checked(self, region, rng):
        nl = _netlist(5)
        model = DensityModel(nl, region)
        p = Placement.random(nl, region, rng)
        with pytest.raises(ValueError):
            model.compute(p, extra_demand=np.zeros((2, 2)))

    def test_normalized_view(self, region, rng):
        nl = _netlist(10)
        model = DensityModel(nl, region)
        result = model.compute(Placement.random(nl, region, rng))
        assert np.allclose(
            result.normalized, result.density / model.grid.bin_area
        )


class TestDensityGrid:
    def test_bin_close_to_cell_size(self, region):
        nl = _netlist(20, size=8.0)
        grid = density_grid(region, nl)
        assert 4.0 <= grid.dx <= 20.0

    def test_max_bins_cap(self):
        region = PlacementRegion.standard_cell(10000.0, 10000.0, 10.0)
        nl = _netlist(4, size=2.0)
        grid = density_grid(region, nl)
        assert max(grid.nx, grid.ny) == MAX_DENSITY_BINS == 256
