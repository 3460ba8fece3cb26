"""Property tests pinning the banded-parallel Abacus sweep to the serial
sweep.

The banding promises **bit identity**, not approximation:
``VectorAbacusLegalizer(bands=N, threads=T)`` must produce
``np.array_equal``-identical coordinates to the serial sweep for every
band and thread count, with and without obstacles, including degenerate
single-row regions (where banding collapses to serial).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Rect
from repro.legalize import VectorAbacusLegalizer
from repro.legalize.vector import SERIAL_FALLBACK_CELLS
from repro.netlist import GeneratorSpec, Placement, generate_circuit
from repro.testing import assert_legal

BAND_COUNTS = [2, 3, 4, 8]
THREAD_COUNTS = [1, 2, 4]


def _case(seed: int, num_cells: int = 2000, num_rows: int = 64,
          utilization: float = 0.85):
    circ = generate_circuit(
        GeneratorSpec(name=f"band{seed}", num_cells=num_cells,
                      num_rows=num_rows, seed=seed,
                      utilization=utilization)
    )
    placement = Placement.random(
        circ.netlist, circ.region, np.random.default_rng(seed + 77)
    )
    return circ.netlist, circ.region, placement


def _assert_identical(serial, banded, context):
    assert serial.success and banded.success, context
    assert np.array_equal(serial.placement.x, banded.placement.x), context
    assert np.array_equal(serial.placement.y, banded.placement.y), context
    assert serial.mean_displacement == banded.mean_displacement, context
    assert serial.max_displacement == banded.max_displacement, context


class TestBandedBitIdentity:
    @pytest.mark.parametrize("bands", BAND_COUNTS)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_matches_serial_every_band_thread_combo(self, bands, threads):
        _, region, placement = _case(0)
        serial = VectorAbacusLegalizer(region, bands=1).legalize(placement)
        banded = VectorAbacusLegalizer(
            region, bands=bands, threads=threads
        ).legalize(placement)
        _assert_identical(serial, banded, (bands, threads))

    @pytest.mark.parametrize("seed", [1, 2, 5])
    @pytest.mark.parametrize("bands", BAND_COUNTS)
    def test_matches_serial_across_instances(self, seed, bands):
        _, region, placement = _case(seed)
        serial = VectorAbacusLegalizer(region, bands=1).legalize(placement)
        banded = VectorAbacusLegalizer(region, bands=bands).legalize(placement)
        _assert_identical(serial, banded, (seed, bands))

    @pytest.mark.parametrize("bands", BAND_COUNTS)
    def test_matches_serial_with_obstacles(self, bands):
        _, region, placement = _case(3, utilization=0.6)
        b = region.bounds
        w, h = b.xhi - b.xlo, b.yhi - b.ylo
        obstacles = [
            Rect(b.xlo + 0.30 * w, b.ylo + 0.25 * h,
                 b.xlo + 0.40 * w, b.ylo + 0.50 * h),
            Rect(b.xlo + 0.70 * w, b.ylo + 0.50 * h,
                 b.xlo + 0.80 * w, b.ylo + 0.75 * h),
        ]
        serial = VectorAbacusLegalizer(
            region, obstacles=obstacles, bands=1
        ).legalize(placement)
        banded = VectorAbacusLegalizer(
            region, obstacles=obstacles, bands=bands, threads=2
        ).legalize(placement)
        _assert_identical(serial, banded, bands)
        assert_legal(banded.placement, region, obstacles=obstacles,
                     reference=placement)

    def test_single_row_region_degenerates_to_serial(self):
        # One row: every band request clamps to a single band, which IS
        # the serial sweep.
        _, region, placement = _case(4, num_cells=120, num_rows=1,
                                     utilization=0.7)
        serial = VectorAbacusLegalizer(region, bands=1).legalize(placement)
        for bands in BAND_COUNTS:
            banded = VectorAbacusLegalizer(
                region, bands=bands, threads=2
            ).legalize(placement)
            _assert_identical(serial, banded, bands)

    def test_high_utilization_forces_escape_merges(self):
        # 95 % utilization piles cells far from their target rows, so the
        # nearest-row expansion crosses band boundaries and bands must
        # merge and re-run; the result must still be bit-identical.
        _, region, placement = _case(6, num_cells=3000, num_rows=80,
                                     utilization=0.95)
        serial = VectorAbacusLegalizer(region, bands=1).legalize(placement)
        banded = VectorAbacusLegalizer(
            region, bands=8, threads=4
        ).legalize(placement)
        _assert_identical(serial, banded, "high-util")

    def test_auto_band_sizing_small_is_serial(self):
        # bands=0 (auto) on a small instance must pick the serial path.
        _, region, _ = _case(0, num_cells=120, num_rows=4)
        legalizer = VectorAbacusLegalizer(region, bands=0)
        assert legalizer._effective_bands(
            SERIAL_FALLBACK_CELLS - 1, 64
        ) == 1
        # Large instances get one band per ~50k cells, capped by the rows.
        assert legalizer._effective_bands(200_000, 640) == 4
        assert legalizer._effective_bands(200_000, 16) == 2

    def test_thread_count_never_changes_results(self):
        _, region, placement = _case(7)
        results = [
            VectorAbacusLegalizer(region, bands=4, threads=t).legalize(
                placement
            )
            for t in THREAD_COUNTS
        ]
        for other in results[1:]:
            _assert_identical(results[0], other, "threads")
