"""The array-backend layer: resolution, generic DCT, cross-backend parity.

The parity classes parameterize over every backend importable in this
environment (numpy always; torch when installed) and both spectral
modes, pinning each backend's hot-path kernels against the numpy
reference and the dense oracles.  Without torch the accelerator rows
skip; the generic Makhoul DCT still gets exercised through a
numpy-primitive subclass that keeps the base-class transforms.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp

from repro.backend import (
    BACKEND_NAMES,
    NUMPY,
    available_backends,
    resolve_backend,
)
from repro.backend.base import Backend
from repro.backend.numpy_backend import NumpyBackend
from repro.core import (
    DctPoissonSolver,
    KraftwerkPlacer,
    PlacerConfig,
    PoissonSolver,
    SPECTRAL_MODES,
    bilinear_sample,
    conjugate_gradient,
    force_field_dct,
    force_field_direct,
    solver_for_grid,
    splat_bilinear,
)
from repro.core.density import DensityResult
from repro.core.poisson import force_field_dct_direct
from repro.geometry import Grid, Rect

AVAILABLE = available_backends()

#: One param per known backend; missing accelerators turn into skips so
#: the same suite runs on a CPU-only CI and a GPU box without edits.
BACKEND_PARAMS = [
    pytest.param(
        name,
        marks=()
        if name in AVAILABLE
        else pytest.mark.skipif(True, reason=f"{name} not installed"),
    )
    for name in BACKEND_NAMES
]


def _density(grid: Grid, rng) -> DensityResult:
    density = rng.normal(size=grid.shape)
    density -= density.mean()
    return DensityResult(
        grid=grid,
        demand=np.maximum(density, 0.0),
        supply_rate=0.0,
        density=density,
    )


class TestResolveBackend:
    def test_default_is_numpy_singleton(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend() is NUMPY
        assert resolve_backend(None) is NUMPY
        assert resolve_backend("numpy") is NUMPY
        assert NUMPY.is_numpy and NUMPY.name == "numpy"

    def test_name_is_case_insensitive(self):
        assert resolve_backend("NumPy") is NUMPY

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None) is NUMPY
        monkeypatch.setenv("REPRO_BACKEND", "galactic")
        with pytest.raises(ValueError, match="unknown array backend"):
            resolve_backend(None)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            resolve_backend("galactic")

    def test_missing_accelerator_is_actionable(self):
        for name in ("torch",):
            if name in AVAILABLE:
                continue
            with pytest.raises(ValueError, match="not installed"):
                resolve_backend(name)

    def test_available_backends_starts_with_numpy(self):
        names = available_backends()
        assert names[0] == "numpy"
        assert set(names) <= set(BACKEND_NAMES)

    def test_config_validates_backend_name(self):
        with pytest.raises(ValueError):
            PlacerConfig(backend="galactic")
        with pytest.raises(ValueError):
            PlacerConfig(spectral_mode="bogus")

    def test_placer_fails_fast_on_missing_accelerator(self, tiny_circuit):
        for name in ("torch",):
            if name in AVAILABLE:
                continue
            config = PlacerConfig(backend=name)
            with pytest.raises(ValueError, match="not installed"):
                KraftwerkPlacer(
                    tiny_circuit.netlist, tiny_circuit.region, config
                )


class GenericDctBackend(NumpyBackend):
    """Numpy primitives under the base class's generic Makhoul DCT.

    Lets the shared FFT-factorized transforms (the ones torch uses) run on
    a CI without torch, pinned against scipy's native r2r results.
    """

    name = "generic-dct"
    dct2 = Backend.dct2
    idct2 = Backend.idct2


class TestGenericMakhoulDct:
    """The base-class DCT-II/IDCT-II vs scipy.fft's native transforms."""

    SHAPES = [(8,), (7,), (6, 9), (5, 4), (3, 16), (2, 1)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_dct2_matches_scipy(self, shape, rng):
        bk = GenericDctBackend()
        a = rng.normal(size=shape)
        for axis in range(len(shape)):
            want = scipy.fft.dct(a, type=2, axis=axis)
            got = bk.dct2(a.copy(), axis)
            assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_idct2_matches_scipy(self, shape, rng):
        bk = GenericDctBackend()
        a = rng.normal(size=shape)
        for axis in range(len(shape)):
            want = scipy.fft.idct(a, type=2, axis=axis)
            got = bk.idct2(a.copy(), axis)
            assert np.allclose(got, want, atol=1e-12)

    def test_round_trip(self, rng):
        bk = GenericDctBackend()
        a = rng.normal(size=(9, 11))
        back = bk.idct2(bk.dct2(a, -1), -1)
        assert np.allclose(back, a, atol=1e-12)

    def test_dct_solver_runs_on_generic_transforms(self, rng):
        # The full DCT field pipeline through the Makhoul path must match
        # the native-scipy numpy backend to round-off.
        grid = Grid(Rect(0, 0, 51, 39), 17, 13)
        d = _density(grid, rng)
        native = DctPoissonSolver(grid).field(d)
        generic = DctPoissonSolver(grid, backend=GenericDctBackend()).field(d)
        assert np.allclose(generic.fx, native.fx, atol=1e-10)
        assert np.allclose(generic.fy, native.fy, atol=1e-10)


class TestDctSolver:
    GRIDS = [
        Grid(Rect(0, 0, 64, 64), 16, 16),
        Grid(Rect(0, 0, 51, 39), 17, 13),
        Grid(Rect(0, 0, 27, 35), 9, 7),
        Grid(Rect(0, 0, 10, 50), 1, 5),
        Grid(Rect(0, 0, 50, 10), 5, 1),
    ]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
    def test_matches_dense_oracle(self, grid, rng):
        solver = DctPoissonSolver(grid)
        for _ in range(2):
            d = _density(grid, rng)
            fast = solver.field(d)
            oracle = force_field_dct_direct(d)
            scale = max(np.abs(oracle.fx).max(), np.abs(oracle.fy).max(), 1.0)
            assert np.allclose(fast.fx, oracle.fx, atol=1e-12 * scale)
            assert np.allclose(fast.fy, oracle.fy, atol=1e-12 * scale)

    def test_force_points_away_from_source(self):
        grid = Grid(Rect(0, 0, 64, 64), 16, 16)
        density = np.zeros(grid.shape)
        density[8, 8] = 100.0
        density -= density.sum() / density.size
        d = DensityResult(
            grid=grid,
            demand=np.maximum(density, 0.0),
            supply_rate=0.0,
            density=density,
        )
        field = force_field_dct(d)
        assert field.fx[8, 12] > 0.0
        assert field.fx[8, 4] < 0.0
        assert field.fy[12, 8] > 0.0
        assert field.fy[4, 8] < 0.0

    def test_field_many_matches_field(self, rng):
        grid = Grid(Rect(0, 0, 48, 80), 12, 20)
        densities = [_density(grid, rng) for _ in range(3)]
        for solver in (PoissonSolver(grid), DctPoissonSolver(grid)):
            batched = solver.field_many(densities)
            for one, d in zip(batched, densities):
                single = solver.field(d)
                assert np.allclose(one.fx, single.fx, atol=1e-12)
                assert np.allclose(one.fy, single.fy, atol=1e-12)
            assert solver.field_many([]) == []

    def test_solver_cache_keyed_by_mode(self):
        grid = Grid(Rect(0, 0, 64, 64), 16, 16)
        fft_solver = solver_for_grid(grid, "fft")
        dct_solver = solver_for_grid(grid, "dct")
        assert isinstance(fft_solver, PoissonSolver)
        assert isinstance(dct_solver, DctPoissonSolver)
        assert solver_for_grid(grid, "dct") is dct_solver

    def test_unknown_mode_rejected(self):
        grid = Grid(Rect(0, 0, 64, 64), 16, 16)
        with pytest.raises(ValueError):
            solver_for_grid(grid, "bogus")
        assert set(SPECTRAL_MODES) == {"fft", "dct"}


class TestBackendParity:
    """Every installed backend must reproduce the numpy hot-path kernels."""

    GRID = Grid(Rect(0, 0, 51, 39), 17, 13)

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_splat_parity(self, name, rng):
        bk = resolve_backend(name)
        x = rng.uniform(-5, 56, size=300)
        y = rng.uniform(-5, 44, size=300)
        mass = rng.uniform(0.1, 4.0, size=300)
        ref = splat_bilinear(self.GRID, x, y, mass)
        got = splat_bilinear(self.GRID, x, y, mass, backend=bk)
        assert isinstance(got, np.ndarray)
        assert np.allclose(got, ref, atol=1e-10)

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    @pytest.mark.parametrize("mode", SPECTRAL_MODES)
    def test_field_parity(self, name, mode, rng):
        bk = resolve_backend(name)
        d = _density(self.GRID, rng)
        ref = solver_for_grid(self.GRID, mode).field(d)
        got = solver_for_grid(self.GRID, mode, bk).field(d)
        scale = max(np.abs(ref.fx).max(), np.abs(ref.fy).max(), 1.0)
        assert np.allclose(got.fx, ref.fx, atol=1e-9 * scale)
        assert np.allclose(got.fy, ref.fy, atol=1e-9 * scale)

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_sample_parity(self, name, rng):
        bk = resolve_backend(name)
        field = rng.normal(size=self.GRID.shape)
        x = rng.uniform(-10, 61, size=200)
        y = rng.uniform(-10, 49, size=200)
        ref = bilinear_sample(self.GRID, field, x, y)
        got = bilinear_sample(self.GRID, field, x, y, backend=bk)
        assert isinstance(got, np.ndarray)
        assert np.allclose(got, ref, atol=1e-12)

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    def test_cg_parity(self, name, rng):
        bk = resolve_backend(name)
        n = 60
        M = rng.normal(size=(n, n))
        A = sp.csr_matrix(M @ M.T + n * np.eye(n))
        b = rng.normal(size=n)
        ref = conjugate_gradient(A, b, tol=1e-10)
        got = conjugate_gradient(A, b, tol=1e-10, backend=bk)
        assert got.converged and ref.converged
        assert isinstance(got.x, np.ndarray)
        assert np.allclose(got.x, ref.x, atol=1e-7 * np.abs(ref.x).max())

    @pytest.mark.parametrize("name", BACKEND_PARAMS)
    @pytest.mark.parametrize("mode", ["fft", "dct"])
    def test_tiny_placement_runs(self, name, mode, tiny_circuit):
        config = PlacerConfig(backend=name, spectral_mode=mode)
        result = KraftwerkPlacer(
            tiny_circuit.netlist, tiny_circuit.region, config
        ).place(max_iterations=3)
        assert result.iterations == 3
        assert np.isfinite(result.hpwl_m) and result.hpwl_m > 0


class TestNumpyDefaultUnchanged:
    """Explicit numpy routing must stay bit-identical to the default path."""

    def test_cg_bit_identical(self, rng):
        n = 80
        M = rng.normal(size=(n, n))
        A = sp.csr_matrix(M @ M.T + n * np.eye(n))
        b = rng.normal(size=n)
        default = conjugate_gradient(A, b, tol=1e-10)
        routed = conjugate_gradient(A, b, tol=1e-10, backend=NUMPY)
        assert default.x.tobytes() == routed.x.tobytes()
        assert default.iterations == routed.iterations

    def test_tiny_placement_bit_identical(self, tiny_circuit):
        def coords(backend):
            cfg = PlacerConfig(backend=backend)
            r = KraftwerkPlacer(
                tiny_circuit.netlist, tiny_circuit.region, cfg
            ).place(max_iterations=6)
            return (
                r.placement.x.tobytes(),
                r.placement.y.tobytes(),
            )

        assert coords(None) == coords("numpy")

    def test_committed_determinism_hash_reproduced(self):
        # The live tiny hash vs the committed report — the strongest "the
        # backend layer changed nothing by default" pin we can run in CI.
        import json
        from pathlib import Path

        from repro.observability.bench import run_bench

        bench = Path(__file__).resolve().parent.parent / "BENCH_kraftwerk.json"
        report = json.loads(bench.read_text(encoding="utf-8"))
        golden = next(r for r in report["runs"] if r["size"] == "tiny")
        live = run_bench("tiny", seed=golden["seed"], legalize=False)
        assert live["determinism"]["hash"] == golden["determinism"]["hash"]
