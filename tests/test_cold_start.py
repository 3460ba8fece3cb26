"""Cold start: each entry point imports only what its process runs.

Every test runs a fresh interpreter and reads its ``sys.modules``, so an
eager import anywhere on the path — a package ``__init__``, a module-level
scipy import, a CLI command's dependencies — fails here by name.
"""

import json
import multiprocessing as mp
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.service import PlacementServer, ServiceConfig

SRC = Path(__file__).parent.parent / "src"

#: Loaded by no placement job: the Section 5 applications, the baselines,
#: the service stack, the test oracles and the solver's last-resort rungs.
NOT_PLACEMENT = (
    "scipy.optimize",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "repro.baselines",
    "repro.timing",
    "repro.congestion",
    "repro.thermal",
    "repro.eco",
    "repro.floorplan",
    "repro.viz",
    "repro.service",
    "repro.parallel",
    "repro.testing",
)


def loaded_after(code: str, tmp_path) -> set:
    """The modules a fresh interpreter holds after running *code*."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(sys.modules)))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, cwd=tmp_path, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return set(json.loads(result.stdout.splitlines()[-1]))


def under(modules, *packages) -> list:
    """The loaded modules that are one of *packages* or inside one."""
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    )


def test_import_repro_loads_no_numpy_or_scipy(tmp_path):
    modules = loaded_after("import repro", tmp_path)
    assert under(modules, "numpy", "scipy") == []


@pytest.mark.parametrize("argv", [["--help"], ["submit", "--help"]])
def test_cli_help_loads_no_numpy_or_scipy(argv, tmp_path):
    modules = loaded_after(f"""
        import runpy, sys
        sys.argv = ["repro", *{argv!r}]
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    """, tmp_path)
    assert "repro.cli" in modules
    assert under(modules, "numpy", "scipy") == []


def test_place_loads_only_the_placer(tmp_path):
    modules = loaded_after("""
        import repro
        assert repro.place("tiny").legalized is not None
    """, tmp_path)
    assert "repro.core.placer" in modules
    assert under(modules, *NOT_PLACEMENT) == []


def test_serial_map_skips_the_bench_harness(tmp_path):
    # The serial map runs the same _execute_job as a pool worker.
    modules = loaded_after("""
        import repro
        batch = repro.Client.local().map(["tiny"], seeds=[1], workers=0)
        assert batch.jobs[0].ok and batch.jobs[0].positions_hash
    """, tmp_path)
    assert under(modules, "repro.observability.bench") == []


def test_job_stack_covers_a_job(tmp_path):
    """What WorkerPool.start imports before it forks is everything a job
    imports: after it, a job loads no further repro, numpy or scipy
    module, so no forked worker pays an import on its first job."""
    modules = loaded_after("""
        import sys
        from repro.parallel.engine import _import_job_stack

        _import_job_stack()
        before = set(sys.modules)
        import repro
        batch = repro.Client.local().map(["tiny"], seeds=[1], workers=0)
        assert batch.jobs[0].ok
        new = sorted(set(sys.modules) - before)
        assert not [m for m in new if m.split(".")[0] in
                    ("repro", "numpy", "scipy")], new
    """, tmp_path)
    assert under(modules, "repro.testing.oracles", "scipy.optimize") == []


def test_serial_batch_loads_the_placer_before_its_first_job(tmp_path):
    """run_batch imports the job stack before its clock starts, so a
    serial baseline (``repro batch --compare-serial``) times placement,
    not the first job's imports."""
    loaded_after("""
        import sys
        from repro.parallel import engine

        execute = engine._execute_job

        def spy(payload, progress=None):
            assert "repro.core.placer" in sys.modules
            return execute(payload, progress)

        engine._execute_job = spy
        job = engine.PlacementJob(source="tiny", legalize=False)
        assert engine.run_batch([job], workers=0).jobs[0].ok
    """, tmp_path)


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork"
)
def test_pool_start_loads_the_job_stack_before_forking(tmp_path):
    modules = loaded_after("""
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(1)
        pool.start()
        pool.stop()
    """, tmp_path)
    for name in ("repro.api", "repro.core.placer", "repro.legalize.improver",
                 "scipy.sparse", "scipy.fft", "repro.testing.faults"):
        assert name in modules, name
    assert under(modules, "repro.testing.oracles") == []


def test_wire_client_loads_no_scipy_or_core(tmp_path):
    config = ServiceConfig(workers=1, tick_seconds=0.01)
    with PlacementServer(service_config=config) as server:
        host, port = server.address
        modules = loaded_after(f"""
            from repro.api import Client

            with Client.connect({host!r}, {port}) as client:
                record = client.submit("tiny").result(timeout=120)
                batch = client.map("tiny", seeds=[1, 2], legalize=False,
                                   max_iterations=4)
            assert record.state.value == "done", record.to_dict()
            assert [job.ok for job in batch.jobs] == [True, True]
        """, tmp_path)
    assert "repro.service.net" in modules
    assert under(modules, "scipy", "repro.core") == []
