"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro import final_placement, hpwl_meters
from repro.cli import build_parser, main
from repro.netlist import load_netlist, load_placement, make_circuit


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_place_flags(self):
        args = build_parser().parse_args(
            ["place", "--circuit", "fract", "--fast", "--net-model", "b2b"]
        )
        assert args.circuit == "fract"
        assert args.fast
        assert args.net_model == "b2b"

    def test_batch_refuses_seed(self, capsys):
        # Each batch job takes its seed from --seeds or --jobs; a --seed
        # that was accepted and ignored (or read as --seeds) misleads.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["batch", "--circuit", "tiny", "--jobs", "2", "--seed", "7"]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        args = build_parser().parse_args(["place", "--seed", "7"])
        assert args.seed == 7


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--circuit", "fract", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "cells" in out and "rows" in out

    def test_place_and_timing_and_convert(self, tmp_path, capsys):
        base = tmp_path / "run" / "fract"
        rc = main(
            [
                "place",
                "--circuit",
                "fract",
                "--scale",
                "0.5",
                "--legalize",
                "--out",
                str(base),
                "--svg",
            ]
        )
        assert rc == 0
        assert base.with_suffix(".netlist").exists()
        assert base.with_suffix(".placement").exists()
        assert base.with_suffix(".svg").exists()
        capsys.readouterr()

        rc = main(
            [
                "timing",
                "--netlist",
                str(base.with_suffix(".netlist")),
                "--placement",
                str(base.with_suffix(".placement")),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "longest path" in out

        rc = main(
            [
                "convert",
                "--netlist",
                str(base.with_suffix(".netlist")),
                "--placement",
                str(base.with_suffix(".placement")),
                "--bookshelf",
                str(tmp_path / "bs" / "fract"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "bs" / "fract.aux").exists()

    def test_place_without_design_fails(self):
        with pytest.raises(SystemExit):
            main(["place"])

    def test_timing_needs_placement(self):
        with pytest.raises(SystemExit):
            main(["timing", "--circuit", "fract", "--scale", "0.5"])

    def test_svg_needs_out(self):
        with pytest.raises(SystemExit):
            main(["place", "--circuit", "fract", "--scale", "0.5", "--svg"])

    def test_legalize_honours_config_flags(self, tmp_path, capsys):
        # ``place --legalize`` must legalize with the config's
        # improver_min_gain (and bands/threads), like ``repro.place`` does.
        design = ["place", "--circuit", "fract", "--scale", "0.5"]
        glob = tmp_path / "global" / "fract"
        assert main(design + ["--out", str(glob)]) == 0
        legal = tmp_path / "legal" / "fract"
        assert main(design + ["--legalize", "--improver-min-gain", "0.5",
                              "--out", str(legal)]) == 0
        capsys.readouterr()
        netlist = load_netlist(glob.with_suffix(".netlist"))
        region = make_circuit("fract", scale=0.5).region
        global_p = load_placement(netlist, glob.with_suffix(".placement"))
        cli_p = load_placement(netlist, legal.with_suffix(".placement"))
        want = final_placement(global_p, region, improver_min_gain=0.5)
        full = final_placement(global_p, region)
        # The early exit must matter on this design, or the test is blind.
        assert hpwl_meters(want) != hpwl_meters(full)
        assert hpwl_meters(cli_p) == hpwl_meters(want)
        assert np.array_equal(cli_p.x, want.x)
        assert np.array_equal(cli_p.y, want.y)


class TestDesignArguments:
    """Every design argument resolves as a job's source does."""

    def test_bench_size_places_and_legalizes(self, capsys):
        assert main(["place", "--circuit", "tiny", "--legalize"]) == 0
        assert "final placement" in capsys.readouterr().out

    def test_bench_size_stats(self, capsys):
        assert main(["stats", "--circuit", "tiny"]) == 0
        assert "circuit tiny" in capsys.readouterr().out

    def test_bookshelf_netlist_places(self, tmp_path, capsys):
        base = tmp_path / "bs" / "tiny"
        assert main(["convert", "--circuit", "tiny",
                     "--bookshelf", str(base)]) == 0
        assert main(["place", "--netlist", str(base.with_suffix(".aux")),
                     "--legalize"]) == 0
        assert "final placement" in capsys.readouterr().out

    def test_unknown_name_is_one_error_line(self, capsys):
        assert main(["place", "--circuit", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: cannot resolve placement source 'nope'"
        )
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestErrorHandling:
    def test_value_error_exits_nonzero_with_diagnostic(self, tmp_path, capsys):
        # A corrupt netlist file surfaces as a one-line diagnostic and
        # exit code 2, not a traceback.
        bad = tmp_path / "bad.netlist"
        bad.write_text("this is not a netlist\n")
        rc = main(["place", "--netlist", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        rc = main(["place", "--netlist", str(tmp_path / "nope.netlist")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_requires_checkpoint_flag(self):
        with pytest.raises(SystemExit):
            main(["place", "--circuit", "fract", "--scale", "0.5", "--resume"])

    def test_place_writes_and_resumes_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "run.npz"
        rc = main(["place", "--circuit", "fract", "--scale", "0.5",
                   "--checkpoint", str(ckpt), "--checkpoint-every", "5"])
        assert rc == 0
        assert ckpt.exists()
        capsys.readouterr()
        rc = main(["place", "--circuit", "fract", "--scale", "0.5",
                   "--checkpoint", str(ckpt), "--resume"])
        assert rc == 0
        assert "global placement" in capsys.readouterr().out

    def test_deadline_flag_returns_best_effort(self, capsys):
        rc = main(["place", "--circuit", "fract", "--scale", "0.5",
                   "--deadline", "1e-9"])
        assert rc == 0
        assert "deadline hit" in capsys.readouterr().out

    def test_strict_flag_rejects_defective_netlist(self, tmp_path, capsys):
        from repro.netlist import NetlistBuilder, save_netlist

        b = NetlistBuilder("deg")
        b.add_cell("a", 4.0, 4.0)
        b.add_cell("bb", 4.0, 4.0)
        b.add_net("good", ["a", "bb"])
        b.add_net("self", [("a", "output"), ("a", "input", 1.0, 0.0)])
        path = tmp_path / "deg.netlist"
        save_netlist(b.build(), path)

        rc = main(["place", "--netlist", str(path), "--strict"])
        assert rc == 2
        assert "degenerate-net" in capsys.readouterr().err

        rc = main(["place", "--netlist", str(path)])
        assert rc == 0
        assert "degenerate-net" in capsys.readouterr().err  # repair report


class TestBatchExitCodes:
    def test_all_jobs_failed_exits_2_with_class_summary(
        self, tmp_path, capsys
    ):
        rc = main([
            "batch", "--circuit", "definitely-not-a-circuit",
            "--jobs", "2", "--workers", "0",
            "--out", str(tmp_path / "batch.json"),
        ])
        assert rc == 2  # nothing succeeded
        err = capsys.readouterr().err
        assert "failure classes : ValueError x2" in err


class TestServeCLI:
    def _jobs_file(self, tmp_path, jobs):
        import json

        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(jobs), encoding="utf-8")
        return str(path)

    def test_parser_flags(self):
        args = build_parser().parse_args([
            "serve", "--jobs", "j.json", "--workers", "3",
            "--max-attempts", "5", "--retry-on", "worker_death,timeout",
            "--max-queue-depth", "7",
        ])
        assert args.jobs_file == "j.json"
        assert args.workers == 3 and args.max_attempts == 5
        assert args.retry_on == "worker_death,timeout"
        assert args.max_queue_depth == 7

    def test_needs_exactly_one_input_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve"])
        with pytest.raises(SystemExit):
            main(["serve", "--jobs", "j.json", "--listen", "127.0.0.1:0"])

    def test_serve_jobs_with_chaos_recovers(self, tmp_path, capsys):
        # One clean job plus one that kills its worker mid-run: the serve
        # command must retry the victim and exit 0 with everything done.
        jobs = [
            {"id": "clean", "source": "tiny", "seed": 1,
             "legalize": False, "max_iterations": 8},
            {"id": "victim", "source": "tiny", "seed": 2,
             "legalize": False, "max_iterations": 8,
             "inject_faults": [["kill_worker", {
                 "at_iteration": 2,
                 "once_path": str(tmp_path / "once"),
             }]]},
        ]
        rc = main([
            "serve", "--jobs", self._jobs_file(tmp_path, jobs),
            "--workers", "1", "--backoff-base", "0.01",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--events", str(tmp_path / "events.jsonl"),
            "--out", str(tmp_path / "report.json"),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2/2 done" in out
        assert "1 retries" in out

        import json

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema"] == "repro-service/2"
        assert report["n_done"] == 2
        assert report["worker"]["deaths"] == 1
        # The JSONL trace exists and carries the recovery sequence.
        trace = [json.loads(line) for line in
                 (tmp_path / "events.jsonl").read_text().splitlines()]
        kinds = [e.get("event") for e in trace]
        assert "worker_death" in kinds and "job_retry" in kinds

    def test_serve_jobs_failure_exits_1_with_classes(self, tmp_path, capsys):
        jobs = [
            {"id": "ok", "source": "tiny", "seed": 0,
             "legalize": False, "max_iterations": 8},
            {"id": "bad", "source": "no-such-circuit"},
        ]
        rc = main([
            "serve", "--jobs", self._jobs_file(tmp_path, jobs),
            "--workers", "1",
        ])
        assert rc == 1  # partial failure
        err = capsys.readouterr().err
        assert "failure classes : rejected x1" in err

    def test_serve_jobs_nothing_succeeds_exits_2(self, tmp_path, capsys):
        jobs = [{"id": "bad", "source": "no-such-circuit"}]
        rc = main([
            "serve", "--jobs", self._jobs_file(tmp_path, jobs),
            "--workers", "1",
        ])
        assert rc == 2
        capsys.readouterr()

    def test_malformed_spec_is_rejected_not_fatal(self, tmp_path, capsys):
        jobs = [
            {"id": "ok", "source": "tiny", "seed": 0,
             "legalize": False, "max_iterations": 8},
            {"id": "typo", "source": "tiny", "sauce": 1},
            5,
        ]
        rc = main([
            "serve", "--jobs", self._jobs_file(tmp_path, jobs),
            "--workers", "1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "rejected typo" in err and "unknown job-spec keys" in err
        assert "rejected j00003: a job spec is a JSON object, not int" in err


class TestSubmitWire:
    """`repro submit --connect`: assigned ids, shed exit codes."""

    @pytest.fixture()
    def wire_server(self):
        from repro.service import (
            PlacementServer, RetryPolicy, ServiceConfig,
        )

        config = ServiceConfig(
            workers=1, tick_seconds=0.01, tenant_quota=1,
            retry=RetryPolicy(backoff_base_s=0.01, backoff_cap_s=0.05),
        )
        with PlacementServer(service_config=config) as srv:
            yield srv

    def test_parser_flags(self):
        args = build_parser().parse_args([
            "submit", "--circuit", "tiny", "--connect", "127.0.0.1:9",
        ])
        assert args.connect == "127.0.0.1:9"

    def test_needs_exactly_one_transport(self):
        with pytest.raises(SystemExit, match="needs --connect"):
            main(["submit", "--circuit", "tiny"])

    def test_prints_assigned_job_id_and_waits(self, wire_server, capsys):
        host, port = wire_server.address
        rc = main([
            "submit", "--connect", f"{host}:{port}",
            "--circuit", "tiny", "--seed", "1",
            "--max-iterations", "2", "--no-legalize", "--wait",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        # The server assigned the id (tenant prefix + sequence).
        assert "submitted default-" in out
        assert "done" in out

    def test_shed_exit_codes_are_structured(self, wire_server, capsys):
        """tenant_quota -> 4; the reason lands on stderr, not buried."""
        host, port = wire_server.address
        # Occupy the single-job tenant quota with a slow job.
        rc_first = main([
            "submit", "--connect", f"{host}:{port}",
            "--circuit", "tiny", "--seed", "1",
            "--max-iterations", "60", "--no-legalize",
        ])
        assert rc_first == 0
        rc = main([
            "submit", "--connect", f"{host}:{port}",
            "--circuit", "tiny", "--seed", "2",
            "--max-iterations", "2", "--no-legalize",
        ])
        captured = capsys.readouterr()
        assert rc == 4
        assert "tenant_quota" in captured.err

    def test_draining_exit_code(self, wire_server, capsys):
        host, port = wire_server.address
        wire_server.service.admission.begin_drain()
        rc = main([
            "submit", "--connect", f"{host}:{port}",
            "--circuit", "tiny", "--seed", "3",
            "--max-iterations", "2", "--no-legalize",
        ])
        captured = capsys.readouterr()
        assert rc == 5
        assert "draining" in captured.err

    def test_exit_code_table_pinned(self):
        from repro.cli import SHED_EXIT

        assert SHED_EXIT == {
            "queue_full": 3, "tenant_quota": 4, "draining": 5, "closed": 6,
        }
