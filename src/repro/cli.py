"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``    print structural statistics of a suite circuit or netlist file.
``place``    global placement (+ optional legalization, SVG, output files).
``batch``    run many jobs of one design (multi-start seeds) concurrently
             over the parallel batch engine.
``sweep``    K / net-model / seed parameter sweep over the batch engine.
``timing``   longest-path analysis of a placement.
``convert``  convert between the repro text format and Bookshelf.
``bench``    place + legalize the generator circuits under telemetry and
             write the ``BENCH_kraftwerk.json`` regression report.
``serve``    run the fault-tolerant placement service (supervised workers,
             retries, migration) over a jobs file, or serve the
             ``repro-wire/1`` TCP protocol until interrupted.
``submit``   submit one job to a ``repro serve --listen`` server
             (optionally waiting for its result).

Examples::

    python -m repro stats --circuit biomed --scale 0.2
    python -m repro place --circuit primary1 --scale 0.3 --legalize \
        --out out/primary1 --svg
    python -m repro batch --circuit tiny --jobs 8 --workers 4 \
        --compare-serial
    python -m repro sweep --circuit tiny --K 0.2,1.0 --seeds 0,1,2
    python -m repro timing --netlist out/primary1.netlist \
        --placement out/primary1.placement
    python -m repro convert --netlist out/primary1.netlist \
        --placement out/primary1.placement --bookshelf out/primary1
    python -m repro bench --sizes tiny,small
    python -m repro serve --jobs jobs.json --workers 2 --out report.json
    python -m repro serve --listen 127.0.0.1:7878 --workers 2 &
    python -m repro submit --connect 127.0.0.1:7878 --circuit tiny --seed 3 \
        --wait
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

# Building the parser needs only argparse and the backend names; each
# command imports what it runs, so ``--help`` loads neither numpy nor scipy.
from .backend import BACKEND_NAMES

if TYPE_CHECKING:
    from .geometry import PlacementRegion
    from .netlist import Netlist


def _load_design(args) -> Tuple[Netlist, PlacementRegion]:
    """Netlist + region from either --circuit or --netlist."""
    from .netlist import load_netlist, make_circuit

    if args.circuit:
        generated = make_circuit(args.circuit, scale=args.scale)
        return generated.netlist, generated.region
    if args.netlist:
        netlist = load_netlist(args.netlist)
        region = _region_for(netlist, args.utilization)
        return netlist, region
    raise SystemExit("need --circuit NAME or --netlist FILE")


def _region_for(netlist: Netlist, utilization: float) -> PlacementRegion:
    """Square-ish region sized from cell area at the given utilization."""
    from .api import region_for_netlist

    return region_for_netlist(netlist, utilization)


def _add_design_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--circuit", help="suite circuit name (e.g. biomed)")
    parser.add_argument("--scale", type=float, default=0.2,
                        help="suite size scale factor (default 0.2)")
    parser.add_argument("--netlist", help="repro netlist file instead of --circuit")
    parser.add_argument("--utilization", type=float, default=0.8,
                        help="region utilization when deriving a region")


def _add_placer_args(
    parser: argparse.ArgumentParser, checkpointing: bool = True
) -> None:
    """Placer knobs shared by place/batch/sweep.

    Every flag maps onto one :class:`PlacerConfig` field via
    :meth:`PlacerConfig.from_args`, so all subcommands serialize config
    identically (and identically to checkpoints and batch job specs).
    """
    parser.add_argument("--fast", action="store_true",
                        help="fast mode (K = 1.0) instead of standard (K = 0.2)")
    parser.add_argument("--net-model", choices=["clique", "b2b"],
                        default="clique", dest="net_model")
    parser.add_argument("--backend", choices=BACKEND_NAMES,
                        default=None,
                        help="array backend for the field/solve hot path "
                             "(default numpy; torch needs the optional "
                             "dependency installed)")
    parser.add_argument("--seed", type=int, default=None,
                        help="placer jitter seed (default: config default)")
    parser.add_argument("--max-iterations", type=int, default=None,
                        dest="max_iterations", metavar="N",
                        help="cap on placement transformations")
    parser.add_argument("--multilevel", type=int, default=None, metavar="N",
                        help="coarsening levels for the multilevel V-cycle "
                             "(default 0 = flat placement)")
    parser.add_argument("--multilevel-refine", type=int, default=None,
                        dest="multilevel_refine", metavar="N",
                        help="refinement transformations per V-cycle level "
                             "(default 12)")
    parser.add_argument("--legalize-bands", type=int, default=None,
                        dest="legalize_bands", metavar="N",
                        help="row bands for the banded-parallel Abacus snap "
                             "(0 = auto, 1 = serial; results are identical "
                             "at every setting)")
    parser.add_argument("--legalize-threads", type=int, default=None,
                        dest="legalize_threads", metavar="N",
                        help="worker threads for the banded snap (default 1)")
    parser.add_argument("--improver-min-gain", type=float, default=None,
                        dest="improver_min_gain", metavar="FRAC",
                        help="stop detailed improvement when a pass gains "
                             "less than this fraction of HPWL (default 0 = "
                             "run every pass)")
    parser.add_argument("--verbose", action="store_true")
    if checkpointing:
        parser.add_argument("--deadline", type=float, default=None,
                            metavar="SECONDS",
                            help="per-run wall-clock budget; on expiry the "
                                 "best placement seen so far is returned")
        parser.add_argument("--checkpoint", metavar="PATH",
                            help="periodically snapshot the run state here")
        parser.add_argument("--checkpoint-every", type=int, default=10,
                            metavar="N", help="iterations between snapshots "
                            "(default 10)")
        parser.add_argument("--resume", action="store_true",
                            help="resume from --checkpoint if it exists")


def _batch_source(args):
    """The (picklable) job source string/path for batch/sweep commands."""
    if args.circuit:
        return args.circuit
    if args.netlist:
        return args.netlist
    raise SystemExit("need --circuit NAME or --netlist FILE")


def _parse_seeds(args) -> list:
    """``--seeds 0,1,2`` wins; else ``--jobs N`` means seeds 0..N-1."""
    if args.seeds:
        try:
            return [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise SystemExit(f"malformed --seeds {args.seeds!r}")
    return list(range(args.jobs))


def _print_progress(result, done: int, total: int) -> None:
    if result.ok:
        line = (f"  [{done}/{total}] {result.name}: "
                f"hpwl {result.final_hpwl_m:.4f} m, "
                f"{result.iterations} it, {result.seconds:.2f}s")
        if result.timed_out:
            line += " (deadline hit)"
    else:
        line = (f"  [{done}/{total}] {result.name}: FAILED "
                f"({result.error_type}: {result.error})")
    print(line, flush=True)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_stats(args) -> int:
    from .evaluation import format_table

    netlist, region = _load_design(args)
    stats = netlist.stats()
    rows = [[key, value] for key, value in stats.items()]
    rows.append(["region W x H [um]", f"{region.width:.0f} x {region.height:.0f}"])
    rows.append(["rows", region.num_rows])
    print(format_table(["metric", "value"], rows, title=f"circuit {netlist.name}"))
    return 0


def cmd_place(args) -> int:
    from .core import KraftwerkPlacer, PlacerConfig
    from .evaluation import distribution_stats, hpwl_meters, total_overlap
    from .legalize import final_placement
    from .netlist import save_netlist, save_placement, validate_netlist

    netlist, region = _load_design(args)
    netlist, report = validate_netlist(netlist, region=region, strict=args.strict)
    if report.issues:
        print(f"validation      : {report.summary()}", file=sys.stderr)
    config = PlacerConfig.from_args(args)
    resume_from = None
    if args.resume:
        if not args.checkpoint:
            raise SystemExit("--resume needs --checkpoint PATH")
        if Path(args.checkpoint).exists():
            resume_from = args.checkpoint
        else:
            print(f"no checkpoint at {args.checkpoint}; starting fresh",
                  file=sys.stderr)
    t0 = time.perf_counter()
    if config.multilevel_levels > 0:
        from .core.multilevel import MultilevelPlacer

        ml = MultilevelPlacer(netlist, region, config).place(
            resume_from=resume_from
        )
        result = ml.refine_result
        iterations = ml.total_iterations
        if ml.coarse_results:
            coarsest = ml.coarse_results[0].placement.netlist.num_movable
            print(f"multilevel      : {ml.levels} coarsening levels, "
                  f"coarsest {coarsest} cells")
        else:
            print("multilevel      : netlist too small to coarsen")
    else:
        result = KraftwerkPlacer(netlist, region, config).place(
            resume_from=resume_from
        )
        iterations = result.iterations
    placement = result.placement
    status = f"converged={result.converged}"
    if result.timed_out:
        status += ", deadline hit: returning best placement seen"
    if result.recovery_escalations:
        status += f", {result.recovery_escalations} solver recovery escalations"
    print(f"global placement: {result.hpwl_m:.4f} m in {iterations} "
          f"transformations ({time.perf_counter() - t0:.1f}s, {status})")
    if args.legalize:
        placement = final_placement(
            placement,
            region,
            bands=config.legalize_bands,
            threads=config.legalize_threads,
            improver_min_gain=config.improver_min_gain,
        )
        print(f"final placement : {hpwl_meters(placement):.4f} m "
              f"(overlap {total_overlap(placement):.2f} um^2)")
    dist = distribution_stats(placement, region)
    print(f"distribution    : peak density {dist.max_density:.2f}, "
          f"largest empty square {dist.empty_square_ratio:.1f}x avg cell")
    if args.out:
        base = Path(args.out)
        base.parent.mkdir(parents=True, exist_ok=True)
        save_netlist(netlist, base.with_suffix(".netlist"))
        save_placement(placement, base.with_suffix(".placement"))
        print(f"wrote {base.with_suffix('.netlist')} and "
              f"{base.with_suffix('.placement')}")
        if args.svg:
            from .viz import placement_svg

            placement_svg(placement, region, base.with_suffix(".svg"))
            print(f"wrote {base.with_suffix('.svg')}")
    elif args.svg:
        raise SystemExit("--svg needs --out BASEPATH")
    return 0


def cmd_batch(args) -> int:
    from .core import PlacerConfig
    from .parallel import PlacementJob, resolve_workers, run_batch

    source = _batch_source(args)
    seeds = _parse_seeds(args)
    config = PlacerConfig.from_args(args).to_dict()
    config["deadline_seconds"] = args.deadline
    jobs = [
        PlacementJob(
            source=source,
            seed=seed,
            config=config,
            legalize=args.legalize,
            max_iterations=args.max_iterations,
            scale=args.scale,
            utilization=args.utilization,
        )
        for seed in seeds
    ]
    workers = resolve_workers(args.workers)

    serial = None
    if args.compare_serial:
        print(f"batch {source}: {len(jobs)} jobs, serial baseline", flush=True)
        serial = run_batch(
            jobs, workers=0, keep_placements=False, progress=_print_progress
        )
    print(f"batch {source}: {len(jobs)} jobs, {workers} workers "
          f"({args.mp_context})", flush=True)
    batch = run_batch(
        jobs,
        workers=workers,
        mp_context=args.mp_context,
        trace_dir=args.trace_dir,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        keep_placements=False,
        progress=_print_progress,
    )

    ok, failed = batch.ok_jobs, batch.failed_jobs
    print(f"batch summary   : {len(ok)}/{len(batch.jobs)} jobs ok, "
          f"wall {batch.wall_seconds:.2f}s, "
          f"speedup est {batch.speedup_estimate:.2f}x "
          f"(serial est {batch.serial_seconds_estimate:.2f}s)")
    if batch.best is not None:
        print(f"best / median   : {batch.best_hpwl_m:.4f} m ({batch.best.name}) "
              f"/ {batch.median_hpwl_m:.4f} m")
    for job in failed:
        print(f"failed          : {job.name}: {job.error_type}: {job.error}",
              file=sys.stderr)

    identical = None
    if serial is not None:
        identical = serial.hpwls == batch.hpwls and len(serial.ok_jobs) == len(ok)
        speedup = (serial.wall_seconds / batch.wall_seconds
                   if batch.wall_seconds > 0 else 1.0)
        print(f"vs serial       : serial wall {serial.wall_seconds:.2f}s, "
              f"measured speedup {speedup:.2f}x, "
              f"per-job HPWLs {'bit-identical' if identical else 'MISMATCH'}")

    summary = batch.summary()
    if serial is not None:
        summary["serial_wall_seconds"] = round(serial.wall_seconds, 6)
        summary["measured_speedup"] = round(
            serial.wall_seconds / batch.wall_seconds
            if batch.wall_seconds > 0 else 1.0, 4
        )
        summary["hpwls_identical_to_serial"] = identical
    if args.out:
        import json as _json

        out = Path(args.out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            _json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
    if args.record_bench:
        from .observability.bench import merge_batch_record

        merge_batch_record(args.record_bench, summary)
        print(f"recorded batch run in {args.record_bench}")
    if failed:
        from collections import Counter

        classes = Counter(j.error_type or "unknown" for j in failed)
        print("failure classes : "
              + ", ".join(f"{name} x{count}"
                          for name, count in sorted(classes.items())),
              file=sys.stderr)
        if not ok:
            # Same contract as the single-run CLI: exit 2 when *nothing*
            # succeeded (vs 1 for a partial failure).
            return 2
    if failed or identical is False:
        return 1
    return 0


def cmd_sweep(args) -> int:
    import itertools
    import json as _json

    from .core import PlacerConfig
    from .evaluation import format_table
    from .parallel import PlacementJob, run_batch

    source = _batch_source(args)
    try:
        k_values = [float(k) for k in args.K.split(",") if k.strip()]
        models = [m.strip() for m in args.net_models.split(",") if m.strip()]
        if args.jobs is not None:
            seeds = list(range(args.jobs))
        else:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise SystemExit(f"malformed sweep argument: {exc}")
    if not (k_values and models and seeds):
        raise SystemExit("sweep needs at least one K, net model and seed")

    jobs = []
    for K, model, seed in itertools.product(k_values, models, seeds):
        config = PlacerConfig(K=K, net_model=model).to_dict()
        jobs.append(PlacementJob(
            source=source,
            seed=seed,
            config=config,
            name=f"{source}-K{K:g}-{model}-s{seed}",
            legalize=args.legalize,
            max_iterations=args.max_iterations,
            scale=args.scale,
            utilization=args.utilization,
        ))
    print(f"sweep {source}: {len(jobs)} jobs "
          f"({len(k_values)} K x {len(models)} models x {len(seeds)} seeds)",
          flush=True)
    batch = run_batch(
        jobs,
        workers=args.workers,
        mp_context=args.mp_context,
        keep_placements=False,
        progress=_print_progress,
    )

    rows = []
    combos = []
    for K, model in itertools.product(k_values, models):
        combo = [j for j in batch.ok_jobs
                 if j.name.startswith(f"{source}-K{K:g}-{model}-")]
        if not combo:
            rows.append([f"{K:g}", model, "-", "-", "-", "-"])
            continue
        hpwls = sorted(j.final_hpwl_m for j in combo)
        median = hpwls[len(hpwls) // 2] if len(hpwls) % 2 else (
            0.5 * (hpwls[len(hpwls) // 2 - 1] + hpwls[len(hpwls) // 2])
        )
        mean_it = sum(j.iterations for j in combo) / len(combo)
        secs = sum(j.seconds for j in combo)
        rows.append([f"{K:g}", model, f"{hpwls[0]:.4f}", f"{median:.4f}",
                     f"{mean_it:.1f}", f"{secs:.2f}"])
        combos.append({
            "K": K, "net_model": model, "seeds": [j.seed for j in combo],
            "best_hpwl_m": hpwls[0], "median_hpwl_m": median,
            "mean_iterations": mean_it, "seconds": secs,
        })
    print(format_table(
        ["K", "model", "best hpwl [m]", "median [m]", "mean iters", "cpu [s]"],
        rows, title=f"sweep {source}"))
    print(f"wall {batch.wall_seconds:.2f}s, {batch.workers} workers, "
          f"speedup est {batch.speedup_estimate:.2f}x")
    for job in batch.failed_jobs:
        print(f"failed: {job.name}: {job.error_type}: {job.error}",
              file=sys.stderr)
    if args.out:
        summary = batch.summary()
        summary["combos"] = combos
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(
            _json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
    return 1 if batch.failed_jobs else 0


def cmd_timing(args) -> int:
    from .evaluation import format_table
    from .netlist import load_placement
    from .timing import StaticTimingAnalyzer

    netlist, region = _load_design(args)
    if not args.placement:
        raise SystemExit("timing needs --placement FILE")
    placement = load_placement(netlist, args.placement)
    analyzer = StaticTimingAnalyzer(netlist)
    sta = analyzer.analyze(placement)
    bound = analyzer.lower_bound_ns()
    print(f"longest path : {sta.max_delay_ns:.3f} ns "
          f"(zero-wire bound {bound:.3f} ns)")
    names = [netlist.cells[i].name for i in sta.critical_path]
    print(f"critical path ({len(names)} cells): " + " -> ".join(names[:12])
          + (" ..." if len(names) > 12 else ""))
    critical = sta.critical_nets(0.03)
    rows = [
        [netlist.nets[j].name, netlist.nets[j].degree, sta.net_slack_ns[j]]
        for j in critical[:10]
    ]
    print(format_table(["net", "pins", "slack [ns]"], rows,
                       title="most critical nets"))
    return 0


def cmd_route(args) -> int:
    from .congestion import PatternRouter
    from .netlist import load_placement

    netlist, region = _load_design(args)
    if not args.placement:
        raise SystemExit("route needs --placement FILE")
    placement = load_placement(netlist, args.placement)

    router = PatternRouter(
        region, bins=args.bins, tracks_per_edge=args.tracks
    )
    result = router.route(placement)
    print(f"routed wirelength : {result.wirelength_um / 1e6:.4f} m")
    print(f"total overflow    : {result.total_overflow:.1f} "
          f"(max utilization {result.max_usage_ratio:.2f})")
    print(f"rip-up iterations : {result.iterations}")
    if args.svg:
        from .viz import heatmap_svg

        heatmap_svg(router.grid, result.congestion_map(), args.svg)
        print(f"wrote congestion map {args.svg}")
    return 0


def cmd_bench(args) -> int:
    # Imported lazily: bench pulls in the whole placer stack.
    from .observability.bench import resolve_sizes, write_bench_report

    # --sizes (comma list or "all") wins; legacy --size selects one size;
    # with neither, the full tiny/small/medium sweep runs.
    spec = args.sizes if args.sizes is not None else args.size
    try:
        sizes = resolve_sizes(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = write_bench_report(
        sizes,
        out_path=args.out,
        seed=args.seed,
        legalize=not args.no_legalize,
        trace_path=args.trace,
        profile=args.profile,
    )
    for run in report["runs"]:
        phases = run["phases"]
        shares = run["phase_shares"]["shares"]
        hot = sorted(phases.items(), key=lambda kv: -kv[1])[:3]
        hot_str = ", ".join(
            f"{name} {sec:.3f}s ({shares[name]:.0%})" for name, sec in hot
        )
        det = "ok" if run["determinism"]["deterministic"] else "MISMATCH"
        print(
            f"bench {run['size']:<6}: hpwl {run['final_hpwl_m']:.4f} m, "
            f"{run['iterations']} iterations, "
            f"{run['total_seconds']:.2f}s total, determinism {det}"
        )
        print(f"  hot phases: {hot_str}")
        bottleneck = run["phase_shares"]["bottleneck"]
        top_phase = run["phase_shares"]["top_phase"]
        if bottleneck is not None:
            print(
                f"  BOTTLENECK: {bottleneck} takes "
                f"{shares[bottleneck]:.0%} of phase time"
            )
        elif top_phase is not None:
            print(
                f"  top phase: {top_phase} ({shares[top_phase]:.0%} "
                f"of phase time)"
            )
    print(f"wrote {args.out}")
    if args.trace:
        print(f"wrote trace {args.trace}")
    return 0 if report["deterministic"] else 1


def _load_job_specs(path) -> list:
    """Read a jobs file: a JSON list of specs, or ``{"jobs": [...]}``."""
    import json as _json

    data = _json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data = data.get("jobs")
    if not isinstance(data, list):
        raise SystemExit(f"{path}: expected a JSON list of job specs "
                         f"(or an object with a 'jobs' list)")
    return [dict(spec) for spec in data]


def _print_job_result(summary: dict) -> None:
    state = summary.get("state")
    job_id = summary.get("job_id")
    if state == "done":
        hpwl = summary.get("final_hpwl_m") or summary.get("hpwl_m")
        attempts = summary.get("n_attempts", 1)
        line = f"  {job_id}: done, hpwl {hpwl:.4f} m"
        if attempts > 1:
            line += f" ({attempts} attempts)"
        print(line, flush=True)
    else:
        reason = summary.get("reason") or summary.get("error")
        print(f"  {job_id}: {state} ({reason})", flush=True)


def cmd_serve(args) -> int:
    from .service import (
        PlacementService,
        RetryPolicy,
        ServiceConfig,
        ServiceJob,
    )

    if bool(args.jobs_file) == bool(args.listen):
        raise SystemExit("serve needs exactly one of --jobs FILE or "
                         "--listen [HOST:]PORT")
    retry_on = tuple(
        s.strip() for s in args.retry_on.split(",") if s.strip()
    )
    config = ServiceConfig(
        workers=args.workers,
        mp_context=args.mp_context,
        job_timeout_seconds=args.job_timeout,
        retry=RetryPolicy(
            max_attempts=args.max_attempts,
            retry_on=retry_on,
            backoff_base_s=args.backoff_base,
            backoff_cap_s=args.backoff_cap,
        ),
        max_queue_depth=args.max_queue_depth,
        tenant_quota=args.tenant_quota,
        cache_bytes=args.cache_bytes,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        trace_dir=args.trace_dir,
    )
    parse_rejects = 0
    with PlacementService(config, events=args.events) as service:
        if args.jobs_file:
            specs = _load_job_specs(args.jobs_file)
            print(f"serve: {len(specs)} jobs, {args.workers} workers "
                  f"({service.pool.mp_context})", flush=True)
            for index, spec in enumerate(specs):
                job_id = str(spec.pop("id", None) or f"j{index + 1:05d}")
                try:
                    ticket = service.submit(
                        ServiceJob.from_spec(spec, job_id=job_id)
                    )
                except ValueError as exc:
                    parse_rejects += 1
                    print(f"  rejected {job_id}: {exc}", file=sys.stderr)
                    continue
                if not ticket.admitted:
                    print(f"  shed {job_id}: {ticket.reason}",
                          file=sys.stderr)
            for record in service.drain():
                if record.state.value not in ("shed",):
                    _print_job_result(record.to_dict())
        else:
            from .service.net import PlacementServer

            host, port = _parse_hostport(args.listen)
            with PlacementServer(service, host=host, port=port) as server:
                bound_host, bound_port = server.address
                print(f"serve: listening on {bound_host}:{bound_port} "
                      f"({args.workers} workers); Ctrl-C to drain",
                      flush=True)
                try:
                    while True:
                        time.sleep(0.5)
                except KeyboardInterrupt:
                    print("serve: interrupted; draining", file=sys.stderr)
            service.drain()
        report = service.report()

    print(f"serve summary   : {report['n_done']}/{report['n_submitted']} "
          f"done, {report['n_failed']} failed, {report['n_shed']} shed, "
          f"{report['retries']} retries")
    worker = report["worker"]
    print(f"workers         : {worker['spawns']} spawns, "
          f"{worker['deaths']} deaths, {worker['restarts']} restarts")
    latency = report["latency"]
    if latency["n"]:
        print(f"latency         : p50 {latency['p50_s']:.3f}s, "
              f"p99 {latency['p99_s']:.3f}s over {latency['n']} jobs")
    if report["failure_classes"]:
        print("failure classes : "
              + ", ".join(f"{name} x{count}" for name, count
                          in sorted(report["failure_classes"].items())),
              file=sys.stderr)
    if args.out:
        import json as _json

        out = Path(args.out)
        if out.parent != Path(""):
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            _json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")

    total = report["n_submitted"] + parse_rejects
    bad = (report["n_failed"] + report["n_shed"]
           + report["n_cancelled"] + parse_rejects)
    if total > 0 and report["n_done"] == 0:
        return 2  # nothing succeeded — same contract as batch/place
    return 1 if bad else 0


#: Exit codes ``repro submit`` returns per structured shed reason, so a
#: shell wrapper can tell "back off and retry" (queue_full, tenant_quota)
#: from "stop submitting" (draining, closed) without parsing stderr.
SHED_EXIT = {"queue_full": 3, "tenant_quota": 4, "draining": 5, "closed": 6}


def _shed_exit(job_id: str, reason) -> int:
    print(f"shed {job_id}: {reason}", file=sys.stderr)
    return SHED_EXIT.get(str(reason), 1)


def _parse_hostport(value: str):
    host, _, port = value.rpartition(":")
    try:
        return (host or "127.0.0.1"), int(port)
    except ValueError:
        raise SystemExit(f"expected HOST:PORT, got {value!r}")


def cmd_submit(args) -> int:
    from .api import Client

    if not args.connect:
        raise SystemExit("submit needs --connect HOST:PORT (a repro serve "
                         "--listen server)")
    host, port = _parse_hostport(args.connect)
    source = _batch_source(args)
    with Client.connect(host, port, token=args.tenant) as client:
        handle = client.submit(
            str(source),
            seed=args.seed,
            scale=args.scale,
            utilization=args.utilization,
            legalize=not args.no_legalize,
            max_iterations=args.max_iterations,
            priority=args.priority,
            timeout_seconds=args.timeout,
            job_id=args.id,
        )
        if not handle.admitted:
            return _shed_exit(handle.job_id, handle.shed_reason)
        cached = " (cache hit)" if handle.cached else ""
        print(f"submitted {handle.job_id}{cached}")
        if not args.wait:
            return 0
        record = handle.result(timeout=args.wait_timeout)
        if record is None:
            print(f"timed out waiting for {handle.job_id}", file=sys.stderr)
            return 1
        _print_job_result(record.to_dict())
        return 0 if record.state.value == "done" else 1


def cmd_convert(args) -> int:
    from .netlist import load_placement, save_bookshelf

    netlist, region = _load_design(args)
    placement = (
        load_placement(netlist, args.placement) if args.placement else None
    )
    if not args.bookshelf:
        raise SystemExit("convert needs --bookshelf BASEPATH")
    aux = save_bookshelf(netlist, region, args.bookshelf, placement)
    print(f"wrote {aux} (+ .nodes/.nets/.pl/.scl)")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kraftwerk (DAC 1998) force-directed placement toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print circuit statistics")
    _add_design_args(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_place = sub.add_parser("place", help="run global placement")
    _add_design_args(p_place)
    _add_placer_args(p_place)
    p_place.add_argument("--legalize", action="store_true",
                         help="run final placement (Abacus + improvement)")
    p_place.add_argument("--out", help="basepath for .netlist/.placement output")
    p_place.add_argument("--svg", action="store_true",
                         help="also write an SVG rendering (needs --out)")
    p_place.add_argument("--strict", action="store_true",
                         help="reject repairable netlist defects instead of "
                              "fixing them")
    p_place.set_defaults(func=cmd_place)

    p_batch = sub.add_parser(
        "batch", help="run many jobs of one design over the batch engine"
    )
    _add_design_args(p_batch)
    _add_placer_args(p_batch, checkpointing=False)
    p_batch.add_argument("--jobs", type=int, default=8,
                         help="number of jobs; seeds 0..N-1 (default 8)")
    p_batch.add_argument("--seeds",
                         help="explicit comma-separated seed list "
                              "(overrides --jobs)")
    p_batch.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: CPU count; "
                              "0 = serial in-process)")
    p_batch.add_argument("--mp-context", default="auto", dest="mp_context",
                         choices=["auto", "fork", "spawn", "forkserver"],
                         help="multiprocessing start method (default auto)")
    p_batch.add_argument("--legalize", action="store_true",
                         help="also legalize each job's placement")
    p_batch.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS", help="per-job wall-clock budget")
    p_batch.add_argument("--checkpoint-dir", metavar="DIR",
                         dest="checkpoint_dir",
                         help="per-job resumable snapshots under DIR")
    p_batch.add_argument("--checkpoint-every", type=int, default=10,
                         metavar="N", help="iterations between snapshots")
    p_batch.add_argument("--resume", action="store_true",
                         help="resume jobs from --checkpoint-dir snapshots")
    p_batch.add_argument("--trace-dir", metavar="DIR", dest="trace_dir",
                         help="write per-job JSONL traces under DIR")
    p_batch.add_argument("--out", help="write the merged batch summary JSON here")
    p_batch.add_argument("--compare-serial", action="store_true",
                         dest="compare_serial",
                         help="also run the batch serially and report the "
                              "measured speedup + HPWL identity check")
    p_batch.add_argument("--record-bench", metavar="PATH", dest="record_bench",
                         help="merge the batch record into this "
                              "BENCH_kraftwerk.json")
    p_batch.set_defaults(func=cmd_batch)

    p_sweep = sub.add_parser(
        "sweep", help="K/net-model/seed parameter sweep over the batch engine"
    )
    _add_design_args(p_sweep)
    p_sweep.add_argument("--K", default="0.2,1.0",
                         help="comma-separated K values (default 0.2,1.0)")
    p_sweep.add_argument("--net-models", default="clique", dest="net_models",
                         help="comma-separated net models (clique,b2b)")
    p_sweep.add_argument("--seeds", default="0",
                         help="comma-separated seed list (default 0)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="alternative to --seeds: use seeds 0..N-1")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: CPU count; "
                              "0 = serial in-process)")
    p_sweep.add_argument("--mp-context", default="auto", dest="mp_context",
                         choices=["auto", "fork", "spawn", "forkserver"])
    p_sweep.add_argument("--legalize", action="store_true",
                         help="also legalize each job's placement")
    p_sweep.add_argument("--max-iterations", type=int, default=None,
                         dest="max_iterations", metavar="N")
    p_sweep.add_argument("--out", help="write the sweep summary JSON here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_timing = sub.add_parser("timing", help="longest-path analysis")
    _add_design_args(p_timing)
    p_timing.add_argument("--placement", help="repro placement file")
    p_timing.set_defaults(func=cmd_timing)

    p_route = sub.add_parser("route", help="global-route a placement")
    _add_design_args(p_route)
    p_route.add_argument("--placement", help="repro placement file")
    p_route.add_argument("--bins", type=int, default=24)
    p_route.add_argument("--tracks", type=float, default=12.0,
                         help="routing tracks per grid edge")
    p_route.add_argument("--svg", help="write the congestion map here")
    p_route.set_defaults(func=cmd_route)

    p_bench = sub.add_parser(
        "bench", help="run the telemetry/regression bench suite"
    )
    p_bench.add_argument("--sizes", default=None,
                         help="comma-separated sizes or 'all' "
                              "(default: all of tiny,small,medium)")
    p_bench.add_argument("--size", default=None,
                         choices=["tiny", "small", "medium", "large",
                                  "huge", "all"],
                         help="single size (legacy alias for --sizes)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="BENCH_kraftwerk.json",
                         help="report path (default BENCH_kraftwerk.json)")
    p_bench.add_argument("--profile", action="store_true",
                         help="attach cProfile top-15 cumulative functions "
                              "for the place and legalize phases")
    p_bench.add_argument("--no-legalize", action="store_true",
                         help="skip the final placement step")
    p_bench.add_argument("--trace",
                         help="also write the primary run's JSONL trace here")
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="run the fault-tolerant placement service"
    )
    p_serve.add_argument("--jobs", dest="jobs_file", metavar="FILE",
                         help="JSON jobs file (list of job specs); serve "
                              "them all, drain, and exit")
    p_serve.add_argument("--listen", metavar="[HOST:]PORT",
                         help="serve the repro-wire/1 TCP protocol until "
                              "interrupted (see docs/SERVICE.md)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="supervised worker processes (default 2)")
    p_serve.add_argument("--mp-context", default="auto", dest="mp_context",
                         choices=["auto", "fork", "spawn", "forkserver"])
    p_serve.add_argument("--max-queue-depth", type=int, default=64,
                         dest="max_queue_depth", metavar="N",
                         help="admission bound on waiting jobs (default 64)")
    p_serve.add_argument("--tenant-quota", type=int, default=None,
                         dest="tenant_quota", metavar="N",
                         help="max queued+running jobs per tenant "
                              "(default: no quota)")
    p_serve.add_argument("--cache-bytes", type=int,
                         default=256 * 1024 * 1024, dest="cache_bytes",
                         metavar="BYTES",
                         help="result-cache budget; 0 disables the cache "
                              "(default 256 MiB)")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         dest="job_timeout", metavar="SECONDS",
                         help="per-job wall-clock watchdog (default: none)")
    p_serve.add_argument("--max-attempts", type=int, default=3,
                         dest="max_attempts", metavar="N",
                         help="attempts per job incl. the first (default 3)")
    p_serve.add_argument("--retry-on",
                         default="worker_death,timeout,numerical",
                         dest="retry_on",
                         help="comma-separated retryable failure classes "
                              "(default worker_death,timeout,numerical)")
    p_serve.add_argument("--backoff-base", type=float, default=0.05,
                         dest="backoff_base", metavar="SECONDS")
    p_serve.add_argument("--backoff-cap", type=float, default=2.0,
                         dest="backoff_cap", metavar="SECONDS")
    p_serve.add_argument("--checkpoint-dir", metavar="DIR",
                         dest="checkpoint_dir",
                         help="per-job snapshots under DIR (enables "
                              "cross-worker migration on retry)")
    p_serve.add_argument("--checkpoint-every", type=int, default=5,
                         dest="checkpoint_every", metavar="N",
                         help="iterations between snapshots (default 5)")
    p_serve.add_argument("--trace-dir", metavar="DIR", dest="trace_dir",
                         help="per-job JSONL telemetry traces under DIR")
    p_serve.add_argument("--events", metavar="PATH",
                         help="stream lifecycle events to this JSONL file")
    p_serve.add_argument("--out", help="write the service report JSON here")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit one job to a repro serve --listen server over TCP",
    )
    _add_design_args(p_submit)
    p_submit.add_argument("--connect", metavar="HOST:PORT",
                          help="submit over the repro-wire/1 protocol to a "
                               "repro serve --listen server")
    p_submit.add_argument("--id",
                          help="job id (default: assigned by the server)")
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--max-iterations", type=int, default=None,
                          dest="max_iterations", metavar="N")
    p_submit.add_argument("--no-legalize", action="store_true",
                          dest="no_legalize",
                          help="skip legalization for this job")
    p_submit.add_argument("--priority", type=int, default=0,
                          help="queue priority; lower runs first (default 0)")
    p_submit.add_argument("--tenant", default="default",
                          help="tenant for quota accounting")
    p_submit.add_argument("--timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="per-job wall-clock watchdog override")
    p_submit.add_argument("--wait", action="store_true",
                          help="wait for the job's result and print it")
    p_submit.add_argument("--wait-timeout", type=float, default=300.0,
                          dest="wait_timeout", metavar="SECONDS",
                          help="--wait deadline (default 300)")
    p_submit.set_defaults(func=cmd_submit)

    p_convert = sub.add_parser("convert", help="export to Bookshelf")
    _add_design_args(p_convert)
    p_convert.add_argument("--placement", help="repro placement file")
    p_convert.add_argument("--bookshelf", help="output basepath")
    p_convert.set_defaults(func=cmd_convert)
    return parser


def main(argv: Optional[list] = None) -> int:
    from .perf import tune_allocator

    tune_allocator()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArithmeticError as exc:
        # Only a command that ran the placer can raise this, so the
        # import below costs nothing new.
        from .core.health import NumericalHealthError

        if not isinstance(exc, NumericalHealthError):
            raise
        print(f"error: numerical health check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
