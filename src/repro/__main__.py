"""Command-line interface: reproduce the paper from a shell.

Usage::

    python -m repro list                      # all experiment ids
    python -m repro run table5                # one table/figure
    python -m repro run table5 fig3 autopar   # several
    python -m repro all                       # everything
    python -m repro all -j 4 --profile        # in parallel, with timings
    python -m repro all --metrics             # per-experiment sim rollups
    python -m repro report                    # EXPERIMENTS.md to stdout
    python -m repro trace table5 -o t5.json   # Chrome/Perfetto trace
    python -m repro bench                     # cohort-vs-DES kernel timings
    python -m repro bench --verify            # every registry cell vs pure DES
    python -m repro race table5 table11       # race/sync-hazard detector
    python -m repro race --all --fixtures --json race.json
    python -m repro chaos table5 --seed 7     # fault-injected runs
    python -m repro chaos --all --faults streams:0.5:0.8 --json chaos.json
    python -m repro sweep --list              # named factorial sweeps
    python -m repro sweep ci -j 4 --verify    # expand + run + parity-check
    python -m repro sweep full --manifest sweep.json
    python -m repro feedback                  # compiler feedback, Programs 1-4
    python -m repro cache info                # persistent result cache
    python -m repro cache clear
    python -m repro runs list                 # durable run artifacts
    python -m repro runs show <run-id>
    python -m repro runs diff <run-a> <run-b>
    python -m repro runs query --cell exemplar16 --since <rev>
    python -m repro runs reindex              # rebuild index from artifacts
    python -m repro serve --port 0            # simulation job server (NDJSON/TCP)
    python -m repro load --connect HOST:PORT --json BENCH_service.json

Options::

    --threat-scale 0.02    kernel scale for Threat Analysis (default 0.02)
    --terrain-scale 0.05   kernel scale for Terrain Masking (default 0.05)
    --jobs/-j N            worker processes for all/report (default 1)
    --profile              per-experiment wall time + cache hits/misses

Simulation results persist in ``.repro_cache/`` (override with
``REPRO_CACHE_DIR``; disable with ``REPRO_NO_CACHE=1``), so repeated
invocations skip already-simulated runs.  Every ``all`` / ``report`` /
``bench`` / ``chaos`` invocation additionally writes a durable run
directory under ``.repro_runs/`` (override with ``REPRO_RUNS_DIR``;
disable with ``REPRO_NO_RUNS=1``) -- manifest, per-cell JSONL stream
and machine-readable report -- indexed into SQLite for ``repro runs``.
``REPRO_ENGINE=closed|stepped|des`` picks the engine (default
``closed``); all three produce the same tables.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import BenchmarkData, list_experiments, run_experiment
from repro.harness.calibration import (
    DEFAULT_TERRAIN_SCALE,
    DEFAULT_THREAT_SCALE,
)
from repro.workload.cohort import resolve_engine


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the SC'98 Tera MTA / C3IPBS evaluation.")
    parser.add_argument("--threat-scale", type=float,
                        default=DEFAULT_THREAT_SCALE,
                        help="kernel scale for Threat Analysis")
    parser.add_argument("--terrain-scale", type=float,
                        default=DEFAULT_TERRAIN_SCALE,
                        help="kernel scale for Terrain Masking")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")
    run_p = sub.add_parser("run", help="run experiments by id")
    run_p.add_argument("ids", nargs="+", metavar="ID")
    run_p.add_argument("--json", metavar="PATH", default=None,
                       help="also write the results as JSON")
    all_p = sub.add_parser("all", help="run every experiment")
    report_p = sub.add_parser("report", help="print EXPERIMENTS.md content")
    for p in (all_p, report_p):
        p.add_argument("--jobs", "-j", type=int, default=1,
                       metavar="N",
                       help="worker processes (default 1: serial, "
                            "in-process)")
        p.add_argument("--profile", action="store_true",
                       help="print per-experiment wall time and cache "
                            "hit/miss counts")
    all_p.add_argument("--metrics", action="store_true",
                       help="print per-experiment simulation rollups "
                            "(regions, wall split, lock contention)")
    all_p.add_argument("--metrics-json", metavar="PATH", default=None,
                       help="write the rollups (plus every per-run "
                            "stats record) as JSON")
    trace_p = sub.add_parser(
        "trace",
        help="run one experiment with event tracing and export a "
             "Chrome-trace JSON (chrome://tracing / Perfetto)")
    trace_p.add_argument("id", metavar="ID")
    trace_p.add_argument("--output", "-o", metavar="PATH", default=None,
                         help="trace file (default: trace-<ID>.json)")
    trace_p.add_argument("--max-events", type=int, default=1_000_000,
                         metavar="N",
                         help="record cap; past it records are counted "
                              "but dropped (default 1000000)")
    bench_p = sub.add_parser(
        "bench",
        help="measure the cohort fast path against pure DES")
    bench_p.add_argument("--repeat", type=int, default=3, metavar="N",
                         help="best-of-N wall clock (default 3)")
    bench_p.add_argument("--json", metavar="PATH", default=None,
                         help="also write the measurements as JSON")
    bench_p.add_argument("--verify", action="store_true",
                         help="instead of timing kernels, run every "
                              "distinct planned registry cell on pure "
                              "DES and on the REPRO_ENGINE engine (no "
                              "cache) and check seconds and lock wait "
                              "agree")
    race_p = sub.add_parser(
        "race",
        help="run the deterministic race / sync-hazard detector over "
             "experiments' simulated-thread jobs")
    race_p.add_argument("ids", nargs="*", metavar="ID",
                        help="experiment ids to analyze")
    race_p.add_argument("--all", action="store_true", dest="race_all",
                        help="analyze every registered experiment")
    race_p.add_argument("--fixtures", action="store_true",
                        help="also run the intentionally buggy fixtures "
                             "and require each to be flagged")
    race_p.add_argument("--json", metavar="PATH", default=None,
                        help="write the schema-versioned report as JSON")
    chaos_p = sub.add_parser(
        "chaos",
        help="run experiments under deterministic fault injection "
             "(stream revocation, bank hot-spots, cache degradation, "
             "latency inflation)")
    chaos_p.add_argument("ids", nargs="*", metavar="ID",
                         help="experiment ids to fault")
    chaos_p.add_argument("--all", action="store_true", dest="chaos_all",
                         help="fault every registered experiment")
    chaos_p.add_argument("--faults", metavar="SPEC", default=None,
                         help="comma-separated kind[:when[:severity]] "
                              "list (default: one fault of every kind, "
                              "times/severities derived from the seed)")
    chaos_p.add_argument("--seed", type=int, default=0, metavar="N",
                         help="closes open when/severity fields "
                              "deterministically (default 0)")
    chaos_p.add_argument("--json", metavar="PATH", default=None,
                         help="write the schema-versioned report as JSON")
    chaos_p.add_argument("--machines", metavar="LIST", default=None,
                         help="comma-separated platform archetypes to "
                              "fault: mta, conventional, cmt "
                              "(default mta,conventional)")
    sweep_p = sub.add_parser(
        "sweep",
        help="expand and run a named factorial sweep (taskbench "
             "topology x size x machine x seed grids; see "
             "repro.c3i.sweeps)")
    sweep_p.add_argument("name", nargs="?", default=None, metavar="NAME",
                         help="sweep name (see --list)")
    sweep_p.add_argument("--list", action="store_true",
                         dest="list_sweeps",
                         help="list the named sweeps and their sizes")
    sweep_p.add_argument("--jobs", "-j", type=int, default=1,
                         metavar="N",
                         help="worker processes (default 1)")
    sweep_p.add_argument("--verify", action="store_true",
                         help="additionally run every unique cell on "
                              "pure DES and on the REPRO_ENGINE engine "
                              "directly and check seconds and lock "
                              "wait agree")
    sweep_p.add_argument("--expand-only", action="store_true",
                         help="expand and fingerprint without running "
                              "any cell")
    sweep_p.add_argument("--json", metavar="PATH", default=None,
                         help="write the outcome payload as JSON")
    sweep_p.add_argument("--manifest", metavar="PATH", default=None,
                         help="write the full expansion manifest "
                              "(every cell payload) as JSON")
    sub.add_parser("feedback",
                   help="compiler feedback for Programs 1-4")
    cache_p = sub.add_parser(
        "cache", help="inspect or clear the persistent result cache")
    cache_p.add_argument("action", choices=("info", "clear"))
    runs_p = sub.add_parser(
        "runs",
        help="inspect durable run artifacts (.repro_runs/) and the "
             "cross-run SQLite index")
    runs_sub = runs_p.add_subparsers(dest="runs_command", required=True)
    runs_list_p = runs_sub.add_parser(
        "list", help="list indexed runs, newest first")
    runs_list_p.add_argument("--limit", "-n", type=int, default=None,
                             metavar="N", help="show at most N runs")
    runs_show_p = runs_sub.add_parser(
        "show", help="one run's manifest, checks and cells")
    runs_show_p.add_argument("run_id", metavar="RUN",
                             help="run id (unique prefix accepted)")
    runs_diff_p = runs_sub.add_parser(
        "diff", help="compare two runs' reproduced rows "
                     "(exit 1 on any difference)")
    runs_diff_p.add_argument("run_a", metavar="RUN_A")
    runs_diff_p.add_argument("run_b", metavar="RUN_B")
    runs_query_p = runs_sub.add_parser(
        "query", help="a cell's trajectory across runs")
    runs_query_p.add_argument("--cell", metavar="CELL", default=None,
                              help="cell id (exact, else substring)")
    runs_query_p.add_argument("--since", metavar="WHEN", default=None,
                              help="run-id/git-rev prefix or ISO "
                                   "timestamp lower bound")
    runs_query_p.add_argument("--limit", "-n", type=int, default=None,
                              metavar="N")
    runs_query_p.add_argument("--json", action="store_true",
                              dest="json_out",
                              help="machine-readable output")
    runs_sub.add_parser(
        "reindex", help="rebuild the SQLite index from the artifacts "
                        "(lossless)")
    serve_p = sub.add_parser(
        "serve",
        help="run the simulation job server (newline-delimited JSON "
             "over TCP; dedupes requests through the result cache and "
             "runs each request's misses as one engine job)")
    serve_p.add_argument("--host", default="127.0.0.1", metavar="HOST",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=0, metavar="PORT",
                         help="bind port; 0 picks an ephemeral port and "
                              "prints it on stdout before accepting "
                              "connections (default 0)")
    serve_p.add_argument("--jobs", "-j", type=int, default=1,
                         metavar="N",
                         help="worker processes per engine job "
                              "(default 1: in-process)")
    load_p = sub.add_parser(
        "load",
        help="drive a running 'repro serve' with seeded factorial "
             "load tables and publish throughput/latency quantiles")
    load_p.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="server address, e.g. 127.0.0.1:7341")
    load_p.add_argument("--mix", default="hot,scan", metavar="MIXES",
                        help="comma-separated request mixes "
                             "(hot, scan, stats; default hot,scan)")
    load_p.add_argument("--concurrency", default="1,4", metavar="LIST",
                        help="comma-separated worker counts "
                             "(default 1,4)")
    load_p.add_argument("--duration", type=float, default=2.0,
                        metavar="S",
                        help="seconds per factor cell (default 2)")
    load_p.add_argument("--seed", type=int, default=0, metavar="N",
                        help="request-stream seed (default 0)")
    load_p.add_argument("--no-warm", action="store_true",
                        help="skip the untimed cache-warming pass")
    load_p.add_argument("--json", metavar="PATH", default=None,
                        help="write the benchmark payload "
                             "(BENCH_service.json) here")
    return parser


def _cmd_list() -> int:
    for eid in list_experiments():
        print(eid)
    return 0


def _cmd_run(ids: list[str], data: BenchmarkData,
             json_path: str | None = None) -> int:
    status = 0
    results = []
    for eid in ids:
        try:
            result = run_experiment(eid, data)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        results.append(result)
        print(result.render())
        print()
        if not result.all_checks_pass():
            status = 1
    if json_path is not None:
        from repro.harness.store import dump_results
        dump_results(results, json_path)
    return status


def _cmd_all(data: BenchmarkData, jobs: int, profile: bool,
             metrics: bool = False,
             metrics_json: str | None = None, run=None) -> int:
    from repro.harness.parallel import (
        metrics_to_dict,
        render_metrics,
        render_profile,
        run_experiments,
    )

    results, profiles = run_experiments(
        threat_scale=data.threat_scale, terrain_scale=data.terrain_scale,
        jobs=jobs, data=data,
        cell_sink=run.cell_sink if run is not None else None)
    status = 0
    for result in results.values():
        print(result.render())
        print()
        if not result.all_checks_pass():
            status = 1
    if profile:
        print(render_profile(profiles))
    if metrics:
        print(render_metrics(profiles))
    if metrics_json is not None:
        from repro.harness.store import atomic_write_json

        atomic_write_json(metrics_json, metrics_to_dict(profiles))
    if run is not None:
        run.write_report(results.values(), profiles)
    return status


def _cmd_trace(experiment_id: str, data: BenchmarkData,
               output: str | None, max_events: int) -> int:
    import json

    from repro.obs.trace import (
        TraceRecorder,
        tracing,
        validate_chrome_trace,
    )

    recorder = TraceRecorder(max_events=max_events)
    with tracing(recorder):
        try:
            result = run_experiment(experiment_id, data)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    print(result.render())
    trace = recorder.to_chrome()
    validate_chrome_trace(trace)
    path = output or f"trace-{experiment_id}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    note = (f" ({recorder.dropped} records dropped; raise --max-events)"
            if recorder.dropped else "")
    print(f"\nwrote {len(trace['traceEvents'])} trace events to "
          f"{path}{note}")
    print("open in chrome://tracing or https://ui.perfetto.dev")
    return 0 if result.all_checks_pass() else 1


def _cmd_report(threat_scale: float, terrain_scale: float,
                jobs: int, profile: bool, run=None) -> int:
    import time

    from repro.harness.report import generate_with_results

    t0 = time.perf_counter()
    text, results, profiles = generate_with_results(
        threat_scale, terrain_scale, jobs=jobs,
        cell_sink=run.cell_sink if run is not None else None)
    sys.stdout.write(text)
    if profile:
        print(f"report generated in {time.perf_counter() - t0:.2f}s "
              f"({jobs} jobs)", file=sys.stderr)
    if run is not None:
        run.write_report(results.values(), profiles)
    return 0


def _cmd_cache(action: str) -> int:
    from repro.harness import store

    cache = store.ResultCache(store.cache_directory())
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results "
              f"from {cache.info()['directory']}")
        return 0
    info = cache.info()
    enabled = "yes" if store.cache_enabled() else "no (REPRO_NO_CACHE)"
    print(f"directory: {info['directory']}")
    print(f"enabled:   {enabled}")
    print(f"entries:   {info['entries']}")
    print(f"size:      {info['bytes'] / 1024:.1f} KiB")
    print(f"epoch:     {info['epoch']}  (model source + version hash; "
          f"entries from other epochs are ignored)")
    return 0


def _cmd_feedback() -> int:
    from repro.compiler import (
        parallelize,
        render_advisories,
        render_feedback,
        terrain_blocked_ir,
        terrain_sequential_ir,
        threat_chunked_ir,
        threat_sequential_ir,
    )

    for prog in (threat_sequential_ir(), threat_chunked_ir(),
                 terrain_sequential_ir(), terrain_blocked_ir()):
        result = parallelize(prog)
        print(render_feedback(result))
        print()
        print(render_advisories(result))
        print()
    return 0


def _cmd_serve(args, argv) -> int:
    import asyncio

    from repro.harness.rundir import (
        RunsRootError,
        ensure_runs_root,
        run_scope,
    )
    from repro.service.server import serve

    try:
        # fail *before* the socket opens on an unwritable runs root
        ensure_runs_root()
    except RunsRootError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    flags = {"threat_scale": args.threat_scale,
             "terrain_scale": args.terrain_scale,
             "host": args.host, "port": args.port, "jobs": args.jobs}
    with run_scope("serve", flags, argv=argv) as run:
        status = asyncio.run(serve(
            host=args.host, port=args.port,
            threat_scale=args.threat_scale,
            terrain_scale=args.terrain_scale, jobs=args.jobs, run=run))
        if run is not None:
            run.exit_status = status
    return status


def _cmd_load(args) -> int:
    import asyncio

    from repro.service.loadgen import render_payload, run_load

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"load: --connect must be HOST:PORT, got "
              f"{args.connect!r}", file=sys.stderr)
        return 2
    mixes = [m.strip() for m in args.mix.split(",") if m.strip()]
    try:
        concurrencies = [int(c) for c in args.concurrency.split(",")
                         if c.strip()]
    except ValueError:
        print(f"load: --concurrency must be comma-separated integers, "
              f"got {args.concurrency!r}", file=sys.stderr)
        return 2
    if not mixes or not concurrencies \
            or any(c < 1 for c in concurrencies):
        print("load: need at least one mix and positive concurrency",
              file=sys.stderr)
        return 2
    try:
        payload = asyncio.run(run_load(
            host, int(port_text), mixes=mixes,
            concurrencies=concurrencies, duration=args.duration,
            seed=args.seed, warm=not args.no_warm))
    except ValueError as exc:
        print(f"load: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"load: cannot reach {args.connect}: {exc}",
              file=sys.stderr)
        return 2
    print(render_payload(payload))
    if args.json is not None:
        from repro.harness.store import atomic_write_json

        atomic_write_json(args.json, payload, sort_keys=True)
        print(f"wrote {args.json}")
    failures = sum(c["errors"] for c in payload["factor_cells"])
    return 1 if failures else 0


def _cmd_runs(args) -> int:
    from repro.harness import index

    if args.runs_command == "list":
        return index.cmd_list(limit=args.limit)
    if args.runs_command == "show":
        return index.cmd_show(args.run_id)
    if args.runs_command == "diff":
        return index.cmd_diff(args.run_a, args.run_b)
    if args.runs_command == "query":
        return index.cmd_query(args.cell, args.since, args.limit,
                               args.json_out)
    if args.runs_command == "reindex":
        return index.cmd_reindex()
    return 2  # pragma: no cover


def _cmd_sweep(args, scales: dict, argv: list[str] | None) -> int:
    """``repro sweep``: expand/run a named factorial sweep."""
    from repro.c3i import sweeps as sw
    from repro.harness.store import atomic_write_json

    if args.list_sweeps:
        for name in sorted(sw.SWEEPS):
            sweep = sw.SWEEPS[name]
            print(f"{name:<8} {sweep.n_cells:>5} cells  "
                  f"{sweep.description}")
        return 0
    if args.name is None:
        print("sweep: give a sweep name or --list", file=sys.stderr)
        return 2
    try:
        sweep = sw.get_sweep(args.name)
    except KeyError as exc:
        print(f"sweep: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.manifest is not None:
        atomic_write_json(args.manifest, sw.expansion_manifest(sweep))
        print(f"wrote {args.manifest}")
    if args.expand_only:
        print(f"sweep {sweep.name}: {sweep.n_cells} cells, fingerprint "
              f"{sw.expansion_fingerprint(sweep)}")
        return 0

    from repro.harness.rundir import run_scope

    with run_scope("sweep", dict(scales, sweep=sweep.name,
                                 jobs=args.jobs, verify=args.verify),
                   argv=argv) as run:
        on_record = None
        if run is not None:
            on_record = lambda rec: run.record(  # noqa: E731
                f"sweep:{sweep.name}", rec)
        outcome = sw.run_sweep(
            sweep.name, threat_scale=scales["threat_scale"],
            terrain_scale=scales["terrain_scale"], jobs=args.jobs,
            verify=args.verify, on_record=on_record)
        status = 1 if outcome.verify_failures else 0
        if run is not None:
            run.write_report(payload=outcome.payload(sweep))
            run.exit_status = status
    if args.json is not None:
        atomic_write_json(args.json, outcome.payload(sweep))
        print(f"wrote {args.json}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "feedback":
        return _cmd_feedback()
    if args.command == "cache":
        return _cmd_cache(args.action)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "load":
        return _cmd_load(args)
    try:
        resolve_engine()    # a bad engine setting fails before any run
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.command == "serve":
        return _cmd_serve(args, argv)

    from repro.harness.rundir import run_scope

    scales = {"threat_scale": args.threat_scale,
              "terrain_scale": args.terrain_scale}
    if args.command == "report":
        with run_scope("report", dict(scales, jobs=args.jobs),
                       argv=argv) as run:
            status = _cmd_report(args.threat_scale, args.terrain_scale,
                                 args.jobs, args.profile, run=run)
            if run is not None:
                run.exit_status = status
        return status
    data = BenchmarkData(threat_scale=args.threat_scale,
                         terrain_scale=args.terrain_scale)
    if args.command == "run":
        return _cmd_run(args.ids, data, args.json)
    if args.command == "all":
        with run_scope("all", dict(scales, jobs=args.jobs,
                                   profile=args.profile,
                                   metrics=args.metrics),
                       argv=argv) as run:
            status = _cmd_all(data, args.jobs, args.profile,
                              metrics=args.metrics,
                              metrics_json=args.metrics_json, run=run)
            if run is not None:
                run.exit_status = status
        return status
    if args.command == "trace":
        return _cmd_trace(args.id, data, args.output, args.max_events)
    if args.command == "bench":
        from repro.harness.bench import run_kernel_bench, run_verify

        with run_scope("bench", dict(scales, repeat=args.repeat,
                                     verify=args.verify),
                       argv=argv) as run:
            if args.verify:
                status = run_verify(data, run=run)
            else:
                status = run_kernel_bench(data, repeat=args.repeat,
                                          json_path=args.json, run=run)
            if run is not None:
                run.exit_status = status
        return status
    if args.command == "chaos":
        from repro.faults.chaos import (
            DEFAULT_FAULTS,
            DEFAULT_MACHINES,
            run_chaos,
        )

        machines = (tuple(m.strip() for m in args.machines.split(",")
                          if m.strip())
                    if args.machines else DEFAULT_MACHINES)
        with run_scope("chaos", dict(scales, seed=args.seed,
                                     faults=args.faults,
                                     machines=list(machines),
                                     all=args.chaos_all),
                       argv=argv) as run:
            status = run_chaos(args.ids, data, run_all=args.chaos_all,
                               faults=args.faults or DEFAULT_FAULTS,
                               seed=args.seed, json_path=args.json,
                               machines=machines, run=run)
            if run is not None:
                run.exit_status = status
        return status
    if args.command == "sweep":
        return _cmd_sweep(args, scales, argv)
    if args.command == "race":
        from repro.analysis.race import run_race

        if not args.ids and not args.race_all and not args.fixtures:
            print("race: give experiment ids, --all, or --fixtures",
                  file=sys.stderr)
            return 2
        return run_race(args.ids, data, run_all=args.race_all,
                        fixtures=args.fixtures, json_path=args.json)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
