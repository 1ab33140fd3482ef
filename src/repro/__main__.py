"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``
    Run a twin deployment and print the operational summary (power
    envelope, PUE, job population, failure counts).
``export``
    Run a twin and write its datasets (allocations, XID log, job series,
    cluster power) to a directory in the artifact layout.
``stream``
    Replay twin telemetry through the live streaming engine
    (``repro.stream``) and print per-node throughput, watermark
    accounting, and the streamed analysis summary.
``spec``
    Print the Summit system specification from the model (Table 1).
``compact``
    Merge a partitioned dataset's small appended shards into larger
    sorted ones (rebuilding zone maps and compressed encodings) and
    print before/after shard counts and bytes.
``serve``
    Run the multi-tenant telemetry query service (``repro.serve``) over
    an exported partitioned dataset: NDJSON-over-TCP queries with result
    caching, single-flight dedup, and admission control.
``query``
    One-shot client for a running ``serve`` instance: send one query (or
    ``--stats``) and print the answer.
``trace``
    Render a trace file (``REPRO_TRACE=1`` while running any other
    command) as an indented flame summary, or convert it to Chrome
    ``trace_event`` JSON for Perfetto.

Observability
-------------
Every command honours ``REPRO_TRACE`` (``1`` or a path: record spans to
a JSONL trace file, wrapped in a ``cli.<command>`` root span) and
``REPRO_PROFILE`` (``1`` or an interval in ms: sample the main thread's
wall clock and print per-span hot sites to stderr on exit; any other
value is an error before the command runs).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _add_twin_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=90, help="twin machine size")
    p.add_argument("--jobs", type=int, default=1200, help="jobs to submit")
    p.add_argument("--days", type=float, default=1.0, help="horizon in days")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-day", type=float, default=0.0,
                   help="day-of-year offset (weather season)")
    p.add_argument("--failure-intensity", type=float, default=1.0)


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--chunk-seconds", type=float, default=86_400.0,
                   help="time-window shard width for the chunked pipeline")
    p.add_argument("--cache-dir", default=None,
                   help="artifact-cache directory (re-runs skip cached chunks)")
    p.add_argument("--workers", type=int, default=None,
                   help="pool size of every stage (default: one per core; "
                        "1 runs inline)")
    p.add_argument("--no-stats", action="store_true",
                   help="suppress the pipeline stage-counter report")


def _build_spec(args):
    from repro.datasets import SimulationSpec

    return SimulationSpec(
        n_nodes=args.nodes,
        n_jobs=args.jobs,
        horizon_s=args.days * 86_400.0,
        seed=args.seed,
        start_time=args.start_day * 86_400.0,
        failure_intensity=args.failure_intensity,
    )


def _build_pipeline(args):
    """The command's pipeline, or None after printing why there is none
    (``stream`` takes no pipeline flags: it runs the default config)."""
    from repro.pipeline import Pipeline, PipelineConfig

    try:
        config = None if args.command == "stream" else PipelineConfig(
            chunk_seconds=args.chunk_seconds,
            max_workers=args.workers,
            cache_dir=args.cache_dir,
        )
        return Pipeline(_build_spec(args), config)
    except ValueError as err:
        print(f"error: {err}")
        return None


def _maybe_print_stats(args, pipe) -> None:
    if not args.no_stats:
        print(pipe.stats.report())


def cmd_simulate(args) -> int:
    from repro.core.report import fmt_si, render_series, render_table

    pipe = _build_pipeline(args)
    if pipe is None:
        return 1
    times, power = pipe.cluster_power(dt=60.0)
    twin = pipe.twin
    st = twin.plant.simulate(times + twin.spec.start_time, power)
    cls_counts = np.bincount(twin.catalog.table["sched_class"], minlength=6)[1:]

    print(f"twin: {twin.config.n_nodes} nodes, "
          f"{twin.schedule.allocations.n_rows} jobs started "
          f"({len(twin.schedule.dropped)} queued at horizon)")
    print(render_series("cluster power", power, "W"))
    print(render_series("PUE", st.pue))
    print(render_table(
        ["class", "jobs"],
        [[i + 1, int(c)] for i, c in enumerate(cls_counts)],
        title="job population",
    ))
    print(f"power: mean {fmt_si(power.mean(), 'W')} | "
          f"peak {fmt_si(power.max(), 'W')} | PUE mean {st.pue.mean():.3f}")
    print(f"GPU XID events: {twin.failures.n_failures}")
    _maybe_print_stats(args, pipe)
    return 0


def cmd_export(args) -> int:
    width = args.telemetry_shard_seconds
    if args.telemetry_minutes and not 0.0 < width < float("inf"):
        print("error: --telemetry-shard-seconds must be finite and > 0, "
              f"got {width!r}")
        return 1
    pipe = _build_pipeline(args)
    if pipe is None:
        return 1
    inv = pipe.export(args.output)
    print(f"exported to {args.output}")
    for k, v in inv.items():
        if k not in ("on_disk_bytes", "encodings"):
            print(f"  {k}: {v:,}")
    for name, size in inv.get("on_disk_bytes", {}).items():
        print(f"  {name}: {size:,} bytes")
    enc = inv.get("encodings")
    if enc:
        print("  column encodings: "
              + ", ".join(f"{c}: {n}" for c, n in sorted(enc.items())))
    if args.telemetry_minutes:
        from repro.datasets.store import write_partitioned_series

        twin = pipe.twin
        horizon = min(args.telemetry_minutes * 60.0, twin.spec.horizon_s)
        telemetry = twin.sampler().sample(twin.builder.build(0.0, horizon, 1.0))
        ds = write_partitioned_series(telemetry, args.output, "telemetry",
                                      day_s=width)
        print(f"  telemetry: {ds.n_rows:,} rows in {ds.n_partitions} shards "
              f"(serve with: python -m repro serve "
              f"{os.path.join(args.output, 'telemetry')})")
    _maybe_print_stats(args, pipe)
    return 0


def cmd_stream(args) -> int:
    from repro.core.report import fmt_si

    pipe = _build_pipeline(args)
    if pipe is None:
        return 1
    twin = pipe.twin
    horizon = min(args.minutes * 60.0, twin.spec.horizon_s)
    arrays = twin.builder.build(0.0, horizon, 1.0)
    telemetry = twin.sampler().sample(arrays)

    try:
        graph = pipe.stream_graph(
            telemetry,
            skew=not args.no_skew,
            lateness_s=args.lateness,
            batch_interval_s=args.batch_interval,
        )
    except ValueError as err:
        print(f"error: {err}")
        return 1
    if args.checkpoint and os.path.exists(args.checkpoint):
        try:
            graph.load_checkpoint(args.checkpoint)
        except ValueError as exc:
            print(f"error: {exc}")
            return 1
        print(f"resumed from checkpoint {args.checkpoint}")
    stats = graph.run(max_batches=args.max_batches)
    if args.checkpoint and not graph.source.exhausted:
        graph.save_checkpoint(args.checkpoint)
        print(f"paused mid-stream; checkpoint saved to {args.checkpoint}")

    src = graph.source
    print(f"replayed {src.rows_emitted:,} of {src.rows_total:,} rows in "
          f"{src.batches_emitted} batches "
          f"({'skewed' if src.skew else 'skew-free'} arrival)")
    if not args.no_stats:
        print(stats.report())
    print(
        f"stream accounting: {stats.total_late_rows} late-dropped, "
        f"{src.loss_dropped} loss-dropped, {src.loss_blanked} loss-blanked"
    )

    series = graph.result("aggregate")
    if series is not None:
        power = series["sum_inp"]
        print(f"streamed cluster series: {series.n_rows} windows | "
              f"mean {fmt_si(float(power.mean()), 'W')} | "
              f"peak {fmt_si(float(power.max()), 'W')}")
    pue_out = graph.result("pue")
    if pue_out is not None:
        print(f"rolling PUE: final {float(pue_out['pue_roll'][-1]):.3f}")
    edges = graph.result("edges")
    n_edges = edges.n_rows if edges is not None else 0
    print(f"edges detected: {n_edges}")
    spectral = graph.result("spectral")
    if spectral is not None and int(spectral["n_segments"][0]) > 0:
        print(f"dominant mode: {float(spectral['fft_freq_hz'][0]):.4f} Hz "
              f"over {int(spectral['n_segments'][0])} Welch segments")
    return 0


def cmd_compact(args) -> int:
    from repro.parallel.partition import PartitionedDataset

    try:
        ds = PartitionedDataset(args.dataset)
    except FileNotFoundError as err:
        print(f"error: {err}")
        return 1
    stats = ds.compact(target_rows=args.target_rows)
    before = stats["before"]
    print(f"compacted {ds.name}: "
          f"{before['n_partitions']} -> {stats['n_partitions']} shards, "
          f"{before['n_bytes']:,} -> {stats['n_bytes']:,} bytes "
          f"({stats['rewritten']} rewritten, "
          f"generation {stats['generation']})")
    summary = ", ".join(
        f"{codec}: {n}" for codec, n in sorted(ds.encoding_summary().items())
    )
    print(f"column encodings: {summary}")
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.frame.io import replace_file
    from repro.serve import QueryService, ServiceConfig, TelemetryServer

    try:
        config = ServiceConfig(
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            tenant_inflight=args.tenant_inflight,
            cache_bytes=args.cache_mb << 20,
            fragment_bytes=args.fragment_mb << 20,
            workers=args.workers,
            slow_query_s=(args.slow_query_ms or 0.0) / 1e3,
            slow_query_log=args.slow_query_log,
        )
    except ValueError as err:
        print(f"error: {err}")
        return 1
    try:
        service = QueryService(args.dataset, config)
    except FileNotFoundError as err:
        print(f"error: {err}")
        return 1
    server = TelemetryServer(service, args.host, args.port)

    async def run() -> None:
        host, port = await server.start()
        ds = service.dataset
        print(f"serving {ds.name!r} ({ds.n_rows:,} rows, "
              f"{ds.n_partitions} shards, fragment cache "
              f"{args.fragment_mb} MiB) on {host}:{port}", flush=True)
        if args.ready_file:
            # written after bind, so pollers know the port is accepting,
            # and committed whole, so they never read a partial line
            line = f"{host} {port}\n".encode()
            replace_file(args.ready_file, lambda f: f.write(line))
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        print(service.report())
    return 0


def cmd_query(args) -> int:
    from repro.core.report import fmt_si
    from repro.plan import Query, QueryError
    from repro.serve import QueryClient, ServiceError

    try:
        client = QueryClient(args.host, args.port, tenant=args.tenant)
    except OSError as err:
        print(f"error: cannot reach {args.host}:{args.port}: {err}")
        return 1
    with client:
        if args.stats:
            try:
                stats = client.stats()
            except ServiceError as err:
                print(f"error: {err}")
                return 1
            tenants = stats.pop("tenants", {})
            for k, v in stats.items():
                print(f"{k}: {v}")
            for name, t in sorted(tenants.items()):
                print(f"tenant {name}: {t}")
            return 0
        try:
            query = Query(
                t_begin=args.t_begin,
                t_end=args.t_end,
                nodes=tuple(args.node) if args.node else None,
                cabinets=tuple(args.cabinet) if args.cabinet else None,
                metrics=tuple(args.metric) if args.metric
                else ("input_power",),
                width=args.width,
                level=args.level,
                derived="pue" if args.pue else None,
            )
        except QueryError as err:
            print(f"error: {err}")
            return 1
        resp = client.query(query)

    if resp["status"] == "rejected":
        print(f"rejected: {resp['reason']}")
        return 2
    if resp["status"] == "error":
        print(f"error: {resp['error']}")
        return 1
    shards = resp.get("shards")
    extra = (f" | shards: {shards['scanned']} scanned, "
             f"{shards['pruned']} pruned" if shards else "")
    frag = resp.get("fragments")
    if frag:
        extra += (f" | fragments: {frag['hits'] + frag['shared']} reused, "
                  f"{frag['misses']} computed")
    print(f"ok: {resp['rows']} rows | cache: {resp['cache']} | "
          f"{resp['elapsed_s'] * 1e3:.1f} ms{extra}")
    table = resp["table"]
    if table.n_rows and "sum_inp" in table:
        p = np.asarray(table["sum_inp"], dtype=np.float64)
        print(f"cluster power: mean {fmt_si(float(p.mean()), 'W')} | "
              f"peak {fmt_si(float(p.max()), 'W')}")
    if table.n_rows and "pue" in table:
        pue = np.asarray(table["pue"], dtype=np.float64)
        print(f"PUE: mean {float(pue.mean()):.3f}")
    for row in table.head(args.head).to_rows() if args.head else ():
        print("  " + ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row.items()
        ))
    return 0


def cmd_trace(args) -> int:
    import json

    from repro.frame.io import replace_file
    from repro.obs.export import (TraceError, flame_summary, load_trace,
                                  to_chrome)

    try:
        records = load_trace(args.file)
    except (OSError, TraceError) as err:
        print(f"error: {err}")
        return 1
    if args.chrome:
        chrome = json.dumps(to_chrome(records)).encode()
        replace_file(args.chrome, lambda f: f.write(chrome))
        print(f"wrote {len(records)} trace events to {args.chrome} "
              f"(open in Perfetto or chrome://tracing)")
        return 0
    try:
        print(flame_summary(records, max_depth=args.depth))
    except TraceError as err:
        print(f"error: {err}")
        return 1
    return 0


def cmd_spec(args) -> int:
    from repro.core.report import render_table
    from repro.machine import NodePowerModel, Topology
    from repro.config import SUMMIT

    topo = Topology(SUMMIT)
    model = NodePowerModel(SUMMIT)
    d = topo.describe()
    rows = [[k, f"{v:,}"] for k, v in d.items()]
    rows.append(["node max power (W)", f"{model.peak_power():.0f}"])
    rows.append(["node idle power (W)", f"{model.idle_power():.0f}"])
    print(render_table(["item", "value"], rows,
                       title="Summit system specification (Table 1)"))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Summit power/energy/thermal twin (SC '21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a twin and print a summary")
    _add_twin_args(p_sim)
    _add_pipeline_args(p_sim)
    p_sim.set_defaults(fn=cmd_simulate)

    p_exp = sub.add_parser("export", help="run a twin and export datasets")
    _add_twin_args(p_exp)
    _add_pipeline_args(p_exp)
    p_exp.add_argument("--output", required=True, help="output directory")
    p_exp.add_argument("--telemetry-minutes", type=float, default=0.0,
                       help="also export raw node telemetry as a partitioned "
                            "dataset covering the first N minutes "
                            "(the `serve` command's input)")
    p_exp.add_argument("--telemetry-shard-seconds", type=float, default=300.0,
                       help="telemetry dataset shard width in seconds")
    p_exp.set_defaults(fn=cmd_export)

    p_str = sub.add_parser(
        "stream", help="replay telemetry through the live streaming engine"
    )
    _add_twin_args(p_str)
    p_str.add_argument("--no-stats", action="store_true",
                       help="suppress the per-node stream counter report")
    p_str.add_argument("--minutes", type=float, default=30.0,
                       help="length of telemetry to replay")
    p_str.add_argument("--batch-interval", type=float, default=5.0,
                       help="source flush interval (arrival seconds)")
    p_str.add_argument("--no-skew", action="store_true",
                       help="zero the fan-in path delays (arrival = event)")
    p_str.add_argument("--lateness", type=float, default=8.0,
                       help="watermark lateness bound in seconds")
    p_str.add_argument("--max-batches", type=int, default=None,
                       help="stop after N source batches (pause mid-stream)")
    p_str.add_argument("--checkpoint", default=None,
                       help="checkpoint file: resumed if present, written "
                            "when pausing mid-stream")
    p_str.set_defaults(fn=cmd_stream)

    p_spec = sub.add_parser("spec", help="print the Table 1 system spec")
    p_spec.set_defaults(fn=cmd_spec)

    p_cmp = sub.add_parser(
        "compact", help="merge a dataset's small shards into sorted ones"
    )
    p_cmp.add_argument("dataset", help="dataset directory (holds manifest.json)")
    p_cmp.add_argument("--target-rows", type=int, default=None,
                       help="rows per merged shard (default: largest shard)")
    p_cmp.set_defaults(fn=cmd_compact)

    p_srv = sub.add_parser(
        "serve", help="run the telemetry query service over a dataset"
    )
    p_srv.add_argument("dataset", help="partitioned dataset directory")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = pick a free one)")
    p_srv.add_argument("--max-inflight", type=int, default=8,
                       help="queries executing concurrently")
    p_srv.add_argument("--max-queue", type=int, default=16,
                       help="queries waiting beyond the in-flight bound")
    p_srv.add_argument("--tenant-inflight", type=int, default=4,
                       help="per-tenant held (running+queued) quota")
    p_srv.add_argument("--cache-mb", type=int, default=64,
                       help="in-memory result-cache budget (MiB)")
    p_srv.add_argument("--fragment-mb", type=int, default=128,
                       help="per-shard fragment-cache budget (MiB)")
    p_srv.add_argument("--workers", type=int, default=None,
                       help="shard-read pool size (default: one per core)")
    p_srv.add_argument("--ready-file", default=None,
                       help="write 'host port' here once accepting "
                            "(for scripted startup)")
    p_srv.add_argument("--slow-query-ms", type=float, default=None,
                       help="with --slow-query-log: only log queries at "
                            "least this slow (default 0 = log all)")
    p_srv.add_argument("--slow-query-log", default=None,
                       help="NDJSON file recording slow queries "
                            "(fingerprint, coverage mix, fragment "
                            "hits/misses, per-shard task timings)")
    p_srv.set_defaults(fn=cmd_serve)

    p_qry = sub.add_parser(
        "query", help="send one query to a running serve instance"
    )
    p_qry.add_argument("--host", default="127.0.0.1")
    p_qry.add_argument("--port", type=int, required=True)
    p_qry.add_argument("--tenant", default="cli")
    p_qry.add_argument("--t-begin", type=float, default=None)
    p_qry.add_argument("--t-end", type=float, default=None)
    p_qry.add_argument("--node", type=int, action="append", default=None,
                       help="select a node id (repeatable)")
    p_qry.add_argument("--cabinet", type=int, action="append", default=None,
                       help="select a cabinet's nodes (repeatable)")
    p_qry.add_argument("--metric", action="append", default=None,
                       help="value column to aggregate (repeatable; "
                            "default input_power)")
    p_qry.add_argument("--width", type=float, default=10.0,
                       help="coarsen window in seconds")
    p_qry.add_argument("--level", choices=("cluster", "node", "raw"),
                       default="cluster")
    p_qry.add_argument("--pue", action="store_true",
                       help="append the derived PUE series (cluster level)")
    p_qry.add_argument("--head", type=int, default=0,
                       help="print the first N result rows")
    p_qry.add_argument("--stats", action="store_true",
                       help="print server counters instead of querying")
    p_qry.set_defaults(fn=cmd_query)

    p_trc = sub.add_parser(
        "trace", help="render a REPRO_TRACE file as a flame summary"
    )
    p_trc.add_argument("file", help="JSONL trace file (REPRO_TRACE output)")
    p_trc.add_argument("--depth", type=int, default=0,
                       help="truncate the tree below this depth (0 = all)")
    p_trc.add_argument("--chrome", default=None, metavar="OUT",
                       help="write Chrome trace_event JSON to OUT instead "
                            "of printing the summary")
    p_trc.set_defaults(fn=cmd_trace)

    args = parser.parse_args(argv)
    return _run_command(args)


def _run_command(args) -> int:
    """Dispatch one CLI command under the env-driven observability hooks
    (``REPRO_TRACE`` tracing, ``REPRO_PROFILE`` sampling profiler)."""
    from repro.obs import trace
    from repro.obs.profile import profile_from_env

    trace_file = trace.enabled_from_env()
    try:
        profiler = profile_from_env()
    except ValueError as err:
        print(f"error: {err}")
        return 1
    if trace_file is None and profiler is None:
        return args.fn(args)
    # a profiler without REPRO_TRACE still needs live spans for per-span
    # sample attribution: enable sink-less (spans exist, nothing written)
    trace.enable(trace_file)
    try:
        if profiler is not None:
            profiler.start()
        try:
            with trace.span(f"cli.{args.command}"):
                return args.fn(args)
        finally:
            if profiler is not None:
                profiler.stop()
                print(profiler.report(), file=sys.stderr)
    finally:
        trace.disable()  # flushes the span buffer to the file (if any)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
