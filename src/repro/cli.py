"""Command-line interface: ``python -m repro.cli <command>``.

Sub-commands wire the library's pieces into end-to-end workflows a
network operator would actually run:

* ``gen-trace``   — synthesize a trace (CAIDA/UNIV1-style) into a pcap.
* ``top-flows``   — top-q flows of a pcap by byte volume (q-MAX).
* ``heavy-hitters`` — network-wide heavy hitters from one or more pcaps
  (each file acts as one NMP; reports are merged without double
  counting by packet id).
* ``distinct``    — KMV estimate of distinct sources in a pcap.
* ``cache-sim``   — LRFU hit-ratio simulation on a synthetic trace.
* ``bench``       — a quick q-MAX vs heap vs skip-list sweep, plus the
  trajectory tooling: ``bench report`` renders the per-commit perf
  history from the append-only ``bench_trajectory/`` store,
  ``bench gate`` fails on throughput regressions vs a recorded
  baseline, and ``bench import-legacy`` migrates pre-trajectory
  ``BENCH_*.json`` artifacts (see docs/BENCHMARKS.md).
* ``serve``       — run the live measurement daemon (UDP NetFlow +
  TCP report ingest, JSON query RPC, snapshots); see docs/SERVICE.md.
  ``--fleet host:port`` makes it register with a fleet coordinator.
* ``query``       — query a running daemon over its RPC port.
* ``fleet``       — the distributed fleet (docs/FLEET.md):
  ``fleet serve`` runs the coordinator, ``fleet query`` asks it for
  global answers (top/hh/epoch/...), ``fleet status`` summarises
  membership and coverage.

Every command prints a small table to stdout and exits 0 on success;
argument errors exit 2 (argparse) and data errors exit 1 with a message
on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro import __version__
from repro.errors import ReproError


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    from repro.traffic import PROFILES, generate_packets, write_pcap

    profile = PROFILES[args.profile]
    packets = generate_packets(
        profile, args.packets, seed=args.seed,
        n_flows=args.flows or None,
    )
    count = write_pcap(args.output, packets)
    print(f"wrote {count} {profile.name}-style packets to {args.output}")
    return 0


def _cmd_top_flows(args: argparse.Namespace) -> int:
    from repro.apps.pba import PriorityBasedAggregation
    from repro.traffic import read_pcap
    from repro.traffic.packet import ip_to_str

    packets = read_pcap(args.pcap)
    pba = PriorityBasedAggregation(args.q, backend=args.backend,
                                   seed=args.seed)
    for pkt in packets:
        pba.update(pkt.src_ip, pkt.size)
    print(f"{'source':>16} {'bytes (sampled est.)':>22}")
    for src, _w, estimate in pba.sample()[: args.q]:
        print(f"{ip_to_str(src):>16} {estimate:>22,.0f}")
    return 0


def _cmd_heavy_hitters(args: argparse.Namespace) -> int:
    from repro.netwide import Controller, MeasurementPoint
    from repro.traffic import read_pcap
    from repro.traffic.packet import ip_to_str

    nmps = []
    for path in args.pcaps:
        nmp = MeasurementPoint(args.q, backend=args.backend,
                               seed=args.seed, name=path)
        for pkt in read_pcap(path):
            nmp.observe(pkt)
        nmps.append(nmp)
    controller = Controller(args.q)
    heavy = controller.heavy_hitters(nmps, theta=args.theta,
                                     epsilon=args.epsilon)
    print(
        f"network-wide heavy hitters over {len(nmps)} NMP(s), "
        f"theta={args.theta:g}, epsilon={args.epsilon:g}:"
    )
    print(f"{'flow (src ip)':>16} {'est. packets':>13}")
    for flow, estimate in heavy:
        print(f"{ip_to_str(flow):>16} {estimate:>13.0f}")
    return 0


def _cmd_distinct(args: argparse.Namespace) -> int:
    from repro.apps.count_distinct import CountDistinct
    from repro.traffic import read_pcap

    counter = CountDistinct(args.q, backend=args.backend, seed=args.seed)
    packets = read_pcap(args.pcap)
    for pkt in packets:
        counter.update(pkt.src_ip)
    print(
        f"{len(packets)} packets, ~{counter.estimate():.0f} distinct "
        f"sources (KMV, q={args.q})"
    )
    return 0


def _cmd_cache_sim(args: argparse.Namespace) -> int:
    from repro.apps.lrfu import make_lrfu
    from repro.traffic import generate_cache_trace

    trace = generate_cache_trace(args.requests, n_keys=args.keys,
                                 seed=args.seed)
    print(f"{'backend':>18} {'hit ratio':>10}")
    for backend in args.backends:
        cache = make_lrfu(backend, args.capacity, decay=args.decay,
                          gamma=args.gamma)
        for key in trace:
            cache.access(key)
        print(f"{backend:>18} {cache.hit_ratio:>10.1%}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.traffic import read_pcap
    from repro.traffic.stats import compute_stats, size_histogram

    packets = read_pcap(args.pcap)
    stats = compute_stats(packets)
    for label, value in stats.as_rows():
        print(f"{label:>20}: {value}")
    print(f"{'size histogram':>20}:")
    for bucket, fraction in size_histogram(packets).items():
        print(f"{bucket:>20}  {fraction:.1%}")
    return 0


def _cmd_scan_detect(args: argparse.Namespace) -> int:
    from repro.apps.superspreader import SuperSpreaderDetector
    from repro.traffic import read_pcap
    from repro.traffic.packet import ip_to_str

    detector = SuperSpreaderDetector(
        args.q, kmv_size=args.kmv, backend=args.backend, seed=args.seed
    )
    for pkt in read_pcap(args.pcap):
        detector.update(pkt.src_ip, (pkt.dst_ip, pkt.dst_port))
    alarms = detector.scanners(args.threshold)
    if not alarms:
        print(f"no sources above fanout {args.threshold:g}")
        return 0
    print(f"{'source':>16} {'~distinct destinations':>23}")
    for source, fanout in alarms:
        print(f"{ip_to_str(source):>16} {fanout:>23.0f}")
    return 0


def _cmd_export_netflow(args: argparse.Namespace) -> int:
    from repro.apps.pba import PriorityBasedAggregation
    from repro.traffic import read_pcap
    from repro.traffic.netflow import encode_packets, records_from_sample

    pba = PriorityBasedAggregation(args.q, backend=args.backend,
                                   seed=args.seed)
    for pkt in read_pcap(args.pcap):
        pba.update(pkt.src_ip, pkt.size)
    packets = encode_packets(records_from_sample(pba.sample()))
    with open(args.output, "wb") as fh:
        for blob in packets:
            fh.write(blob)
    print(
        f"exported {min(args.q, len(pba.sample()))} flow records in "
        f"{len(packets)} NetFlow v5 packet(s) to {args.output}"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.baselines.heap import HeapQMax
    from repro.baselines.skiplist import SkipListQMax
    from repro.bench.reporting import emit
    from repro.bench.runner import (
        measure_throughput,
        measure_throughput_batched,
    )
    from repro.core.qmax import QMax
    from repro.traffic import generate_value_stream

    stream = generate_value_stream(args.items, seed=args.seed)
    kernel = getattr(args, "kernel", None)

    def make_qmax():
        return QMax(args.q, args.gamma, kernel=kernel)

    # Label with the *resolved* kernel (make_qmax's probe), so a table
    # produced on a box without NumPy says so.
    qmax_label = (
        f"qmax(g={args.gamma:g},k={make_qmax().kernel})"
        if kernel else f"qmax(g={args.gamma:g})"
    )
    rows = []
    metrics = []
    for label, factory in (
        (qmax_label, make_qmax),
        ("heap", lambda: HeapQMax(args.q)),
        ("skiplist", lambda: SkipListQMax(args.q)),
    ):
        m = measure_throughput(label, lambda f=factory: f().add,
                               stream, repeats=args.repeats)
        mean, half = m.mpps_ci
        rows.append([label, mean])
        metrics.append({"name": label, "value": mean, "unit": "mpps",
                        "ci_halfwidth": half})
    if args.shards > 1:
        from repro.parallel.engine import ShardedQMaxEngine

        engines = []

        def make_sharded():
            engine = ShardedQMaxEngine(
                args.q, n_shards=args.shards, gamma=args.gamma,
                mode=args.shard_mode, kernel=kernel,
            )
            engines.append(engine)
            return engine.add_many

        m = measure_throughput_batched(
            f"sharded-{args.shards}x", make_sharded, stream,
            batch_size=512, repeats=args.repeats,
        )
        label = f"sharded-{args.shards}x/{engines[-1].mode}"
        for engine in engines:
            engine.close()
        mean, half = m.mpps_ci
        rows.append([label, mean])
        metrics.append({"name": label, "value": mean, "unit": "mpps",
                        "ci_halfwidth": half})
    emit(
        "cli_sweep",
        f"quick sweep (q={args.q}, items={args.items})",
        ["structure", "MPPS"],
        rows,
        config={"q": args.q, "gamma": args.gamma, "items": args.items,
                "repeats": args.repeats, "seed": args.seed,
                "shards": args.shards, "kernel": kernel},
        metrics=metrics,
        record=getattr(args, "record", False),
    )
    return 0


def _bench_store(args: argparse.Namespace):
    from repro.bench.trajectory import TrajectoryStore

    return TrajectoryStore(getattr(args, "store", None))


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.bench.report import render_report

    render_report(
        _bench_store(args),
        benchmark=args.benchmark,
        last=args.last,
    )
    return 0


def _cmd_bench_gate(args: argparse.Namespace) -> int:
    from repro.bench.gate import parse_percent, render_gate_report, run_gate
    from repro.errors import TrajectoryError

    store = _bench_store(args)
    baseline = args.baseline or store.baseline_sha()
    if baseline is None:
        print("error: no --baseline given and the store has no "
              "BASELINE file", file=sys.stderr)
        return 1
    try:
        report = run_gate(
            store,
            baseline_sha=baseline,
            candidate_sha=args.candidate,
            max_regress=parse_percent(args.max_regress),
        )
    except TrajectoryError as exc:
        if args.allow_missing_baseline:
            print(f"bench gate skipped: {exc}")
            return 0
        raise
    render_gate_report(report, verbose=args.verbose)
    if report.failed:
        return 1
    if args.require_baseline and report.compared == 0:
        print("error: --require-baseline set but no metric had a "
              "comparable baseline", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_import(args: argparse.Namespace) -> int:
    from repro.bench.trajectory import import_legacy_bench_json

    store = _bench_store(args)
    row = import_legacy_bench_json(
        args.path, git_sha=args.sha, benchmark=args.benchmark,
    )
    path = store.append(row)
    print(
        f"imported {len(row.metrics)} metric(s) from {args.path} as "
        f"benchmark {row.benchmark!r} @ {row.git_sha[:10]} -> {path}"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from repro.service.config import ServiceConfig
    from repro.service.daemon import serve

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    config = ServiceConfig(
        q=args.q,
        gamma=args.gamma,
        backend=args.backend,
        window=args.window,
        tau=args.tau,
        shards=args.shards,
        shard_mode=args.shard_mode,
        host=args.host,
        udp_port=args.udp_port,
        tcp_port=args.tcp_port,
        rpc_port=args.rpc_port,
        batch_max=args.batch_max,
        flush_interval=args.flush_interval,
        snapshot_dir=args.snapshot_dir,
        snapshot_interval=args.snapshot_interval,
        recover=not args.no_recover,
        track_evictions=args.track_evictions,
        metrics=not args.no_metrics,
        fleet=args.fleet,
        daemon_id=args.daemon_id,
        heartbeat_interval=args.heartbeat_interval,
    )

    def _ready(daemon) -> None:
        print(
            f"repro.service up: backend={daemon.engine.name} "
            f"udp={daemon.udp.port} tcp={daemon.tcp.port} "
            f"rpc={daemon.rpc.port}"
            + (f" recovered seq={daemon.snapshot_seq}"
               if daemon.recovered else ""),
            flush=True,
        )

    asyncio.run(serve(config, ready=_ready))
    print("repro.service drained and stopped")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.service.rpc import rpc_call

    params = {}
    if args.op == "top" and args.q:
        params["q"] = args.q
    fmt = getattr(args, "format", "json")
    if args.op == "metrics" and fmt != "json":
        params["format"] = fmt

    def _once():
        result = rpc_call(args.host, args.port, args.op,
                          timeout=args.timeout, retries=args.retries,
                          retry_backoff=args.retry_backoff, **params)
        if isinstance(result, str):
            # Prometheus exposition text: already line-oriented.
            sys.stdout.write(result)
            sys.stdout.flush()
        else:
            print(json.dumps(result, indent=2, sort_keys=True), flush=True)
        return result

    result = _once()
    if args.op == "metrics" and args.watch:
        try:
            while True:
                time.sleep(args.interval)
                print(f"--- {time.strftime('%H:%M:%S')}", flush=True)
                result = _once()
        except KeyboardInterrupt:
            pass
    if args.op == "metrics" and args.record:
        from repro.obs.export import record_snapshot

        if not isinstance(result, dict):
            result = rpc_call(args.host, args.port, "metrics",
                              timeout=args.timeout)
        row = record_snapshot(result)
        print(
            f"recorded {len(row.metrics)} metric point(s) for "
            f"{row.git_sha}",
            file=sys.stderr,
        )
    return 0


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from repro.fleet import FleetConfig, serve_fleet

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    config = FleetConfig(
        host=args.host,
        port=args.port,
        q=args.q,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        pull_timeout=args.pull_timeout,
        reset_on_advance=not args.no_reset_on_advance,
        metrics=not args.no_metrics,
    )

    def _ready(coordinator) -> None:
        print(
            f"repro.fleet coordinator up: rpc={coordinator.rpc.port} "
            f"q={config.q} heartbeat_timeout={config.heartbeat_timeout:g}s",
            flush=True,
        )

    asyncio.run(serve_fleet(config, ready=_ready))
    print("repro.fleet coordinator stopped")
    return 0


def _cmd_fleet_query(args: argparse.Namespace) -> int:
    import json

    from repro.service.rpc import rpc_call

    params = {}
    if args.op in ("top", "hh", "epoch") and args.q:
        params["q"] = args.q
    if args.op in ("top", "hh"):
        params["source"] = args.source
    if args.op == "hh":
        params.update(theta=args.theta, epsilon=args.epsilon,
                      mode=args.mode)
    if args.op == "epoch":
        params["action"] = args.action
    if args.op == "metrics" and args.format != "json":
        params["format"] = args.format
    result = rpc_call(args.host, args.port, args.op,
                      timeout=args.timeout, retries=args.retries,
                      retry_backoff=args.retry_backoff, **params)
    if isinstance(result, str):
        sys.stdout.write(result)
        sys.stdout.flush()
    else:
        print(json.dumps(result, indent=2, sort_keys=True), flush=True)
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    from repro.service.rpc import rpc_call

    status = rpc_call(args.host, args.port, "status",
                      timeout=args.timeout, retries=args.retries,
                      retry_backoff=args.retry_backoff)
    daemons = status["daemons"]
    print(
        f"fleet {status['fleet']}: epoch {status['epoch']}, "
        f"{daemons['alive']}/{daemons['registered']} daemons alive, "
        f"coverage {status['coverage']:.0%}"
    )
    if status.get("last_collect"):
        lc = status["last_collect"]
        print(
            f"last collect: epoch {lc['epoch']}, {lc['reports']} "
            f"report(s), {lc['observed']} records, {lc['seconds']:.3f}s"
        )
    print(f"{'daemon':>24} {'state':>6} {'rejoins':>8} {'pulls':>6} "
          f"{'errors':>7}")
    for member in status["members"]:
        state = "alive" if member["alive"] else "lost"
        print(
            f"{member['daemon_id']:>24} {state:>6} "
            f"{member['rejoins']:>8} {member['pulls']:>6} "
            f"{member['pull_errors']:>7}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="q-MAX network-measurement toolkit (IMC'19 repro)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="synthesize a pcap trace")
    p.add_argument("output", help="output pcap path")
    p.add_argument("--profile", default="caida16",
                   choices=("caida16", "caida18", "univ1"))
    p.add_argument("--packets", type=int, default=10_000)
    p.add_argument("--flows", type=int, default=0,
                   help="flow count override (0 = profile default)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_trace)

    p = sub.add_parser("top-flows", help="top flows by byte volume")
    p.add_argument("pcap")
    p.add_argument("-q", type=int, default=10)
    p.add_argument("--backend", default="qmax",
                   choices=("qmax", "heap", "skiplist"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_top_flows)

    p = sub.add_parser("heavy-hitters",
                       help="network-wide heavy hitters from pcaps")
    p.add_argument("pcaps", nargs="+",
                   help="one pcap per measurement point")
    p.add_argument("-q", type=int, default=1_000)
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--epsilon", type=float, default=0.005)
    p.add_argument("--backend", default="qmax")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_heavy_hitters)

    p = sub.add_parser("distinct", help="distinct-source estimate")
    p.add_argument("pcap")
    p.add_argument("-q", type=int, default=256)
    p.add_argument("--backend", default="qmax")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_distinct)

    p = sub.add_parser("cache-sim", help="LRFU hit-ratio simulation")
    p.add_argument("--capacity", type=int, default=1_000)
    p.add_argument("--requests", type=int, default=50_000)
    p.add_argument("--keys", type=int, default=20_000)
    p.add_argument("--decay", type=float, default=0.75)
    p.add_argument("--gamma", type=float, default=0.25)
    p.add_argument("--backends", nargs="+",
                   default=["qmax", "indexedheap", "skiplist"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cache_sim)

    p = sub.add_parser("stats", help="trace statistics from a pcap")
    p.add_argument("pcap")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("scan-detect",
                       help="super-spreader / port-scan detection")
    p.add_argument("pcap")
    p.add_argument("-q", type=int, default=50)
    p.add_argument("--kmv", type=int, default=32)
    p.add_argument("--threshold", type=float, default=100.0)
    p.add_argument("--backend", default="qmax",
                   choices=("qmax", "heap", "skiplist"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_scan_detect)

    p = sub.add_parser("export-netflow",
                       help="measure a pcap and export NetFlow v5")
    p.add_argument("pcap")
    p.add_argument("output", help="output file for export packets")
    p.add_argument("-q", type=int, default=100)
    p.add_argument("--backend", default="qmax",
                   choices=("qmax", "heap", "skiplist"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_export_netflow)

    def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("-q", type=int, default=1_000)
        parser.add_argument("--gamma", type=float, default=0.25)
        parser.add_argument("--items", type=int, default=100_000)
        parser.add_argument("--repeats", type=int, default=3)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument(
            "--shards", type=int, default=1,
            help="add a sharded-engine row with this many shards")
        parser.add_argument(
            "--shard-mode", default="auto",
            choices=("auto", "process", "inline"),
            help="sharded engine execution mode")
        parser.add_argument(
            "--kernel", default=None,
            choices=("stepwise", "numpy"),
            help="qmax maintenance kernel (default: REPRO_KERNEL or "
            "the deamortized stepwise schedule); numpy runs one-shot "
            "boundary drives, falling back to stepwise without NumPy")
        parser.add_argument(
            "--record", action="store_true",
            help="append the sweep to the bench trajectory store")
        parser.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "bench",
        help="benchmarks: quick sweep, trajectory report, regression "
        "gate (see docs/BENCHMARKS.md)",
        # No prefix matching: the sweep options (--shards, ...) must
        # not swallow subcommand options like import-legacy's --sha.
        allow_abbrev=False,
    )
    _add_sweep_options(p)
    bsub = p.add_subparsers(dest="bench_command", required=False)

    bp = bsub.add_parser("run", help="quick throughput sweep "
                         "(the default when no subcommand is given)")
    _add_sweep_options(bp)

    bp = bsub.add_parser("report",
                         help="render the recorded perf trajectory")
    bp.add_argument("--store", default=None,
                    help="trajectory store directory "
                    "(default: REPRO_TRAJECTORY_DIR or bench_trajectory/)")
    bp.add_argument("--benchmark", default=None,
                    help="expand one benchmark into per-metric rows")
    bp.add_argument("--last", type=int, default=None,
                    help="only the N most recent commits")
    bp.set_defaults(func=_cmd_bench_report)

    bp = bsub.add_parser("gate",
                         help="fail (exit 1) on recorded throughput "
                         "regressions vs a baseline commit")
    bp.add_argument("--store", default=None,
                    help="trajectory store directory")
    bp.add_argument("--baseline", default=None,
                    help="baseline SHA (default: the store's BASELINE "
                    "file)")
    bp.add_argument("--candidate", default=None,
                    help="candidate SHA (default: newest recorded SHA)")
    bp.add_argument("--max-regress", default="10%",
                    help="allowed drop before CI noise, e.g. '10%%' "
                    "or '0.1'")
    bp.add_argument("--require-baseline", action="store_true",
                    help="fail if nothing could be compared")
    bp.add_argument("--allow-missing-baseline", action="store_true",
                    help="exit 0 when the baseline/candidate SHA has "
                    "no recorded rows (CI bootstrap)")
    bp.add_argument("--verbose", action="store_true",
                    help="also list unchanged metrics")
    bp.set_defaults(func=_cmd_bench_gate)

    bp = bsub.add_parser("import-legacy",
                         help="migrate a pre-trajectory BENCH_*.json "
                         "artifact into the store")
    bp.add_argument("path", help="legacy JSON artifact")
    bp.add_argument("--sha", required=True,
                    help="the commit the artifact was measured at")
    bp.add_argument("--store", default=None,
                    help="trajectory store directory")
    bp.add_argument("--benchmark", default=None,
                    help="override the trajectory benchmark id")
    bp.set_defaults(func=_cmd_bench_import)

    p = sub.add_parser("serve",
                       help="run the live measurement daemon")
    p.add_argument("-q", type=int, default=1_000)
    p.add_argument("--gamma", type=float, default=0.25)
    p.add_argument("--backend", default="qmax",
                   choices=("qmax", "sliding"))
    p.add_argument("--window", type=int, default=100_000,
                   help="sliding backend: window size in records")
    p.add_argument("--tau", type=float, default=0.25,
                   help="sliding backend: slack parameter")
    p.add_argument("--shards", type=int, default=1,
                   help=">1 runs the sharded multi-core engine")
    p.add_argument("--shard-mode", default="auto",
                   choices=("auto", "process", "inline"))
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--udp-port", type=int, default=9995,
                   help="NetFlow v5 ingest port (0 = ephemeral)")
    p.add_argument("--tcp-port", type=int, default=9996,
                   help="wire-report frame ingest port (0 = ephemeral)")
    p.add_argument("--rpc-port", type=int, default=9997,
                   help="JSON query RPC port (0 = ephemeral)")
    p.add_argument("--batch-max", type=int, default=512)
    p.add_argument("--flush-interval", type=float, default=0.05)
    p.add_argument("--snapshot-dir", default=None,
                   help="checkpoint directory (unset = no snapshots)")
    p.add_argument("--snapshot-interval", type=float, default=30.0)
    p.add_argument("--no-recover", action="store_true",
                   help="ignore an existing snapshot at startup")
    p.add_argument("--track-evictions", action="store_true",
                   help="carry the eviction log in snapshots")
    p.add_argument("--no-metrics", action="store_true",
                   help="disable the observability registry "
                   "(the metrics RPC op returns an empty snapshot)")
    p.add_argument("--fleet", default=None, metavar="HOST:PORT",
                   help="register with a fleet coordinator and serve "
                   "its measurement epochs (docs/FLEET.md)")
    p.add_argument("--daemon-id", default=None,
                   help="stable fleet identity (default: host:rpc-port; "
                   "set one so a restart rejoins instead of appearing "
                   "as a new daemon)")
    p.add_argument("--heartbeat-interval", type=float, default=1.0,
                   help="fleet heartbeat cadence, seconds")
    p.add_argument("--log-level", default="info",
                   choices=("debug", "info", "warning", "error"),
                   help="stdlib logging level for repro.* loggers")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("query",
                       help="query a running daemon's RPC port")
    p.add_argument("op",
                   choices=("top", "stats", "snapshot", "reset",
                            "health", "metrics"))
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="the daemon's RPC port")
    p.add_argument("-q", type=int, default=0,
                   help="top: how many items (0 = the engine's q)")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="per-attempt socket timeout, seconds")
    p.add_argument("--retries", type=int, default=0,
                   help="extra connect attempts before giving up "
                   "(exponential backoff; only the connect is retried)")
    p.add_argument("--retry-backoff", type=float, default=0.25,
                   help="first retry delay, seconds (doubles each try)")
    p.add_argument("--format", default="json",
                   choices=("json", "prometheus"),
                   help="metrics: exposition format")
    p.add_argument("--watch", action="store_true",
                   help="metrics: re-poll until interrupted")
    p.add_argument("--interval", type=float, default=2.0,
                   help="metrics: --watch poll interval, seconds")
    p.add_argument("--record", action="store_true",
                   help="metrics: append selected gauges to the bench "
                   "trajectory store")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("fleet",
                       help="distributed fleet: coordinator + global "
                       "queries (docs/FLEET.md)")
    fsub = p.add_subparsers(dest="fleet_command", required=True)

    def _add_client_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument("--port", type=int, required=True,
                            help="the coordinator's RPC port")
        parser.add_argument("--timeout", type=float, default=30.0,
                            help="per-attempt socket timeout, seconds "
                            "(covers the coordinator's daemon fan-out)")
        parser.add_argument("--retries", type=int, default=0,
                            help="extra connect attempts before giving "
                            "up (exponential backoff)")
        parser.add_argument("--retry-backoff", type=float, default=0.25,
                            help="first retry delay, seconds")

    fp = fsub.add_parser("serve", help="run the fleet coordinator")
    fp.add_argument("--host", default="127.0.0.1")
    fp.add_argument("--port", type=int, default=9990,
                    help="coordinator RPC port (0 = ephemeral)")
    fp.add_argument("-q", type=int, default=1_000,
                    help="default size of global answers")
    fp.add_argument("--heartbeat-interval", type=float, default=1.0,
                    help="cadence handed to registering daemons")
    fp.add_argument("--heartbeat-timeout", type=float, default=5.0,
                    help="silence past this marks a daemon lost")
    fp.add_argument("--pull-timeout", type=float, default=10.0,
                    help="per-daemon budget for one report pull")
    fp.add_argument("--no-reset-on-advance", action="store_true",
                    help="keep daemon engines cumulative across epochs")
    fp.add_argument("--no-metrics", action="store_true",
                    help="disable the coordinator's metrics registry")
    fp.add_argument("--log-level", default="info",
                    choices=("debug", "info", "warning", "error"))
    fp.set_defaults(func=_cmd_fleet_serve)

    fp = fsub.add_parser("query",
                         help="ask the coordinator a global question")
    fp.add_argument("op",
                    choices=("status", "top", "hh", "epoch", "health",
                             "metrics"))
    _add_client_options(fp)
    fp.add_argument("-q", type=int, default=0,
                    help="top/hh/epoch collect: answer size "
                    "(0 = the coordinator's q)")
    fp.add_argument("--source", default="live",
                    choices=("live", "epoch"),
                    help="top/hh: pull fresh reports, or answer from "
                    "the last epoch collect")
    fp.add_argument("--theta", type=float, default=0.01,
                    help="hh: heavy-hitter threshold fraction")
    fp.add_argument("--epsilon", type=float, default=0.0,
                    help="hh: false-negative margin")
    fp.add_argument("--mode", default="volume",
                    choices=("volume", "sample"),
                    help="hh: share-of-volume over retained flows, or "
                    "the paper's KMV packet-sample estimate")
    fp.add_argument("--action", default="collect",
                    choices=("begin", "collect", "advance"),
                    help="epoch: which cycle step to run")
    fp.add_argument("--format", default="json",
                    choices=("json", "prometheus"),
                    help="metrics: exposition format")
    fp.set_defaults(func=_cmd_fleet_query)

    fp = fsub.add_parser("status",
                         help="human-readable membership summary")
    _add_client_options(fp)
    fp.set_defaults(func=_cmd_fleet_status)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
