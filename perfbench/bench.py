"""The benchmark's runs: set-up, rounds of load, oracle, and metrics.

``perfbench/run.py`` is the command line; this module does the work.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Tuple

from repro._compat import HAVE_NUMPY
from repro.core.kernels.native import native_module_available

from perfbench import spans as sp
from perfbench import sut
from perfbench.loadgen import Generator, OpenLoopResult, percentile
from perfbench.oracle import Reference, check
from perfbench.sut import BenchError
from perfbench.workloads import Q, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The CPUs this process may use, read before any run narrows them.
CPUS = os.sched_getaffinity(0)

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3

#: Share of ``--seconds`` spent in saturation trials; the open loop
#: takes the rest.  The traced run adds an untraced saturation baseline
#: of half that share, for ``trace.overhead``.
SATURATION_SHARE = 0.35

#: The run alternates saturation trials and open-loop slices this many
#: times, so that both phases sample the whole run: a slow spell of a
#: shared host then touches a few trials and a few queries, not all of
#: one phase.
ROUNDS = 5

#: A run that is still going after this many seconds is abandoned.
RUN_LIMIT_S = 170

#: End-to-end metrics: name → unit.
END_TO_END = {
    "setup_s": "s",
    "ingest_rps": "records/s",
    "query_ms_p50": "ms",
    "epoch_s_p50": "s",
    "rss_mb": "MiB",
}

#: Per-layer metrics: name → unit.  Layers that a workload does not run
#: report 0.  The p95 latencies are here, not above: on a shared 2-vCPU
#: host their run-to-run spread is wider than any bound they could gate.
PER_LAYER = {
    "netflow.decode_s": "s",
    "netflow.records": "count",
    "netflow.us_per_record": "us",
    "netflow.decode_share": "ratio",
    "wire.decode_s": "s",
    "wire.frames": "count",
    "wire.us_per_record": "us",
    "wire.decode_share": "ratio",
    "ingest.items_s": "s",
    "ingest.flush_s": "s",
    "ingest.batches": "count",
    "ingest.records_per_batch": "count",
    "ingest.stalls": "count",
    "ingest.malformed": "count",
    "ingest.share": "ratio",
    "qmax.add_many_s": "s",
    "qmax.us_per_record": "us",
    "qmax.admit_ratio": "ratio",
    "qmax.maintenance_drives": "count",
    "qmax.add_many_share": "ratio",
    "rpc.top_s": "s",
    "rpc.top_calls": "count",
    "rpc.stats_s": "s",
    "rpc.errors": "count",
    "rpc.share": "ratio",
    "merge.top_s": "s",
    "merge.calls": "count",
    "merge.share": "ratio",
    "fleet.collect_s": "s",
    "fleet.pull_s": "s",
    "fleet.merge_s": "s",
    "fleet.coverage": "ratio",
    "query_ms_p95": "ms",
    "epoch_s_p95": "s",
    "udp.datagrams_lost": "count",
    "gen.late_ms_p95": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}


def _metric_sum(snapshot: dict, name: str, field: str = "value") -> float:
    """Sum one field of every label set of a metric in a ``metrics``
    snapshot (0 when absent)."""
    return float(sum(
        m.get(field, 0.0) for m in snapshot.get("metrics", [])
        if m["name"] == name
    ))


class Run:
    """One workload, one seed: everything a run measures and checks."""

    def __init__(self, workload, seed: int, seconds: float,
                 workdir: str) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S - 10
        self.spawned: list = []
        self.attempted = 0
        self.failed = 0
        self.oracle_errors: List[str] = []
        self.notes: List[str] = []
        self.info: Dict[str, object] = {}
        self.plan = sut.cpu_plan(workload.daemons, CPUS)
        os.sched_setaffinity(0, self.plan[0])

    # -- pieces shared by both modes ------------------------------------

    def _start(self, tag: str, trace: bool):
        return sut.start(ROOT, self.workdir, tag, Q, self.w.daemons,
                         trace, self.deadline, self.spawned, self.plan)

    def _generator(self, system):
        return Generator(system, self.w, self.w.source(self.seed,
                                                         self.w.daemons),
                         Reference(Q, self.w.daemons), self.deadline)

    async def _finish(self, gen, system) -> List[dict]:
        """Final answer + oracle + failure accounting; returns each
        daemon's final ``stats``."""
        actual = await gen.final_top()
        expected, hi, lo = gen.ref.expected(Q)
        errors = check(actual, expected, Q, hi, lo)
        self.oracle_errors += errors
        stats = [system.stats(i) for i in range(len(system.daemons))]
        missing = sum(
            max(0, sent - st["feeder"]["records_out"])
            for sent, st in zip(gen.sent, stats)
        )
        self.attempted += sum(gen.sent) + gen.rpc_attempts
        self.failed += missing + gen.rpc_failures
        self.notes += gen.failure_notes
        kernels = sorted({st["engine"].get("kernel", "?") for st in stats})
        self.info["kernel"] = ",".join(kernels)
        self.info["backend"] = stats[0]["backend"]
        return stats

    def _setup_samples(self, n: int) -> List[float]:
        samples = []
        for i in range(n):
            system = self._start(f"setup{i}", trace=False)
            samples.append(system.setup_s)
            system.stop()
        return samples

    # -- end-to-end ---------------------------------------------------------

    async def end_to_end(self) -> Dict[str, float]:
        setups = self._setup_samples(SETUPS - 1)
        system = self._start("e2e", trace=False)
        setups.append(system.setup_s)
        gen = self._generator(system)
        await gen.open(tcp_connections=_tcp_connections())
        rates, loop, _windows = await _rounds(gen, self.seconds)
        await self._finish(gen, system)
        rss = system.rss_mib()
        await gen.close()
        system.stop()
        if not rates or not loop.query_s or not loop.epoch_s:
            raise _no_samples(rates, loop)
        self.info.update(
            setups=[round(s, 3) for s in setups],
            trial_rps=[round(r) for r in rates],
            queries=len(loop.query_s), epochs=len(loop.epoch_s),
            beyond_p95=min(_beyond(loop.query_s, 95),
                           _beyond(loop.epoch_s, 95)),
            gen_late_ms_p95=percentile(loop.late_s, 95) * 1e3,
        )
        return {
            "setup_s": statistics.median(setups),
            "ingest_rps": statistics.median(rates),
            "query_ms_p50": percentile(loop.query_s, 50) * 1e3,
            "epoch_s_p50": percentile(loop.epoch_s, 50),
            "rss_mb": rss,
        }

    # -- per layer -------------------------------------------------------------

    async def per_layer(self) -> Dict[str, float]:
        budget = SATURATION_SHARE * self.seconds / 2

        # Untraced saturation baseline, for trace.overhead.
        plain = self._start("plain", trace=False)
        gen = self._generator(plain)
        await gen.open(tcp_connections=_tcp_connections())
        plain_rates: List[float] = []
        await gen.saturate(budget, plain_rates, [])
        await self._finish(gen, plain)
        await gen.close()
        plain.stop()

        system = self._start("traced", trace=True)
        n = len(system.daemons)
        gen = self._generator(system)
        await gen.open(tcp_connections=_tcp_connections())
        before = [system.stats(i) for i in range(n)]
        before_m = [system.metrics(i) for i in range(n)]
        before_f = system.fleet_metrics() if self.w.fleet else {}
        rates, loop, sat_windows = await _rounds(gen, self.seconds)
        after = await self._finish(gen, system)
        after_m = [system.metrics(i) for i in range(n)]
        after_f = system.fleet_metrics() if self.w.fleet else {}
        await gen.close()
        daemon_paths = [d.proc.trace_path for d in system.daemons]
        system.stop()
        if not rates or not plain_rates or not loop.query_s \
                or not loop.epoch_s:
            raise _no_samples(rates, loop)

        daemon_spans = [sp.load(p) for p in daemon_paths]
        coord_spans = (sp.load(system.coordinator.trace_path)
                       if system.coordinator is not None else [])
        for spans in daemon_spans + [coord_spans]:
            bad = sp.nesting_errors(spans)
            if bad:
                raise BenchError(f"spans do not nest: {bad[:3]}")
        windows = sat_windows + loop.windows
        total = _merge_totals(
            [sp.layer_totals(s, windows) for s in daemon_spans]
            + [sp.layer_totals(coord_spans, windows)]
        )
        sat = _merge_totals(
            [sp.layer_totals(s, sat_windows) for s in daemon_spans]
        )
        sat_wall = n * sum(b - a for a, b in sat_windows)

        def self_s(table, name: str) -> float:
            return table.get(name, {}).get("self_s", 0.0)

        def stat(table, name: str, key: str) -> float:
            return float(table.get(name, {}).get(key, 0))

        def per_record_us(name: str) -> float:
            n_rec = stat(total, name, "n")
            return self_s(total, name) / n_rec * 1e6 if n_rec else 0.0

        def delta(path) -> float:
            return float(sum(path(a) - path(b) for a, b in zip(after, before)))

        def delta_m(name: str) -> float:
            return sum(_metric_sum(a, name) - _metric_sum(b, name)
                       for a, b in zip(after_m, before_m))

        def delta_f(name: str) -> float:
            return (_metric_sum(after_f, name, "sum")
                    - _metric_sum(before_f, name, "sum"))

        def share(*names: str) -> float:
            return sum(self_s(sat, nm) for nm in names) / sat_wall

        admitted = delta(lambda s: s["engine"].get("admitted", 0))
        rejected = delta(lambda s: s["engine"].get("rejected", 0))
        batches = delta(lambda s: s["feeder"]["batches"])
        out = delta(lambda s: s["feeder"]["records_out"])
        rpc_names = sorted(nm for nm in sat if nm.startswith("rpc."))
        covered = sum(row["self_s"] for row in sat.values())
        received = delta(lambda s: s["udp"]["datagrams"])
        self.info.update(trials=len(rates), plain_trials=len(plain_rates),
                         queries=len(loop.query_s), epochs=len(loop.epoch_s),
                         beyond_p95=min(_beyond(loop.query_s, 95),
                                        _beyond(loop.epoch_s, 95)))
        return {
            "netflow.decode_s": self_s(total, "netflow.decode"),
            "netflow.records": stat(total, "netflow.decode", "n"),
            "netflow.us_per_record": per_record_us("netflow.decode"),
            "netflow.decode_share": share("netflow.decode"),
            "wire.decode_s": self_s(total, "wire.decode"),
            "wire.frames": stat(total, "wire.decode", "calls"),
            "wire.us_per_record": per_record_us("wire.decode"),
            "wire.decode_share": share("wire.decode"),
            "ingest.items_s": self_s(total, "ingest.items"),
            "ingest.flush_s": self_s(total, "ingest.flush"),
            "ingest.batches": batches,
            "ingest.records_per_batch": out / batches if batches else 0.0,
            "ingest.stalls": delta(lambda s: s["feeder"]["stalls"]),
            "ingest.malformed": delta(lambda s: s["dropped_malformed"]),
            "ingest.share": share("ingest.items", "ingest.flush"),
            "qmax.add_many_s": self_s(total, "qmax.add_many"),
            "qmax.us_per_record": per_record_us("qmax.add_many"),
            "qmax.admit_ratio": (admitted / (admitted + rejected)
                                 if admitted + rejected else 0.0),
            "qmax.maintenance_drives":
                delta_m("repro_qmax_maintenance_drives_total"),
            "qmax.add_many_share": share("qmax.add_many"),
            "rpc.top_s": self_s(total, "rpc.top"),
            "rpc.top_calls": stat(total, "rpc.top", "calls"),
            "rpc.stats_s": self_s(total, "rpc.stats"),
            "rpc.errors": float(gen.rpc_failures),
            "rpc.share": share(*rpc_names),
            "merge.top_s": self_s(total, "merge.top"),
            "merge.calls": stat(total, "merge.top", "calls"),
            "merge.share": share("merge.top"),
            "fleet.collect_s": delta_f("repro_fleet_collect_seconds"),
            "fleet.pull_s": delta_f("repro_fleet_pull_seconds"),
            "fleet.merge_s": delta_f("repro_fleet_merge_seconds"),
            "fleet.coverage": loop.min_coverage if self.w.fleet else 0.0,
            "query_ms_p95": percentile(loop.query_s, 95) * 1e3,
            "epoch_s_p95": percentile(loop.epoch_s, 95),
            "udp.datagrams_lost": gen.datagrams - received,
            "gen.late_ms_p95": percentile(loop.late_s, 95) * 1e3,
            "trace.unattributed_share": 1.0 - covered / sat_wall,
            "trace.overhead": 1.0 - (statistics.median(rates)
                                     / statistics.median(plain_rates)),
        }

    def reap(self) -> None:
        for proc in self.spawned:
            proc.kill()


def _merge_totals(tables) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {"self_s": 0.0, "calls": 0, "n": 0})
            for key, value in row.items():
                acc[key] += value
    return out


async def _rounds(gen, seconds: float):
    """``ROUNDS`` times: saturation trials, then an open-loop slice.
    Returns the trial rates, the pooled open-loop result and the
    trials' time windows."""
    rates: List[float] = []
    windows: list = []
    loop = OpenLoopResult()
    for _ in range(ROUNDS):
        await gen.saturate(SATURATION_SHARE * seconds / ROUNDS,
                           rates, windows)
        await gen.open_loop((1 - SATURATION_SHARE) * seconds / ROUNDS, loop)
    return rates, loop, windows


def _beyond(samples: List[float], p: float) -> int:
    """Samples beyond the ``p``-th percentile."""
    cut = percentile(samples, p)
    return sum(1 for s in samples if s > cut)


def _tcp_connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def _no_samples(rates, loop) -> BenchError:
    return BenchError(
        f"too few samples: {len(rates)} trials, "
        f"{len(loop.query_s)} queries, {len(loop.epoch_s)} epoch cycles"
    )


def _environment() -> Dict[str, object]:
    return {
        "numpy": bool(HAVE_NUMPY),
        "native": bool(native_module_available()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "network": "loopback",
    }


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Tuple[dict, Run]:
    """Run one workload; returns the result object and the run."""
    workdir = os.path.join(ROOT, ".bench_build",
                           f"perfbench-{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(WORKLOADS[name], seed, seconds, workdir)
    try:
        values = asyncio.run(run.per_layer() if trace else run.end_to_end())
    except BaseException:
        _dump_logs(workdir)
        raise
    finally:
        run.reap()
    shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    metrics = {m: {"value": float(values[m]), "unit": units[m]}
               for m in units}
    result = {
        "correct": not run.oracle_errors,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": metrics,
    }
    return result, run


def _dump_logs(workdir: str) -> None:
    if not os.path.isdir(workdir):
        return
    for fname in sorted(os.listdir(workdir)):
        if fname.endswith(".log"):
            with open(os.path.join(workdir, fname), "rb") as fh:
                tail = fh.read()[-2000:].decode("utf-8", "replace")
            if tail.strip():
                print(f"--- {fname}\n{tail}", file=sys.stderr)


def _report(name: str, result: dict, run: Run, env: dict) -> None:
    """Human-readable lines: run facts, oracle verdict, each metric."""
    info = dict(env, workload=name, seed=run.seed, seconds=run.seconds,
                **run.info)
    print(f"[{name}] run: " + json.dumps(info, sort_keys=True))
    verdict = "pass" if result["correct"] else "FAIL: " + "; ".join(
        run.oracle_errors)
    print(f"[{name}] oracle: {verdict}")
    print(f"[{name}] failures: {result['failed']} of {result['attempted']} "
          f"attempted" + (f" ({'; '.join(run.notes[:5])})"
                          if run.notes else ""))
    for metric, row in result["metrics"].items():
        print(f"[{name}] {metric:<26} {row['value']:>16.6f} {row['unit']}")


def cli(args) -> int:
    """Run the workloads ``args`` names and print their results."""
    # The generator makes no reference cycles worth collecting, and a
    # collection pass over the pre-generated input would stall the
    # sender and the query clients for tens of milliseconds.
    gc.disable()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            print(f"error: unknown workload {name!r}; choose from "
                  f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
            return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    def _overtime(signum, frame):
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")

    def _terminated(signum, frame):
        raise BenchError(f"stopped by signal {signum}")

    signal.signal(signal.SIGALRM, _overtime)
    signal.signal(signal.SIGTERM, _terminated)
    env = _environment()
    results = {}
    for name in names:
        signal.alarm(RUN_LIMIT_S)
        try:
            result, run = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        _report(name, result, run, env)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": row
                for name, r in results.items()
                for metric, row in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0
