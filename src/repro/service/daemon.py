"""The measurement daemon: ingest, query, checkpoint, recover.

:class:`MeasurementDaemon` owns one engine (built from
:class:`~repro.service.config.ServiceConfig`), the ingest sources, the
RPC server, and the snapshot schedule, all on one asyncio event loop.
The engine is only ever touched from that loop — ingest batches, RPC
handlers, and snapshots are serialized by construction, which is what
lets the daemon sit on top of *any* ``QMaxBase`` backend, including
the sharded engine whose barriers must not interleave.

Lifecycle::

    daemon = MeasurementDaemon(config)
    await daemon.start()         # recover, bind, listen
    ...                          # traffic flows, RPC answers
    await daemon.stop()          # stall ingest, drain, snapshot,
                                 # engine.close()

``stop`` is what SIGTERM triggers via :func:`serve`: sources stop
reading, the feeder drains pending records into the engine, a
final snapshot is written, and a closeable engine (the sharded one) is
drained via ``close()`` so nothing in flight is silently dropped.
:meth:`MeasurementDaemon.kill` is the crash path — no drain, no final
snapshot — used by fault-injection tests to prove recovery works.

:class:`DaemonThread` runs the whole daemon on a private loop in a
background thread: the harness for tests, the demo, and embedding in
synchronous programs.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import signal
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ServiceError
from repro.obs import MetricsRegistry, NULL_REGISTRY, render_prometheus
from repro.parallel.merge import merge_top_items
from repro.service import snapshot as snap
from repro.service.config import ServiceConfig
from repro.service.ingest import (
    BatchFeeder,
    NetFlowUdpSource,
    ReportTcpSource,
)
from repro.service.rpc import OPS, RpcServer, rpc_call_async
from repro.types import Item

_LOG = logging.getLogger("repro.service.daemon")


class MeasurementDaemon:
    """One live measurement process: see the module docstring."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        # Per-daemon registry (not the process default): two daemons in
        # one process — the test harness does this — must not share
        # counters.
        self.registry = (
            MetricsRegistry() if config.metrics else NULL_REGISTRY
        )
        self._rpc_hists: Dict[str, Any] = {}
        self.engine = None  # type: ignore[assignment]
        self.feeder: BatchFeeder = None  # type: ignore[assignment]
        self.udp: NetFlowUdpSource = None  # type: ignore[assignment]
        self.tcp: ReportTcpSource = None  # type: ignore[assignment]
        self.rpc: RpcServer = None  # type: ignore[assignment]
        self.started_at: Optional[float] = None
        self.recovered = False
        self.snapshot_seq = 0
        self.snapshots_written = 0
        self.snapshot_errors = 0
        self._evicted_log: List[Item] = []
        self._evicted_dropped = 0
        self._snapshot_task: Optional[asyncio.Task] = None
        self._stop_requested: asyncio.Event = None  # type: ignore
        self._stopped = False
        # Fleet membership (docs/FLEET.md): identity, current epoch,
        # and the background register/heartbeat agent.
        self.daemon_id: Optional[str] = config.daemon_id
        self.epoch = 0
        self.registered = False
        self.fleet_registrations = 0
        self.fleet_heartbeats = 0
        self.fleet_errors = 0
        self._fleet_task: Optional[asyncio.Task] = None
        self._fleet_stopping = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Recover (if configured), bind every listener, go live."""
        cfg = self.config
        self._stop_requested = asyncio.Event()
        self.engine = cfg.build_engine(metrics=self.registry)
        if cfg.snapshot_dir and cfg.recover:
            self._recover()
        self.feeder = BatchFeeder(
            self.engine,
            batch_max=cfg.batch_max,
            flush_interval=cfg.flush_interval,
            capacity=cfg.queue_capacity,
            metrics=self.registry,
        )
        self.feeder.start()
        self.udp = NetFlowUdpSource(cfg.host, cfg.udp_port, self.feeder)
        self.udp.open()
        self.udp.start()
        self.tcp = ReportTcpSource(cfg.host, cfg.tcp_port, self.feeder)
        await self.tcp.start()
        self.rpc = RpcServer(self.handle_rpc, cfg.host, cfg.rpc_port)
        await self.rpc.start()
        if cfg.snapshot_dir:
            self._snapshot_task = asyncio.get_running_loop().create_task(
                self._snapshot_loop(), name="repro-snapshot"
            )
        self.started_at = time.time()
        if self.daemon_id is None:
            self.daemon_id = f"{cfg.host}:{self.rpc.port}"
        if cfg.fleet is not None:
            self._fleet_task = asyncio.get_running_loop().create_task(
                self._fleet_agent(), name="repro-fleet-agent"
            )
        self._register_gauges()
        _LOG.info(
            "daemon up: backend=%s udp=%d tcp=%d rpc=%d recovered=%s",
            self.engine.name, self.udp.port, self.tcp.port,
            self.rpc.port, self.recovered,
        )

    def _register_gauges(self) -> None:
        """Expose existing source/server counters as callback gauges —
        evaluated only when a snapshot is taken, never on ingest."""
        reg = self.registry
        if not reg.enabled:
            return
        for src, prefix in ((self.udp, "udp"), (self.tcp, "tcp")):
            for attr, help_text in (
                ("records", "decoded records"),
                ("malformed", "malformed inputs dropped"),
            ):
                reg.callback_gauge(
                    f"repro_ingest_{prefix}_{attr}",
                    (lambda s=src, a=attr: float(getattr(s, a))),
                    f"{prefix}: {help_text}", agg="sum",
                )
        reg.callback_gauge(
            "repro_ingest_udp_datagrams",
            lambda: float(self.udp.datagrams),
            "NetFlow datagrams received", agg="sum",
        )
        reg.callback_gauge(
            "repro_ingest_tcp_frames",
            lambda: float(self.tcp.frames),
            "report frames received", agg="sum",
        )
        reg.callback_gauge(
            "repro_rpc_requests", lambda: float(self.rpc.requests),
            "RPC requests served", agg="sum",
        )
        reg.callback_gauge(
            "repro_rpc_errors", lambda: float(self.rpc.errors),
            "RPC error responses", agg="sum",
        )
        reg.callback_gauge(
            "repro_snapshot_written", lambda: float(self.snapshots_written),
            "snapshots successfully written", agg="sum",
        )
        reg.callback_gauge(
            "repro_snapshot_errors", lambda: float(self.snapshot_errors),
            "snapshot write failures", agg="sum",
        )
        if self.config.fleet is not None:
            for attr, help_text in (
                ("fleet_registrations", "fleet register handshakes"),
                ("fleet_heartbeats", "fleet heartbeats delivered"),
                ("fleet_errors", "fleet coordinator call failures"),
            ):
                reg.callback_gauge(
                    f"repro_{attr}",
                    (lambda a=attr: float(getattr(self, a))),
                    help_text, agg="sum",
                )
        reg.callback_gauge(
            "repro_service_uptime_seconds",
            lambda: (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "seconds since the daemon went live", agg="max",
        )

    def _recover(self) -> None:
        with self.registry.span(
            "repro_snapshot_replay", "snapshot recovery replay time"
        ):
            doc = snap.load_snapshot(self.config.snapshot_dir)
            if doc is None:
                return
            retained, evicted, dropped, seq = snap.restore_items(doc)
            if retained:
                ids = [item_id for item_id, _val in retained]
                vals = [val for _item_id, val in retained]
                self.engine.add_many(ids, vals)
            self._evicted_log = evicted
            self._evicted_dropped = dropped
            self.snapshot_seq = seq
            self.recovered = True
        _LOG.info(
            "recovered snapshot seq=%d: %d retained, %d evicted",
            seq, len(retained), len(evicted),
        )

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.snapshot_interval)
            try:
                self.write_snapshot()
            except OSError:
                self.snapshot_errors += 1

    # ------------------------------------------------------------------
    # Fleet agent: register with the coordinator, then heartbeat.
    # ------------------------------------------------------------------

    def fleet_announcement(self) -> Dict[str, Any]:
        """What the daemon tells the coordinator about itself."""
        return {
            "daemon_id": self.daemon_id,
            "host": self.config.host,
            "rpc_port": self.rpc.port,
            "udp_port": self.udp.port,
            "tcp_port": self.tcp.port,
            "pid": os.getpid(),
            "started_at": self.started_at,
            "recovered": self.recovered,
            "backend": self.engine.name,
            "q": self.engine.q,
        }

    async def _fleet_agent(self) -> None:
        """Register, heartbeat, re-register on any failure.

        The agent is the daemon half of the rejoin story: a daemon that
        crashed and restarted recovers its snapshot in :meth:`start`
        *before* this task runs, so by the time the coordinator sees
        the registration the replayed state is already live.  A
        coordinator outage degrades to retry-with-backoff; the daemon
        keeps ingesting and serving its local RPC throughout.

        The loop also ends when ``_fleet_stopping`` is set, not only
        on cancellation: before Python 3.12, ``asyncio.wait_for`` inside
        :func:`rpc_call_async` returns a reply that lands just as the
        task is cancelled and swallows the cancellation.  So every RPC
        is followed by the stop check before the agent awaits again.
        """
        host, port = self.config.fleet_address()
        interval = self.config.heartbeat_interval
        backoff = min(0.2, interval)
        while not self._fleet_stopping:
            try:
                if not self.registered:
                    ack = await rpc_call_async(
                        host, port, "register",
                        timeout=5.0, **self.fleet_announcement(),
                    )
                    self.registered = True
                    self.fleet_registrations += 1
                    backoff = min(0.2, interval)
                    if isinstance(ack, dict):
                        self.epoch = int(ack.get("epoch", self.epoch))
                    _LOG.info(
                        "registered with fleet %s:%d as %s (epoch %d)",
                        host, port, self.daemon_id, self.epoch,
                    )
                    continue
                await asyncio.sleep(interval)
                await rpc_call_async(
                    host, port, "heartbeat",
                    timeout=5.0, daemon_id=self.daemon_id,
                )
                self.fleet_heartbeats += 1
            except asyncio.CancelledError:
                raise
            except ServiceError as exc:
                # Coordinator down or restarting: back off, then go
                # through the full register handshake again.
                self.fleet_errors += 1
                if self.registered:
                    _LOG.warning(
                        "fleet %s:%d unreachable (%s); will re-register",
                        host, port, exc,
                    )
                self.registered = False
                if self._fleet_stopping:
                    return
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 10.0)

    async def _fleet_goodbye(self) -> None:
        """Best-effort deregistration on graceful shutdown."""
        if self._fleet_task is None:
            return
        self._fleet_stopping = True
        self._fleet_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._fleet_task
        self._fleet_task = None
        if not self.registered:
            return
        host, port = self.config.fleet_address()
        with contextlib.suppress(ServiceError):
            await rpc_call_async(
                host, port, "deregister",
                timeout=2.0, daemon_id=self.daemon_id,
            )
        self.registered = False

    def request_stop(self) -> None:
        """Signal-handler-safe: ask the daemon to shut down."""
        self._stop_requested.set()

    async def wait_for_stop_request(self) -> None:
        await self._stop_requested.wait()

    async def stop(self, final_snapshot: bool = True) -> None:
        """Graceful shutdown: stall ingest, drain, checkpoint, close."""
        if self._stopped:
            return
        self._stopped = True
        _LOG.info("stopping: stalling ingest and draining feeder")
        await self._fleet_goodbye()
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._snapshot_task
        self.udp.close()
        await self.tcp.close()
        await self.feeder.stop()
        if final_snapshot and self.config.snapshot_dir:
            try:
                self.write_snapshot()
            except OSError:
                self.snapshot_errors += 1
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()
        await self.rpc.close()
        _LOG.info(
            "stopped: %d records ingested, %d snapshots written",
            self.feeder.records_out, self.snapshots_written,
        )

    def kill(self) -> None:
        """Crash simulation: tear everything down with NO drain and NO
        final snapshot.  What recovery then restores is exactly what
        the last periodic/explicit snapshot captured."""
        if self._stopped:
            return
        self._stopped = True
        _LOG.warning("kill: tearing down with no drain and no snapshot")
        self._fleet_stopping = True
        if self._fleet_task is not None:
            self._fleet_task.cancel()  # no goodbye: the crash path
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
        if self.udp is not None:
            self.udp.close()
        if self.tcp is not None and self.tcp._server is not None:
            self.tcp._server.close()
        if self.rpc is not None and self.rpc._server is not None:
            self.rpc._server.close()
        if self.feeder is not None:
            self.feeder.abort()
        # Still reap worker processes / shared memory: the crash being
        # simulated is the daemon's, not the host kernel's.
        close = getattr(self.engine, "close", None)
        if close is not None:
            with contextlib.suppress(Exception):
                close()

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------

    def _drain_evictions(self) -> None:
        take = getattr(self.engine, "take_evicted", None)
        if take is None:
            return
        self._evicted_log.extend(take())
        cap = self.config.evicted_cap
        if len(self._evicted_log) > cap:
            overflow = len(self._evicted_log) - cap
            del self._evicted_log[:overflow]
            self._evicted_dropped += overflow

    def write_snapshot(self) -> Dict[str, Any]:
        """Checkpoint retained + evicted state; returns a summary."""
        if not self.config.snapshot_dir:
            raise ServiceError("no snapshot_dir configured")
        with self.registry.span(
            "repro_snapshot_write", "checkpoint write time"
        ):
            self.feeder.flush_now()
            self._drain_evictions()
            retained = list(self.engine.items())
            self.snapshot_seq += 1
            state = snap.build_state(
                backend_name=self.engine.name,
                q=self.engine.q,
                seq=self.snapshot_seq,
                retained=retained,
                evicted=self._evicted_log,
                evicted_dropped=self._evicted_dropped,
                counters=self.stats(),
            )
            path = snap.write_snapshot(self.config.snapshot_dir, state)
            self.snapshots_written += 1
        _LOG.debug(
            "snapshot seq=%d written: %d retained, %d evicted",
            self.snapshot_seq, len(retained), len(self._evicted_log),
        )
        return {
            "path": path,
            "seq": self.snapshot_seq,
            "retained": len(retained),
            "evicted": len(self._evicted_log),
        }

    # ------------------------------------------------------------------
    # RPC operations.
    # ------------------------------------------------------------------

    def handle_rpc(self, op: str, request: Dict[str, Any]) -> Any:
        # Unknown ops are not timed: a labelled series per arbitrary
        # client-supplied string would be unbounded cardinality.
        if not self.registry.enabled or op not in OPS:
            return self._dispatch_rpc(op, request)
        hist = self._rpc_hists.get(op)
        if hist is None:
            hist = self._rpc_hists[op] = self.registry.histogram(
                "repro_rpc_seconds", "RPC handler latency by op", op=op,
            )
        start = time.perf_counter()
        try:
            return self._dispatch_rpc(op, request)
        finally:
            hist.observe(time.perf_counter() - start)

    def _dispatch_rpc(self, op: str, request: Dict[str, Any]) -> Any:
        if op == "top":
            return self._rpc_top(request)
        if op == "stats":
            self.feeder.flush_now()
            return self.stats()
        if op == "snapshot":
            return self.write_snapshot()
        if op == "reset":
            return self._rpc_reset()
        if op == "health":
            return self._rpc_health()
        if op == "metrics":
            return self._rpc_metrics(request)
        if op == "epoch":
            return self._rpc_epoch(request)
        raise ServiceError(f"unknown op {op!r}")

    def _rpc_epoch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The fleet epoch ops (docs/FLEET.md):

        ``{"op":"epoch","action":"begin","epoch":E}``
            Flush pending ingest and enter epoch ``E``.
        ``{"op":"epoch","action":"collect","q":k}``
            Flush, then return this daemon's NMP-style report: its
            top-k items plus the ingest counters the coordinator's
            coverage/volume accounting needs.  Idempotent — collecting
            twice returns the same report (modulo new ingest), which
            is what makes duplicate delivery at the coordinator safe.
        ``{"op":"epoch","action":"advance","epoch":E,"reset":bool}``
            Optionally reset the engine (interval semantics), then
            enter epoch ``E``.
        """
        action = request.get("action")
        if action not in ("begin", "collect", "advance"):
            raise ServiceError(
                f"epoch action must be begin/collect/advance, "
                f"got {action!r}"
            )
        if action == "collect":
            return self.epoch_report(request.get("q"))
        epoch = request.get("epoch")
        if not isinstance(epoch, int) or epoch < 0:
            raise ServiceError(
                f"epoch must be an int >= 0, got {epoch!r}"
            )
        self.feeder.flush_now()
        if action == "advance" and request.get("reset", False):
            self.engine.reset()
            self._evicted_log = []
            self._evicted_dropped = 0
        self.epoch = epoch
        return {
            "daemon_id": self.daemon_id,
            "epoch": self.epoch,
            "records_in": self.feeder.records_in,
        }

    def epoch_report(self, k: Optional[int] = None) -> Dict[str, Any]:
        """This daemon's per-epoch report — the live analogue of a
        :meth:`~repro.netwide.nmp.MeasurementPoint.report`."""
        if k is None:
            k = self.engine.q
        if not isinstance(k, int) or k < 1:
            raise ServiceError(f"q must be a positive int, got {k!r}")
        self.feeder.flush_now()
        top = merge_top_items([self.engine.query()], k)
        return {
            "daemon_id": self.daemon_id,
            "epoch": self.epoch,
            "q": self.engine.q,
            "top": [[snap.encode_id(i), v] for i, v in top],
            "observed": self.feeder.records_in,
            "volume": self.feeder.value_sum,
        }

    def _rpc_top(self, request: Dict[str, Any]) -> List[List[Any]]:
        k = request.get("q", self.engine.q)
        if not isinstance(k, int) or k < 1:
            raise ServiceError(f"q must be a positive int, got {k!r}")
        # Query-time barrier so the answer covers everything ingested.
        self.feeder.flush_now()
        top = merge_top_items([self.engine.query()], k)
        return [[snap.encode_id(item_id), val] for item_id, val in top]

    def _rpc_reset(self) -> Dict[str, Any]:
        # Flush first so pending records don't leak into the new epoch.
        self.feeder.flush_now()
        self.engine.reset()
        self._evicted_log = []
        self._evicted_dropped = 0
        return {"reset": True}

    def _rpc_health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "backend": self.engine.name,
            "q": self.engine.q,
            "uptime_s": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "recovered": self.recovered,
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """The daemon's full metrics view, merged across processes.

        A sharded engine shares the daemon registry, so its
        :meth:`~repro.parallel.engine.ShardedQMaxEngine.
        metrics_snapshot` — local registry plus worker snapshots — *is*
        the daemon view.  For plain backends the local registry is
        everything.
        """
        engine_snap = getattr(self.engine, "metrics_snapshot", None)
        if callable(engine_snap):
            return engine_snap()
        return self.registry.snapshot()

    def _rpc_metrics(self, request: Dict[str, Any]) -> Any:
        """The ``metrics`` op: JSON snapshot or Prometheus text.

        ``{"op": "metrics"}``                          → snapshot dict
        ``{"op": "metrics", "format": "prometheus"}``  → exposition text
        """
        fmt = request.get("format", "json")
        # Barrier first so counters reflect everything ingested.
        self.feeder.flush_now()
        snapshot = self.metrics_snapshot()
        if fmt == "json":
            return snapshot
        if fmt == "prometheus":
            return render_prometheus(snapshot)
        raise ServiceError(
            f"metrics format must be 'json' or 'prometheus', got {fmt!r}"
        )

    def stats(self) -> Dict[str, Any]:
        engine_stats = getattr(self.engine, "stats", None)
        if callable(engine_stats):
            engine_info = engine_stats()
        else:
            # Backends without a stats() (plain QMax, SlidingQMax)
            # still get a useful summary instead of a silent {}.
            engine_info = {
                "backend": type(self.engine).__name__,
                "q": self.engine.q,
                "size": sum(1 for _ in self.engine.items()),
            }
        dropped = self.udp.malformed + self.tcp.malformed
        cfg = self.config
        snapshot_path = (
            os.path.join(cfg.snapshot_dir, snap.SNAPSHOT_FILE)
            if cfg.snapshot_dir else None
        )
        return {
            "backend": self.engine.name,
            "q": self.engine.q,
            "uptime_s": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            # Identity: everything a fleet status page needs in the
            # one op it already pulls — who this daemon is, where it
            # listens, and where its checkpoint lives.
            "identity": {
                "daemon_id": self.daemon_id,
                "host": cfg.host,
                "listen": {
                    "udp": self.udp.port,
                    "tcp": self.tcp.port,
                    "rpc": self.rpc.port,
                },
                "pid": os.getpid(),
                "started_at": self.started_at,
                "snapshot_path": snapshot_path,
                "fleet": cfg.fleet,
                "epoch": self.epoch,
            },
            "udp": self.udp.stats(),
            "tcp": self.tcp.stats(),
            "feeder": self.feeder.stats(),
            "dropped_malformed": dropped,
            "engine": engine_info,
            "snapshot": {
                "dir": self.config.snapshot_dir,
                "seq": self.snapshot_seq,
                "written": self.snapshots_written,
                "errors": self.snapshot_errors,
                "evicted_logged": len(self._evicted_log),
                "evicted_dropped": self._evicted_dropped,
            },
            "recovered": self.recovered,
        }


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------

async def serve(
    config: ServiceConfig,
    ready: Optional[Callable[["MeasurementDaemon"], None]] = None,
) -> None:
    """Run a daemon until SIGTERM/SIGINT, then drain cleanly.

    ``ready`` (if given) is called with the live daemon right after
    startup — the CLI uses it to print the bound ports.
    """
    daemon = MeasurementDaemon(config)
    await daemon.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, daemon.request_stop)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-POSIX loops: Ctrl-C still raises KeyboardInterrupt
    if ready is not None:
        ready(daemon)
    try:
        await daemon.wait_for_stop_request()
    finally:
        await daemon.stop()


class DaemonThread:
    """A daemon on a private event loop in a background thread.

    The constructor blocks until the daemon is listening (so the
    resolved ephemeral ports are immediately available) and raises
    :class:`~repro.errors.ServiceError` if it fails to come up.  Use
    as a context manager for a guaranteed graceful stop, or call
    :meth:`abort` to simulate a crash (no drain, no final snapshot).
    """

    def __init__(
        self, config: ServiceConfig, start_timeout: float = 15.0
    ) -> None:
        self.config = config
        self.daemon: MeasurementDaemon = None  # type: ignore[assignment]
        self._loop: asyncio.AbstractEventLoop = None  # type: ignore
        self._ready = threading.Event()
        self._finish: asyncio.Event = None  # type: ignore[assignment]
        self._mode = "stop"
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-daemon", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(start_timeout):
            raise ServiceError(
                f"daemon did not start within {start_timeout:g}s"
            )
        if self._startup_error is not None:
            raise ServiceError(
                f"daemon failed to start: {self._startup_error!r}"
            ) from self._startup_error

    def _thread_main(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._finish = asyncio.Event()
        self.daemon = MeasurementDaemon(self.config)
        try:
            await self.daemon.start()
        except BaseException as exc:  # startup failures surface in ctor
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._finish.wait()
        if self._mode == "stop":
            await self.daemon.stop()
        else:
            self.daemon.kill()

    # ------------------------------------------------------------------
    # Cross-thread controls.
    # ------------------------------------------------------------------

    def _shutdown(self, mode: str, timeout: float) -> None:
        if not self._thread.is_alive():
            return
        def _trigger() -> None:
            self._mode = mode
            self._finish.set()
        self._loop.call_soon_threadsafe(_trigger)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - watchdog path
            raise ServiceError(f"daemon did not {mode} within {timeout:g}s")

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, final snapshot, engine close."""
        self._shutdown("stop", timeout)

    def abort(self, timeout: float = 30.0) -> None:
        """Simulated crash: everything not yet snapshotted is lost."""
        self._shutdown("abort", timeout)

    def feed(
        self,
        ids: Sequence[Any],
        vals: Sequence[float],
        timeout: float = 60.0,
    ) -> None:
        """Inject decoded records from the calling thread.

        Runs the feeder's ``put_async`` on the daemon loop — the same
        entry the socket sources use, backpressure included — so
        embedders (the fleet bench, the demo) can drive a daemon at
        memory speed without a UDP encode/decode round trip.  Blocks
        until the records are accepted (not necessarily flushed; RPC
        query ops barrier on flush themselves).
        """
        future = asyncio.run_coroutine_threadsafe(
            self.daemon.feeder.put_async(list(ids), list(vals)),
            self._loop,
        )
        future.result(timeout)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def udp_port(self) -> int:
        return self.daemon.udp.port

    @property
    def tcp_port(self) -> int:
        return self.daemon.tcp.port

    @property
    def rpc_port(self) -> int:
        return self.daemon.rpc.port

    def __enter__(self) -> "DaemonThread":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
