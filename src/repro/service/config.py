"""Daemon configuration and the pluggable measurement backend.

:class:`ServiceConfig` is a plain dataclass so it can be built from CLI
flags, test fixtures, or embedding code alike; validation happens at
construction (:class:`~repro.errors.ConfigurationError`) so a daemon
never comes up half-configured.  :meth:`ServiceConfig.build_engine`
is the backend plug: the daemon only ever talks to the
:class:`~repro.core.interface.QMaxBase` surface (``add_many`` /
``add_many_array`` / ``items`` / ``query`` / ``reset`` and, where present, ``close`` /
``take_evicted``), so anything implementing it slots in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.interface import QMaxBase
from repro.errors import ConfigurationError

#: Backends the daemon knows how to build.
BACKENDS = ("qmax", "sliding")

#: Port 0 means "let the kernel pick" — how the tests get ephemeral
#: ports; the bound port is reported by the daemon after startup.
EPHEMERAL = 0


@dataclass
class ServiceConfig:
    """Everything the daemon needs, with production-shaped defaults.

    Parameters
    ----------
    q, gamma:
        The engine's top-q target and the q-MAX slack parameter.
    backend:
        ``"qmax"`` (interval top-q) or ``"sliding"`` (count-based
        slack window over the last ``window`` records, slack ``tau``).
    shards:
        ``<= 1`` builds a single in-process backend; ``> 1`` builds a
        :class:`~repro.parallel.engine.ShardedQMaxEngine` with that
        many shards (``shard_mode`` as in the parallel subsystem).
        Sharding currently requires the ``qmax`` backend.
    host, udp_port, tcp_port, rpc_port:
        Listen addresses: NetFlow v5 datagrams (UDP), length-prefixed
        wire report frames (TCP), and the JSON query RPC (TCP).  Use
        port 0 for an ephemeral port.
    batch_max, flush_interval:
        Ingested records are coalesced until ``batch_max`` records are
        pending or ``flush_interval`` seconds have passed, then fed to
        the engine in one flush: ``add_many_array`` per NetFlow array
        chunk, ``add_many`` per run of list records.
    queue_capacity:
        Pending-record bound.  At capacity, ingest *stalls* (UDP stops
        reading, datagrams queue in the kernel buffer; TCP stops
        reading, peers block on flow control) — records are never
        dropped for backpressure, matching the parallel subsystem's
        ring semantics.  Only malformed input is dropped, counted.
    snapshot_dir, snapshot_interval, recover:
        When ``snapshot_dir`` is set, retained + evicted state is
        checkpointed there every ``snapshot_interval`` seconds (and on
        graceful shutdown) with an atomic rename; ``recover=True``
        replays the latest snapshot at startup.
    track_evictions:
        Build the engine with eviction tracking so snapshots carry the
        eviction log (capped at ``evicted_cap`` entries, oldest first).
    metrics:
        Keep a per-daemon :class:`~repro.obs.MetricsRegistry` and serve
        the ``metrics`` RPC op from it (core, ingest, RPC, and snapshot
        instrumentation).  ``False`` wires the no-op registry
        everywhere — the zero-overhead configuration.
    fleet, daemon_id, heartbeat_interval:
        When ``fleet`` is set to a coordinator address (``host:port``),
        the daemon runs a fleet agent: it registers with the
        :class:`~repro.fleet.coordinator.FleetCoordinator` at startup
        (announcing ``daemon_id`` and its live listen ports), then
        heartbeats every ``heartbeat_interval`` seconds.  A lost
        coordinator is retried with exponential backoff and the daemon
        re-registers when it returns — the rejoin path.  ``daemon_id``
        defaults to ``host:rpc_port`` resolved after bind; give stable
        ids to daemons that must survive restarts (snapshot + rejoin).
    """

    q: int = 1000
    gamma: float = 0.25
    backend: str = "qmax"
    window: int = 100_000
    tau: float = 0.25
    shards: int = 1
    shard_mode: str = "auto"
    host: str = "127.0.0.1"
    udp_port: int = 9995
    tcp_port: int = 9996
    rpc_port: int = 9997
    batch_max: int = 512
    flush_interval: float = 0.05
    queue_capacity: int = 1 << 16
    snapshot_dir: Optional[str] = None
    snapshot_interval: float = 30.0
    recover: bool = True
    track_evictions: bool = False
    evicted_cap: int = 1 << 17
    metrics: bool = True
    fleet: Optional[str] = None
    daemon_id: Optional[str] = None
    heartbeat_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ConfigurationError(f"q must be >= 1, got {self.q}")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{BACKENDS}"
            )
        if self.shards < 0:
            raise ConfigurationError(
                f"shards must be >= 0, got {self.shards}"
            )
        if self.shards > 1 and self.backend != "qmax":
            raise ConfigurationError(
                "sharding requires the 'qmax' backend "
                f"(got {self.backend!r})"
            )
        if self.batch_max < 1:
            raise ConfigurationError(
                f"batch_max must be >= 1, got {self.batch_max}"
            )
        if self.flush_interval <= 0:
            raise ConfigurationError(
                f"flush_interval must be > 0, got {self.flush_interval}"
            )
        if self.queue_capacity < self.batch_max:
            raise ConfigurationError(
                f"queue_capacity ({self.queue_capacity}) must be >= "
                f"batch_max ({self.batch_max})"
            )
        if self.snapshot_interval <= 0:
            raise ConfigurationError(
                f"snapshot_interval must be > 0, got "
                f"{self.snapshot_interval}"
            )
        if self.evicted_cap < 0:
            raise ConfigurationError(
                f"evicted_cap must be >= 0, got {self.evicted_cap}"
            )
        for name in ("udp_port", "tcp_port", "rpc_port"):
            port = getattr(self, name)
            if not 0 <= port < 65536:
                raise ConfigurationError(
                    f"{name} must be in [0, 65536), got {port}"
                )
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be > 0, got "
                f"{self.heartbeat_interval}"
            )
        if self.fleet is not None:
            self.fleet_address()  # validate eagerly

    def fleet_address(self) -> Optional[tuple]:
        """The coordinator ``(host, port)``, or ``None`` when not in a
        fleet.  Raises :class:`ConfigurationError` on a malformed
        ``fleet`` string."""
        if self.fleet is None:
            return None
        host, sep, port = self.fleet.rpartition(":")
        if not sep or not host:
            raise ConfigurationError(
                f"fleet must be 'host:port', got {self.fleet!r}"
            )
        try:
            port_no = int(port)
        except ValueError:
            raise ConfigurationError(
                f"fleet port must be an int, got {port!r}"
            ) from None
        if not 0 < port_no < 65536:
            raise ConfigurationError(
                f"fleet port must be in (0, 65536), got {port_no}"
            )
        return host, port_no

    def build_engine(self, metrics=False) -> QMaxBase:
        """Build the measurement backend this config describes.

        ``metrics`` follows the :func:`repro.obs.resolve_registry`
        convention; the daemon passes its own registry so engine and
        service instrumentation land in one place.  Backends that take
        no ``metrics`` parameter (``sliding``) are built as-is.
        """
        if self.shards > 1:
            from repro.parallel.engine import ShardedQMaxEngine

            return ShardedQMaxEngine(
                self.q,
                n_shards=self.shards,
                gamma=self.gamma,
                mode=self.shard_mode,
                track_evictions=self.track_evictions,
                metrics=metrics,
            )
        if self.backend == "sliding":
            from repro.core.sliding import SlidingQMax

            return SlidingQMax(self.q, window=self.window, tau=self.tau)
        from repro.core.qmax import QMax

        return QMax(
            self.q, self.gamma, track_evictions=self.track_evictions,
            metrics=metrics,
        )
