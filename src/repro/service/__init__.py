"""repro.service — a live measurement daemon on top of q-MAX.

Everything else in this package turns the batch-driven library into a
process you can run, feed, and query:

* :mod:`repro.service.config` — :class:`ServiceConfig` and the backend
  factory (plain q-MAX, sliding window, or the sharded engine).
* :mod:`repro.service.ingest` — asynchronous ingest: NetFlow v5 over
  UDP, length-prefixed :mod:`repro.netwide.wire` report frames over
  TCP, coalesced into ``add_many_array`` / ``add_many`` batches with
  stall-not-drop backpressure.
* :mod:`repro.service.rpc` — the JSON-over-TCP query RPC (``top``,
  ``stats``, ``snapshot``, ``reset``, ``health``) and its client.
* :mod:`repro.service.snapshot` — atomic-rename checkpoints of
  retained + evicted state and recovery at restart.
* :mod:`repro.service.daemon` — :class:`MeasurementDaemon`, wiring it
  all together; :func:`serve` for the CLI and :class:`DaemonThread`
  for tests, demos, and embedding.

Quickstart::

    python -m repro.cli serve --q 1000 --udp-port 9995 --rpc-port 9997
    python -m repro.cli query top --port 9997 -q 10

See docs/SERVICE.md for the architecture and wire protocols.
"""

from repro.service.config import ServiceConfig
from repro.service.daemon import DaemonThread, MeasurementDaemon, serve
from repro.service.rpc import rpc_call

__all__ = [
    "ServiceConfig",
    "MeasurementDaemon",
    "DaemonThread",
    "serve",
    "rpc_call",
]
