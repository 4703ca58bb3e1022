"""Run a ``repro.cli`` entry point with span recorders around each layer.

    PERFBENCH_TRACE_OUT=spans.json python3 perfbench/traced.py serve ...

The arguments are handed to ``repro.cli.main`` unchanged, so the traced
process is the same ``serve`` / ``fleet serve`` the plain run starts.
Before handing off, the layers' public callables are replaced with
wrappers that record a span per call (see :mod:`perfbench.spans`):

* ``decode_packet`` and ``from_bytes`` as bound in ``repro.service.ingest``
* ``items_from_flow_records`` and ``items_from_report``
* ``BatchFeeder.flush_now``
* ``QMax.add_many`` (the daemon's engine)
* ``MeasurementDaemon.handle_rpc``, one span name per op
* ``merge_top_items`` as bound in the daemon and the coordinator
* ``FleetCoordinator.handle_rpc``, one span name per op

The spans are written to ``$PERFBENCH_TRACE_OUT`` when the process exits
(the entry points exit cleanly on SIGTERM).
"""

from __future__ import annotations

import atexit
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.spans import Recorder  # noqa: E402


def install(rec: Recorder) -> None:
    """Wrap every traced layer callable in place."""
    import repro.core.qmax as qmax
    import repro.fleet.coordinator as coordinator
    import repro.service.daemon as daemon
    import repro.service.ingest as ingest
    from repro.fleet.coordinator import FLEET_OPS
    from repro.service.rpc import OPS

    ingest.decode_packet = rec.wrap(
        "netflow.decode", ingest.decode_packet,
        count=lambda args, result: len(result),
    )
    ingest.from_bytes = rec.wrap(
        "wire.decode", ingest.from_bytes,
        count=lambda args, result: len(result.entries),
    )
    ingest.items_from_flow_records = rec.wrap(
        "ingest.items", ingest.items_from_flow_records,
        count=lambda args, result: len(result[0]),
    )
    ingest.items_from_report = rec.wrap(
        "ingest.items", ingest.items_from_report,
        count=lambda args, result: len(result[0]),
    )
    ingest.BatchFeeder.flush_now = rec.wrap(
        "ingest.flush", ingest.BatchFeeder.flush_now,
    )
    qmax.QMax.add_many = rec.wrap(
        "qmax.add_many", qmax.QMax.add_many,
        count=lambda args, result: len(args[1]),
    )
    daemon.MeasurementDaemon.handle_rpc = rec.wrap_handler(
        "rpc.", daemon.MeasurementDaemon.handle_rpc, OPS,
    )
    daemon.merge_top_items = rec.wrap(
        "merge.top", daemon.merge_top_items,
    )
    coordinator.merge_top_items = rec.wrap(
        "merge.top", coordinator.merge_top_items,
    )
    coordinator.FleetCoordinator.handle_rpc = rec.wrap_handler(
        "fleet.rpc.", coordinator.FleetCoordinator.handle_rpc, FLEET_OPS,
    )


def main(argv) -> int:
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not out:
        print("error: PERFBENCH_TRACE_OUT is not set", file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    atexit.register(rec.dump, out)
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
