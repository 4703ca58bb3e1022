"""Regression test: a fleet member stops even when the coordinator's
``register`` reply lands exactly as shutdown cancels the agent.

Before Python 3.12, ``asyncio.wait_for`` (inside ``rpc_call_async``)
hands back a reply that completes in the same loop iteration as the
cancellation and swallows the ``CancelledError``.  The agent must not
take that as licence to keep heartbeating: ``stop`` has to return and
deregister.  The race is made deterministic by replacing the daemon's
RPC client with one that returns the reply *from* the cancellation,
which is what the swallowing ``wait_for`` does on every Python version
where the race exists.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.service.daemon as daemon_mod
from repro.service.config import ServiceConfig
from repro.service.daemon import MeasurementDaemon

_STOP_TIMEOUT = 5.0


@pytest.mark.fleet
def test_stop_returns_when_register_reply_lands_with_the_cancel(
    monkeypatch,
):
    calls = []

    async def main():
        register_in_flight = asyncio.Event()

        async def racing_rpc(host, port, op, /, timeout=10.0, **params):
            calls.append(op)
            if op == "register":
                register_in_flight.set()
                try:
                    await asyncio.Event().wait()  # the reply is in flight
                except asyncio.CancelledError:
                    # ...and lands with the cancel: the reply wins.
                    return {"epoch": 4}
            return {}

        monkeypatch.setattr(daemon_mod, "rpc_call_async", racing_rpc)
        daemon = MeasurementDaemon(ServiceConfig(
            q=8, udp_port=0, tcp_port=0, rpc_port=0,
            fleet="127.0.0.1:9", daemon_id="d0",
            heartbeat_interval=0.01,
        ))
        await daemon.start()
        agent = daemon._fleet_task
        await asyncio.wait_for(register_in_flight.wait(), _STOP_TIMEOUT)
        stopping = asyncio.ensure_future(daemon.stop())
        done, _pending = await asyncio.wait({stopping}, timeout=_STOP_TIMEOUT)
        if stopping not in done:
            # Unwedge the loop so the failure is reported, not hung.
            daemon._fleet_stopping = True
            for task in (stopping, agent):
                task.cancel()
            await asyncio.gather(stopping, agent, return_exceptions=True)
            pytest.fail(f"stop() did not return within {_STOP_TIMEOUT}s")
        stopping.result()
        return daemon, agent

    daemon, agent = asyncio.run(main())
    assert agent.done()
    # The swallowed cancel still delivered the reply, so the daemon
    # counts as registered and says goodbye; it never heartbeats.
    assert daemon.epoch == 4
    assert calls == ["register", "deregister"]
    assert daemon.registered is False
