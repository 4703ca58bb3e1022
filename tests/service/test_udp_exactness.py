"""Daemon-level exactness of the columnar UDP path.

NetFlow datagrams reach the engine as array chunks through
``add_many_array`` and QMRP report frames as list chunks through
``add_many``, from one feeder.  Whatever the interleaving — one flush
holding both kinds, a feeder small enough to stall and resume the
reader, a ``reset`` and an epoch advance with reset between segments —
the daemon's top-q must be the exact top-q of the records it was sent
since the last reset.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from unittest import mock

import pytest

from repro._compat import HAVE_NUMPY
from repro.core.qmax import QMax
from repro.netwide.wire import Report, to_bytes
from repro.service import ingest
from repro.service.config import ServiceConfig
from repro.service.daemon import DaemonThread
from repro.service.ingest import FRAME_HEADER
from repro.service.rpc import rpc_call
from repro.service.snapshot import decode_id
from repro.traffic import netflow
from repro.traffic.netflow import FlowRecord, encode_packets

from tests.conftest import value_multiset

Q = 40
CAPACITY = 96


def _wait(condition, what: str) -> None:
    deadline = time.time() + 20
    while not condition():
        if time.time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.005)


class _Traffic:
    """Seeded NetFlow and QMRP traffic at one daemon, with the records
    sent since the last reset kept for the reference."""

    def __init__(self, d: DaemonThread, seed: int) -> None:
        self.d = d
        self.rng = random.Random(seed)
        self.udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.segment = []
        self.udp_records = 0
        self.tcp_records = 0
        self.total = 0
        self._packet_id = 0

    def _value(self) -> int:
        # Heavy-tailed octet counts, boundaries included, so Ψ moves.
        roll = self.rng.random()
        if roll < 0.02:
            return self.rng.choice((0, 2**32 - 1))
        return min(int(self.rng.paretovariate(1.1) * 100), 2**32 - 1)

    def send_udp(self, n: int) -> None:
        records = [
            FlowRecord(src_ip=self.rng.randrange(2**32), dst_ip=1,
                       src_port=2, dst_port=3, proto=17, packets=1,
                       octets=self._value())
            for _ in range(n)
        ]
        start = self.d.daemon.udp.datagrams
        for i, datagram in enumerate(encode_packets(records), 1):
            self.udp.sendto(datagram, (self.d.host, self.d.udp_port))
            if i % 8 == 0:  # pace so the kernel buffer never overflows
                _wait(lambda: self.d.daemon.udp.datagrams >= start + i,
                      "udp reader")
        _wait(lambda: self.d.daemon.udp.datagrams >= start + i,
              "udp datagrams")
        self.segment += [(r.src_ip, float(r.octets)) for r in records]
        self.udp_records += n
        self.total += sum(r.octets for r in records)

    def frame(self, n: int) -> bytes:
        """One report frame of ``n`` new samples, counted as sent."""
        entries = []
        for _ in range(n):
            self._packet_id += 1
            flow = (self.rng.randrange(2**32), self._packet_id)
            entries.append((flow, float(self._value())))
        entries.sort(key=lambda e: e[1])
        self.segment += entries
        self.tcp_records += n
        self.total += int(sum(v for _f, v in entries))
        blob = to_bytes(Report("sw0", n, tuple(entries)))
        return FRAME_HEADER.pack(len(blob)) + blob

    def send_frames(self, frames) -> None:
        with socket.create_connection((self.d.host, self.d.tcp_port)) as s:
            s.sendall(b"".join(frames))

    def send_tcp(self, n: int) -> None:
        self.send_frames([self.frame(n)])
        _wait(lambda: self.d.daemon.tcp.records >= self.tcp_records,
              "tcp records")

    def rpc(self, op, **params):
        return rpc_call(self.d.host, self.d.rpc_port, op, **params)

    def reset(self, how: str) -> None:
        if how == "rpc":
            assert self.rpc("reset") == {"reset": True}
        else:
            self.rpc("epoch", action="advance", epoch=7, reset=True)
        self.segment = []

    def check_top(self) -> None:
        top = self.rpc("top", q=Q)
        ref = QMax(Q, 0.25)
        for item_id, value in self.segment:
            ref.add(item_id, value)
        assert value_multiset(top) == value_multiset(ref.query())
        for encoded, _value in top:
            item_id = decode_id(encoded)
            if isinstance(item_id, tuple):
                assert all(type(part) is int for part in item_id)
            else:
                assert type(item_id) is int
        for item_id, _value in self.d.daemon.engine.items():
            parts = item_id if isinstance(item_id, tuple) else (item_id,)
            assert all(type(part) is int for part in parts), item_id


STACKS = ["arrays", "lists"] if HAVE_NUMPY else ["lists"]


@pytest.mark.service
@pytest.mark.parametrize("stack", STACKS)
def test_mixed_udp_tcp_segments_are_exact(stack):
    with mock.patch.object(netflow, "HAVE_NUMPY", stack == "arrays"), \
            mock.patch.object(ingest, "HAVE_NUMPY", stack == "arrays"):
        cfg = ServiceConfig(q=Q, udp_port=0, tcp_port=0, rpc_port=0,
                            batch_max=CAPACITY, queue_capacity=CAPACITY,
                            flush_interval=30.0)
        with DaemonThread(cfg) as d:
            t = _Traffic(d, seed=2111)

            # One flush of [array, list, array] chunks: below capacity
            # and batch_max nothing flushes until the `top` barrier.
            batches = t.rpc("stats")["feeder"]["batches"]
            t.send_udp(31)
            t.send_tcp(17)
            t.send_udp(29)
            t.check_top()
            assert t.rpc("stats")["feeder"]["batches"] == batches + 1

            # Bursts far above capacity from both sources at once: the
            # reader stalls and resumes, TCP waits for room.
            frames = [t.frame(23) for _ in range(8)]
            tcp = threading.Thread(target=t.send_frames, args=(frames,))
            tcp.start()
            t.send_udp(1500)
            tcp.join(timeout=30)
            assert not tcp.is_alive()
            _wait(lambda: d.daemon.tcp.records >= t.tcp_records,
                  "tcp records")
            t.check_top()
            assert t.rpc("stats")["feeder"]["stalls"] >= 1

            for how in ("rpc", "epoch advance"):
                t.reset(how)
                t.send_tcp(11)
                t.send_udp(400)
                t.send_tcp(5)
                t.check_top()

            stats = t.rpc("stats")
            t.udp.close()
    feeder = stats["feeder"]
    assert stats["udp"]["records"] == t.udp_records
    assert stats["tcp"]["records"] == t.tcp_records
    assert stats["udp"]["malformed"] == stats["tcp"]["malformed"] == 0
    assert (feeder["records_in"] == feeder["records_out"]
            == t.udp_records + t.tcp_records)
    assert feeder["value_sum"] == t.total
