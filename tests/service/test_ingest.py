"""Unit tests for the ingest layer: feeder semantics, record
conversion, and malformed-input accounting on both listeners."""

from __future__ import annotations

import asyncio
import random
import socket
import struct
import time

import pytest

from repro.core.qmax import QMax
from repro.netwide.wire import Report, to_bytes
from repro.service.config import ServiceConfig
from repro.service.daemon import DaemonThread
from repro.service.ingest import (
    FRAME_HEADER,
    BatchFeeder,
    items_from_flow_records,
    items_from_report,
)
from repro.service.rpc import rpc_call
from repro.traffic.netflow import FlowRecord, encode_packets

from tests.conftest import value_multiset


def _flow(i: int, octets: int) -> FlowRecord:
    return FlowRecord(src_ip=i, dst_ip=0, src_port=0, dst_port=0,
                      proto=6, packets=1, octets=octets)


class TestConversions:
    def test_flow_records(self):
        ids, vals = items_from_flow_records(
            [_flow(10, 500), _flow(11, 900)]
        )
        assert ids == [10, 11]
        assert vals == [500.0, 900.0]

    def test_report_entries(self):
        report = Report("sw0", 3, (((7, 100), 0.25), ((9, 101), 0.75)))
        ids, vals = items_from_report(report)
        assert ids == [(7, 100), (9, 101)]
        assert vals == [0.25, 0.75]


class TestBatchFeeder:
    def test_coalesces_into_one_add_many(self):
        async def run():
            engine = QMax(8, 0.25)
            feeder = BatchFeeder(engine, batch_max=100,
                                 flush_interval=0.01)
            feeder.start()
            for i in range(10):
                feeder.put([i], [float(i) + 1.0])
            await asyncio.sleep(0.05)
            await feeder.stop()
            return feeder, engine

        feeder, engine = asyncio.run(run())
        assert feeder.records_in == feeder.records_out == 10
        # top-8 of ids 0..9 with values 1..10
        assert {i for i, _ in engine.query()} == set(range(2, 10))

    def test_flush_now_is_a_barrier(self):
        async def run():
            engine = QMax(8, 0.25)
            feeder = BatchFeeder(engine, batch_max=1000,
                                 flush_interval=60.0)
            feeder.start()
            feeder.put([1, 2], [5.0, 6.0])
            assert feeder.pending == 2
            feeder.flush_now()
            assert feeder.pending == 0
            assert dict(engine.items()) == {1: 5.0, 2: 6.0}
            await feeder.stop()

        asyncio.run(run())

    def test_capacity_stalls_and_resumes(self):
        async def run():
            engine = QMax(8, 0.25)
            feeder = BatchFeeder(engine, batch_max=4,
                                 flush_interval=0.01, capacity=4)
            resumed = []
            feeder.on_room(lambda: resumed.append(True))
            feeder.start()
            assert feeder.put([1, 2, 3], [1.0, 2.0, 3.0]) is True
            assert feeder.put([4], [4.0]) is False  # at capacity
            assert feeder.stalls == 1
            await asyncio.sleep(0.05)  # flush loop drains
            assert resumed == [True]
            assert feeder.put([5], [5.0]) is True
            await feeder.stop()
            return feeder

        feeder = asyncio.run(run())
        assert feeder.records_out == 5

    def test_put_async_waits_for_room(self):
        async def run():
            engine = QMax(8, 0.25)
            feeder = BatchFeeder(engine, batch_max=2,
                                 flush_interval=0.01, capacity=2)
            feeder.start()
            feeder.put([1, 2], [1.0, 2.0])  # fills to capacity
            start = time.perf_counter()
            await feeder.put_async([3], [3.0])  # must wait for a flush
            waited = time.perf_counter() - start
            await feeder.stop()
            return feeder, waited

        feeder, _waited = asyncio.run(run())
        assert feeder.records_in == 3
        assert feeder.records_out == 3

    def test_stop_drains_pending(self):
        async def run():
            engine = QMax(8, 0.25)
            feeder = BatchFeeder(engine, batch_max=1000,
                                 flush_interval=60.0)
            feeder.start()
            feeder.put([1], [9.0])
            await feeder.stop()
            return engine

        engine = asyncio.run(run())
        assert dict(engine.items()) == {1: 9.0}


@pytest.mark.service
class TestMalformedInputAccounting:
    """Drops happen only on malformed input, and every drop is counted."""

    def test_udp_garbage_counted_not_fatal(self):
        cfg = ServiceConfig(q=8, udp_port=0, tcp_port=0, rpc_port=0,
                            flush_interval=0.02)
        with DaemonThread(cfg) as d:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            addr = (d.host, d.udp_port)
            sock.sendto(b"", addr)                      # empty
            sock.sendto(b"\x00\x05", addr)              # short header
            sock.sendto(b"\x00\x09" + b"\x00" * 30, addr)  # bad version
            (good,) = encode_packets([_flow(1, 100)])
            sock.sendto(good, addr)
            sock.sendto(good[:-10], addr)               # short records
            sock.close()
            deadline = time.time() + 10
            while time.time() < deadline:
                stats = rpc_call(d.host, d.rpc_port, "stats")
                if stats["udp"]["datagrams"] >= 5:
                    break
                time.sleep(0.02)
            assert stats["udp"]["malformed"] == 4
            assert stats["udp"]["records"] == 1
            assert stats["dropped_malformed"] == 4
            # The good record made it through despite the garbage.
            top = rpc_call(d.host, d.rpc_port, "top", q=1)
            assert top == [[1, 100.0]]

    def test_tcp_bad_frame_counted_and_connection_dropped(self):
        cfg = ServiceConfig(q=8, udp_port=0, tcp_port=0, rpc_port=0,
                            flush_interval=0.02)
        with DaemonThread(cfg) as d:
            # Oversized length prefix: rejected before allocation.
            with socket.create_connection((d.host, d.tcp_port)) as s:
                s.sendall(FRAME_HEADER.pack(1 << 30))
                assert s.recv(1) == b""  # daemon closed on us
            # Valid length, garbage payload.
            with socket.create_connection((d.host, d.tcp_port)) as s:
                s.sendall(FRAME_HEADER.pack(8) + b"NOTQMRP!")
                assert s.recv(1) == b""
            # Truncated frame: claim 100 bytes, send 10, close.
            with socket.create_connection((d.host, d.tcp_port)) as s:
                s.sendall(FRAME_HEADER.pack(100) + b"x" * 10)
            # A NaN hash: outside the value domain, refused as garbage.
            nan_blob = bytearray(
                to_bytes(Report("sw0", 1, (((6, 60), 0.5),))))
            nan_blob[-8:] = struct.pack("!d", float("nan"))
            with socket.create_connection((d.host, d.tcp_port)) as s:
                s.sendall(FRAME_HEADER.pack(len(nan_blob)) + nan_blob)
                assert s.recv(1) == b""
            # A good frame on a fresh connection still works.
            report = Report("sw0", 1, (((5, 50), 0.5),))
            blob = to_bytes(report)
            with socket.create_connection((d.host, d.tcp_port)) as s:
                s.sendall(FRAME_HEADER.pack(len(blob)) + blob)
            deadline = time.time() + 10
            while time.time() < deadline:
                stats = rpc_call(d.host, d.rpc_port, "stats")
                if (stats["tcp"]["malformed"] >= 4
                        and stats["tcp"]["frames"] >= 1):
                    break
                time.sleep(0.02)
            assert stats["tcp"]["malformed"] == 4
            assert stats["tcp"]["frames"] == 1
            assert stats["tcp"]["records"] == 1


def _wait_for_datagrams(d, n):
    deadline = time.time() + 10
    while time.time() < deadline:
        stats = rpc_call(d.host, d.rpc_port, "stats")
        if stats["udp"]["datagrams"] >= n:
            return stats
        time.sleep(0.02)
    raise AssertionError(f"daemon saw {stats['udp']['datagrams']} of "
                         f"{n} datagrams")


@pytest.mark.service
class TestCoalescedUdpReader:
    """The UDP reader decodes every datagram of a wake-up into one
    ``put``; under a feeder far smaller than one datagram it must still
    pause, resume, and lose nothing but the garbage it counts."""

    def test_burst_with_garbage_through_a_tiny_feeder(self):
        q = 16
        rng = random.Random(12)
        sizes = [1, 30, 3, 30, 7, 1, 30, 29, 2, 30, 15, 30]
        octets = rng.sample(range(1, 2**32), sum(sizes))
        records = [_flow(rng.randrange(2**32), o) for o in octets]
        good, start = [], 0
        for size in sizes:
            good += encode_packets(records[start:start + size])
            start += size
        (one,) = encode_packets([_flow(1, 1)])
        garbage = [
            b"",                                    # empty
            b"\x00\x05",                            # short header
            b"\x00\x09" + one[2:],                  # bad version
            good[1][:-10],                          # short records
            one[:2] + b"\x00\x1f" + one[4:] + bytes(48 * 31),  # count 31
            bytes(rng.randrange(256) for _ in range(100)),
        ]
        burst = list(good)
        for i, junk in enumerate(garbage):
            burst.insert(2 * i + 1, junk)

        cfg = ServiceConfig(q=q, udp_port=0, tcp_port=0, rpc_port=0,
                            flush_interval=0.01, batch_max=8,
                            queue_capacity=16)
        with DaemonThread(cfg) as d:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for datagram in burst:
                sock.sendto(datagram, (d.host, d.udp_port))
            sock.close()
            stats = _wait_for_datagrams(d, len(burst))
            top = rpc_call(d.host, d.rpc_port, "top", q=q)
            stats = rpc_call(d.host, d.rpc_port, "stats")

        assert stats["udp"]["datagrams"] == len(burst)
        assert stats["udp"]["malformed"] == len(garbage)
        assert stats["feeder"]["stalls"] >= 1  # the reader paused...
        # ...and resumed, losing nothing.
        assert stats["udp"]["records"] == stats["feeder"]["records_in"]
        assert stats["feeder"]["records_in"] == len(records)
        assert stats["feeder"]["records_out"] == len(records)
        ref = QMax(q, 0.25)
        ref.add_many([r.src_ip for r in records],
                     [float(r.octets) for r in records])
        assert value_multiset(top) == value_multiset(ref.query())
