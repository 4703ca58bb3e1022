"""Tests for the NetFlow v5 export codec."""

from __future__ import annotations

import random
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._compat import HAVE_NUMPY, np
from repro.errors import NetFlowDecodeError, ReproError
from repro.errors import ConfigurationError
from repro.traffic import netflow
from repro.traffic.netflow import (
    MAX_RECORDS_PER_PACKET,
    FlowRecord,
    decode_columns,
    decode_packet,
    decode_stream,
    encode_packets,
    records_from_sample,
)
from repro.service.ingest import items_from_flow_records


def _record(i: int) -> FlowRecord:
    return FlowRecord(
        src_ip=0x0A000000 + i,
        dst_ip=0xC0A80000 + i,
        src_port=1024 + i,
        dst_port=80,
        proto=6,
        packets=10 * i + 1,
        octets=1500 * i + 40,
        first_ms=i,
        last_ms=i + 100,
    )


class TestFlowRecord:
    def test_field_ranges_validated(self):
        with pytest.raises(ConfigurationError):
            FlowRecord(2**32, 0, 0, 0, 6, 1, 1)
        with pytest.raises(ConfigurationError):
            FlowRecord(0, 0, 70000, 0, 6, 1, 1)
        with pytest.raises(ConfigurationError):
            FlowRecord(0, 0, 0, 0, 300, 1, 1)


class TestRoundTrip:
    def test_single_packet(self):
        records = [_record(i) for i in range(7)]
        (packet,) = encode_packets(records)
        assert decode_packet(packet) == records

    def test_multi_packet_chunking(self):
        records = [_record(i) for i in range(75)]
        packets = encode_packets(records)
        assert len(packets) == 3  # 30 + 30 + 15
        assert decode_stream(packets) == records

    def test_empty(self):
        assert encode_packets([]) == []
        assert decode_stream([]) == []

    def test_exactly_max_records(self):
        records = [_record(i) for i in range(MAX_RECORDS_PER_PACKET)]
        packets = encode_packets(records)
        assert len(packets) == 1
        assert decode_packet(packets[0]) == records


class TestDecodeValidation:
    """decode_packet raises NetFlowDecodeError — which is-a
    ConfigurationError, so pre-service callers keep working — for every
    malformed shape the daemon's UDP listener counts and drops."""

    def test_truncated_header(self):
        with pytest.raises(NetFlowDecodeError):
            decode_packet(b"\x00\x05")

    def test_empty_datagram(self):
        with pytest.raises(NetFlowDecodeError):
            decode_packet(b"")

    def test_wrong_version(self):
        (packet,) = encode_packets([_record(1)])
        corrupted = b"\x00\x09" + packet[2:]
        with pytest.raises(NetFlowDecodeError):
            decode_packet(corrupted)

    def test_truncated_body(self):
        (packet,) = encode_packets([_record(1), _record(2)])
        with pytest.raises(NetFlowDecodeError):
            decode_packet(packet[:-10])

    def test_count_beyond_protocol_limit(self):
        (packet,) = encode_packets([_record(1)])
        # Claim MAX+1 records in the header; pad so the length check
        # alone wouldn't catch it.
        bogus_count = MAX_RECORDS_PER_PACKET + 1
        corrupted = (packet[:2] + bogus_count.to_bytes(2, "big")
                     + packet[4:] + b"\x00" * 4096)
        with pytest.raises(NetFlowDecodeError):
            decode_packet(corrupted)

    def test_non_bytes_input(self):
        with pytest.raises(NetFlowDecodeError):
            decode_packet("not bytes")  # type: ignore[arg-type]

    def test_typed_error_is_backward_compatible(self):
        assert issubclass(NetFlowDecodeError, ConfigurationError)
        assert issubclass(NetFlowDecodeError, ReproError)

    @settings(max_examples=120, deadline=None)
    @given(data=st.binary(max_size=512))
    def test_garbage_never_escapes_typed_errors(self, data):
        """Arbitrary bytes either decode or raise NetFlowDecodeError —
        never a bare struct.error/ValueError that would kill the
        daemon's read loop."""
        try:
            records = decode_packet(data)
        except NetFlowDecodeError:
            return
        assert isinstance(records, list)


class TestSampleExport:
    def test_from_pba_sample(self):
        sample = [(0x0A000001, 500.0, 612.7), (0x0A000002, 90.0, 90.0)]
        records = records_from_sample(sample)
        assert records[0].src_ip == 0x0A000001
        assert records[0].octets == 613
        assert records[1].octets == 90

    def test_rejects_non_int_keys(self):
        with pytest.raises(ConfigurationError):
            records_from_sample([("flow-a", 1.0, 1.0)])

    def test_end_to_end_with_pba(self, rng):
        """Measure with PBA, export as NetFlow, re-ingest, compare."""
        from repro.apps.pba import PriorityBasedAggregation

        pba = PriorityBasedAggregation(16, seed=1)
        for _ in range(2000):
            pba.update(0x0A000000 + rng.randint(0, 9),
                       rng.uniform(100, 1500))
        sample = pba.sample()
        packets = encode_packets(records_from_sample(sample))
        back = decode_stream(packets)
        assert {r.src_ip for r in back} == {k for k, _w, _e in sample}


def _random_records(n: int, seed: int):
    rng = random.Random(seed)
    return [
        FlowRecord(
            src_ip=rng.randrange(2**32),
            dst_ip=rng.randrange(2**32),
            src_port=rng.randrange(2**16),
            dst_port=rng.randrange(2**16),
            proto=rng.randrange(2**8),
            packets=rng.randrange(2**32),
            octets=rng.randrange(2**32),
        )
        for _ in range(n)
    ]


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_roundtrip_property(n, seed):
    """Property: any batch of valid records survives encode/decode."""
    records = _random_records(n, seed)
    assert decode_stream(encode_packets(records)) == records


#: A well-formed v5 packet announcing zero records (``encode_packets``
#: emits no packet at all for an empty batch).
_EMPTY_PACKET = struct.pack("!HHIIIIBBH", 5, 0, 0, 0, 0, 0, 0, 0, 0)


def _columns(datagrams, limit=None):
    """``decode_columns`` on every stack this interpreter has — NumPy
    (when installed) and pure Python, NumPy hidden — asserting the
    stacks agree; the columns come back as lists."""
    datagrams = list(datagrams)
    outcomes = []
    for numpy_on in ((True, False) if HAVE_NUMPY else (False,)):
        with mock.patch.object(netflow, "HAVE_NUMPY", numpy_on):
            ids, vals, malformed = decode_columns(datagrams, limit)
        if numpy_on:
            assert ids.dtype == np.uint64 and vals.dtype == np.float64
            ids, vals = ids.tolist(), vals.tolist()
        assert type(ids) is list and type(vals) is list
        assert all(type(i) is int for i in ids)
        assert all(type(v) is float for v in vals)
        outcomes.append((ids, vals, malformed))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    return outcomes[0]


def _record_level(datagrams):
    """The oracle: ``items_from_flow_records(decode_packet(d))``
    concatenated over the datagrams ``decode_packet`` accepts, and the
    number it rejects."""
    ids, vals, malformed = [], [], 0
    for data in datagrams:
        try:
            records = decode_packet(data)
        except NetFlowDecodeError:
            malformed += 1
            continue
        more_ids, more_vals = items_from_flow_records(records)
        ids += more_ids
        vals += more_vals
    return ids, vals, malformed


def _assert_columnar_matches_record_level(*datagrams):
    assert _columns(datagrams) == _record_level(datagrams)


_U32 = st.one_of(st.sampled_from([0, 2**32 - 1]),
                 st.integers(min_value=0, max_value=2**32 - 1))


def _packet(pairs):
    """One v5 packet of ``(src_ip, octets)`` records; the other fields
    carry non-zero values the decoder must skip."""
    records = [
        FlowRecord(src_ip=src, dst_ip=src ^ 0xFFFFFFFF, src_port=443,
                   dst_port=65535, proto=17, packets=octets >> 1,
                   octets=octets, first_ms=0xFFFFFFFF, last_ms=1)
        for src, octets in pairs
    ]
    return (encode_packets(records) or [_EMPTY_PACKET])[0]


def _mangle(kind, packet, k):
    """``packet`` turned into one datagram of the given ``kind``."""
    if kind == "valid":
        return packet
    if kind == "empty":
        return b""
    if kind == "short header":
        return packet[:k % 24]
    if kind == "wrong version":
        return struct.pack("!H", 6 + k % 60000) + packet[2:]
    if kind == "count 31":
        return (packet[:2] + struct.pack("!H", MAX_RECORDS_PER_PACKET + 1)
                + packet[4:] + b"\xff" * (48 * 31))
    if kind == "truncated records":
        count = max(1, (len(packet) - 24) // 48)
        needed = 24 + 48 * count
        body = packet[:2] + struct.pack("!H", count) + packet[4:needed]
        return body[:24 + k % (needed - 24)]
    assert kind == "trailing bytes"
    return packet + bytes([k % 256]) * (1 + k % 47)


_DATAGRAM = st.builds(
    _mangle,
    st.sampled_from(["valid", "valid", "empty", "short header",
                     "wrong version", "count 31", "truncated records",
                     "trailing bytes"]),
    st.lists(st.tuples(_U32, _U32), max_size=MAX_RECORDS_PER_PACKET).map(
        _packet),
    st.integers(min_value=0, max_value=2**16),
)

_WAKEUP = st.lists(_DATAGRAM, max_size=12)


class TestColumnarDecoder:
    """``decode_columns`` ≡ ``items_from_flow_records ∘ decode_packet``
    concatenated over a wake-up's datagrams: the same columns from
    every datagram the record-level path accepts, one ``malformed``
    count for every one it rejects — on the NumPy and the pure-Python
    stack alike."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([0, 1, 29, 30]),
                    st.integers(min_value=31, max_value=95)),
        seed=st.integers(min_value=0, max_value=10_000),
        trailer=st.binary(max_size=100),
    )
    def test_valid_packets(self, n, seed, trailer):
        packets = encode_packets(_random_records(n, seed)) or [_EMPTY_PACKET]
        for packet in packets:
            for data in (packet, packet + trailer):
                ids, vals, malformed = _columns([data])
                assert (ids, vals) == items_from_flow_records(
                    decode_packet(data))
                assert malformed == 0
        _assert_columnar_matches_record_level(*packets)

    @settings(max_examples=150, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=256),
        # A v5 header with any count, then any body.
        st.tuples(st.integers(min_value=0, max_value=2**16 - 1),
                  st.binary(max_size=30 * 48 + 64)).map(
            lambda t: struct.pack("!HH", 5, t[0]) + t[1]),
    ))
    def test_arbitrary_bytes(self, data):
        _assert_columnar_matches_record_level(data)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
        flips=st.lists(st.integers(min_value=0, max_value=2**20),
                       min_size=1, max_size=6),
        cut=st.integers(min_value=0, max_value=30 * 48 + 24),
    )
    def test_bit_flipped_and_truncated_packets(self, n, seed, flips, cut):
        (packet,) = (encode_packets(_random_records(n, seed))
                     or [_EMPTY_PACKET])
        blob = bytearray(packet)
        for f in flips:
            blob[f % len(blob)] ^= 1 << (f % 8)
        _assert_columnar_matches_record_level(bytes(blob))
        _assert_columnar_matches_record_level(bytes(blob[:cut]))
        _assert_columnar_matches_record_level(
            packet, bytes(blob), bytes(blob[:cut]), packet)

    @pytest.mark.parametrize("data", [
        "not bytes", None, 5, bytearray(_EMPTY_PACKET),
        memoryview(_EMPTY_PACKET),
    ], ids=lambda d: type(d).__name__)
    def test_input_types(self, data):
        _assert_columnar_matches_record_level(data)

    @settings(max_examples=200, deadline=None)
    @given(wakeup=_WAKEUP)
    def test_wakeups(self, wakeup):
        _assert_columnar_matches_record_level(*wakeup)

    def test_u32_boundaries(self):
        top = 2**32 - 1
        packet = _packet([(0, top), (top, 0), (top, top), (0, 0)])
        assert _columns([b"", packet, packet[:30]]) == (
            [0, top, top, 0], [float(top), 0.0, float(top), 0.0], 2)

    @settings(max_examples=150, deadline=None)
    @given(wakeup=_WAKEUP,
           limit=st.integers(min_value=-1, max_value=4 * 30))
    @example(wakeup=[_packet([(1, 1)] * 30)] * 2, limit=30)
    @example(wakeup=[b"", _EMPTY_PACKET, _EMPTY_PACKET], limit=0)
    def test_limit_stops_pulling(self, wakeup, limit):
        """Datagrams are taken only until the accepted records reach
        ``limit``: the reader's room early stop."""
        stop = len(wakeup)
        records = 0
        for i, data in enumerate(wakeup):
            try:
                records += len(decode_packet(data))
            except NetFlowDecodeError:
                continue
            if records >= limit:
                stop = i + 1
                break
        pulled = []

        def source():
            for data in wakeup:
                pulled.append(data)
                yield data

        with mock.patch.object(netflow, "HAVE_NUMPY", False):
            ids, vals, malformed = decode_columns(source(), limit)
        assert pulled == wakeup[:stop]
        assert (ids, vals, malformed) == _record_level(pulled)
        assert _columns(pulled, limit) == (ids, vals, malformed)
