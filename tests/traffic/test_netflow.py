"""Tests for the NetFlow v5 export codec."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetFlowDecodeError, ReproError
from repro.errors import ConfigurationError
from repro.traffic.netflow import (
    MAX_RECORDS_PER_PACKET,
    FlowRecord,
    decode_packet,
    decode_src_octets,
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


def _outcome(decode, data):
    """What one decoder makes of ``data``: its columns, or the message
    of the :class:`NetFlowDecodeError` it raised.  Any other exception
    propagates and fails the test."""
    try:
        return decode(data)
    except NetFlowDecodeError as exc:
        return ("rejected", str(exc))


def _record_level(data):
    return items_from_flow_records(decode_packet(data))


def _assert_columnar_matches_record_level(data):
    assert (_outcome(decode_src_octets, data)
            == _outcome(_record_level, data))


class TestColumnarDecoder:
    """``decode_src_octets`` ≡ ``items_from_flow_records ∘
    decode_packet``: the same columns on every packet the record-level
    path accepts, the same rejection (and message) on every one it
    rejects."""

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
                ids, vals = decode_src_octets(data)
                assert (ids, vals) == _record_level(data)
                assert all(type(v) is float for v in vals)

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

    @pytest.mark.parametrize("data", [
        "not bytes", None, 5, bytearray(_EMPTY_PACKET),
        memoryview(_EMPTY_PACKET),
    ], ids=lambda d: type(d).__name__)
    def test_input_types(self, data):
        _assert_columnar_matches_record_level(data)
