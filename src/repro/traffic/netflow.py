"""NetFlow v5 export encoding and decoding.

Measurement results leave switches as flow records; NetFlow v5 is the
lingua franca collectors speak.  This module implements the v5 export
packet format from scratch (header + up to 30 fixed 48-byte records)
so that measured flow tables — e.g. a PBA sample or the heavy hitters
of a window — can be exported to and ingested from standard tooling.

Only the fields our pipeline populates are round-tripped faithfully;
the rest are zeroed on encode and ignored on decode, as collectors do.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError, NetFlowDecodeError

#: NetFlow v5 constants.
VERSION = 5
MAX_RECORDS_PER_PACKET = 30

_HEADER = struct.Struct("!HHIIIIBBH")
_RECORD = struct.Struct("!IIIHHIIIIHHBBBBHHBBH")
#: A record seen through only its two ranked fields: src_ip at offset
#: 0 and octets at offset 20.
_SRC_OCTETS = struct.Struct("!I16xI24x")

assert _HEADER.size == 24
assert _RECORD.size == _SRC_OCTETS.size == 48


@dataclass(frozen=True)
class FlowRecord:
    """One exported flow."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int
    packets: int
    octets: int
    first_ms: int = 0  # SysUptime at flow start (ms)
    last_ms: int = 0

    def __post_init__(self) -> None:
        for field, bits in (
            ("src_ip", 32), ("dst_ip", 32), ("src_port", 16),
            ("dst_port", 16), ("proto", 8), ("packets", 32),
            ("octets", 32), ("first_ms", 32), ("last_ms", 32),
        ):
            value = getattr(self, field)
            if not 0 <= value < (1 << bits):
                raise ConfigurationError(
                    f"{field}={value} out of range for u{bits}"
                )


def encode_packets(
    records: Sequence[FlowRecord],
    sys_uptime_ms: int = 0,
    unix_secs: int = 0,
    engine_id: int = 0,
) -> List[bytes]:
    """Encode records into one or more v5 export packets."""
    packets: List[bytes] = []
    flow_sequence = 0
    for start in range(0, len(records), MAX_RECORDS_PER_PACKET):
        chunk = records[start:start + MAX_RECORDS_PER_PACKET]
        header = _HEADER.pack(
            VERSION,
            len(chunk),
            sys_uptime_ms & 0xFFFFFFFF,
            unix_secs & 0xFFFFFFFF,
            0,  # unix_nsecs
            flow_sequence,
            0,  # engine_type
            engine_id & 0xFF,
            0,  # sampling interval
        )
        body = b"".join(
            _RECORD.pack(
                r.src_ip,
                r.dst_ip,
                0,  # nexthop
                0,  # input ifindex
                0,  # output ifindex
                r.packets,
                r.octets,
                r.first_ms,
                r.last_ms,
                r.src_port,
                r.dst_port,
                0,  # pad1
                0,  # tcp flags
                r.proto,
                0,  # tos
                0,  # src AS
                0,  # dst AS
                0,  # src mask
                0,  # dst mask
                0,  # pad2
            )
            for r in chunk
        )
        packets.append(header + body)
        flow_sequence += len(chunk)
    return packets


def _record_area(data: bytes) -> memoryview:
    """Validate a v5 packet's header and return its record area.

    The one validation path shared by :func:`decode_packet` and
    :func:`decode_src_octets`.  The returned view holds exactly the
    ``count`` records the header announces.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise NetFlowDecodeError(
            f"expected bytes, got {type(data).__name__}"
        )
    if len(data) < _HEADER.size:
        raise NetFlowDecodeError(
            f"truncated NetFlow header: need {_HEADER.size} bytes, "
            f"got {len(data)}"
        )
    version, count = _HEADER.unpack_from(data)[:2]
    if version != VERSION:
        raise NetFlowDecodeError(
            f"unsupported NetFlow version {version}"
        )
    if count > MAX_RECORDS_PER_PACKET:
        raise NetFlowDecodeError(
            f"record count {count} exceeds the v5 maximum of "
            f"{MAX_RECORDS_PER_PACKET}"
        )
    needed = _HEADER.size + count * _RECORD.size
    if len(data) < needed:
        raise NetFlowDecodeError(
            f"truncated NetFlow packet: need {needed} bytes, "
            f"got {len(data)}"
        )
    return memoryview(data)[_HEADER.size:needed]


def decode_packet(data: bytes) -> List[FlowRecord]:
    """Decode one v5 export packet into flow records.

    Any malformation — truncated header, wrong version, a record count
    exceeding the v5 maximum, or a record area shorter than the count
    promises — raises :class:`NetFlowDecodeError` (never a bare
    ``struct.error``), so a collector can count-and-drop garbage
    datagrams instead of crashing.
    """
    return [
        FlowRecord(
            src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
            proto=proto, packets=pkts, octets=octets,
            first_ms=first, last_ms=last,
        )
        for (src, dst, _nh, _inif, _outif, pkts, octets, first, last,
             sport, dport, _pad, _flags, proto, _tos, _sas, _das, _smask,
             _dmask, _pad2) in _RECORD.iter_unpack(_record_area(data))
    ]


def decode_src_octets(data: bytes) -> Tuple[List[int], List[float]]:
    """Decode one v5 export packet straight into ``(ids, vals)``
    columns: ``src_ip`` and ``float(octets)`` per record.

    Equal to ``items_from_flow_records(decode_packet(data))`` and
    rejecting exactly what :func:`decode_packet` rejects, but it
    unpacks only the two ranked fields and builds no
    :class:`FlowRecord` — whose range checks cannot fire on fields
    read from fixed-width unsigned wire slots.  This is the daemon's
    UDP hot path.
    """
    pairs = list(_SRC_OCTETS.iter_unpack(_record_area(data)))
    return [p[0] for p in pairs], [float(p[1]) for p in pairs]


def decode_stream(packets: Iterable[bytes]) -> List[FlowRecord]:
    """Decode a sequence of export packets into one record list."""
    records: List[FlowRecord] = []
    for packet in packets:
        records.extend(decode_packet(packet))
    return records


def records_from_sample(
    sample: Sequence[Tuple[object, float, float]],
) -> List[FlowRecord]:
    """Convert a PBA-style sample ``[(src_ip, weight, estimate)]`` into
    flow records (estimate rounds into the octet counter)."""
    records = []
    for key, _weight, estimate in sample:
        if not isinstance(key, int):
            raise ConfigurationError(
                f"NetFlow export needs integer src_ip keys, got {key!r}"
            )
        records.append(
            FlowRecord(
                src_ip=key & 0xFFFFFFFF,
                dst_ip=0,
                src_port=0,
                dst_port=0,
                proto=0,
                packets=0,
                octets=min(int(round(estimate)), 0xFFFFFFFF),
            )
        )
    return records
