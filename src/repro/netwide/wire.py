"""Wire formats for NMP → controller reports.

In the paper's deployment, NMPs run on switches and periodically ship
their q-MIN samples to a central controller.  This module provides two
interchangeable encodings of a report:

* **JSON** — debuggable, schema-documented, for control channels where
  readability matters.
* **Binary** — a compact fixed-record format (`struct`-packed) for the
  data channel: magic + version + NMP name + record count, then one
  ``(flow: u32, packet_id: u64, hash: f64)`` record per sample.  A
  hash must be finite: NaN or ±inf is refused on encode and on decode.

Both round-trip exactly (hash values are IEEE doubles end to end, so
merged results are bit-identical to in-process merging) and validate
their input defensively — a controller must survive malformed reports
from a misbehaving switch.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import List, Tuple

from repro.errors import ConfigurationError, WireFormatError

#: Sample record: ((flow, packet_id), hash_value) — matches
#: MeasurementPoint.report() entries.
ReportEntry = Tuple[Tuple[int, int], float]

_MAGIC = b"QMRP"
_VERSION = 1
_HEADER = struct.Struct("!4sBH")  # magic, version, name length
_COUNT = struct.Struct("!I")
_RECORD = struct.Struct("!IQd")

#: The hash field of an unpacked ``_RECORD`` tuple.
_HASH_OF = itemgetter(2)


@dataclass(frozen=True)
class Report:
    """One NMP report: who sent it, how many packets it saw, and the
    minimal-hash sample."""

    nmp_name: str
    observed: int
    entries: Tuple[ReportEntry, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.observed, int) or self.observed < 0:
            raise ConfigurationError("observed must be an int >= 0")
        try:
            values = [value for _record, value in self.entries]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"entries must be ((flow, packet_id), hash) pairs: {exc}"
            ) from exc
        try:
            is_sorted = values == sorted(values)
        except TypeError as exc:
            raise ConfigurationError(
                f"entry hash values must be mutually comparable: {exc}"
            ) from exc
        if not is_sorted:
            raise ConfigurationError(
                "report entries must be sorted by ascending hash"
            )


def from_measurement_point(nmp) -> Report:
    """Snapshot a :class:`~repro.netwide.nmp.MeasurementPoint`."""
    return Report(
        nmp_name=nmp.name,
        observed=nmp.observed,
        entries=tuple(nmp.report()),
    )


# ----------------------------------------------------------------------
# JSON encoding.
# ----------------------------------------------------------------------

def to_json(report: Report) -> str:
    """Encode a report as a JSON document."""
    return json.dumps(
        {
            "format": "qmax-report",
            "version": _VERSION,
            "nmp": report.nmp_name,
            "observed": report.observed,
            "samples": [
                {"flow": flow, "packet_id": pid, "hash": value}
                for (flow, pid), value in report.entries
            ],
        }
    )


def from_json(text: str) -> Report:
    """Decode and validate a JSON report.

    Malformed input raises :class:`WireFormatError`.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, TypeError) as exc:
        raise WireFormatError(f"malformed JSON report: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "qmax-report":
        raise WireFormatError("not a qmax-report document")
    if doc.get("version") != _VERSION:
        raise WireFormatError(
            f"unsupported report version {doc.get('version')!r}"
        )
    try:
        entries = tuple(
            ((int(s["flow"]), int(s["packet_id"])), float(s["hash"]))
            for s in doc["samples"]
        )
        return Report(
            nmp_name=str(doc["nmp"]),
            observed=int(doc["observed"]),
            entries=entries,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed report fields: {exc}") from exc


# ----------------------------------------------------------------------
# Binary encoding.
# ----------------------------------------------------------------------

def to_bytes(report: Report) -> bytes:
    """Encode a report in the compact binary format."""
    name = report.nmp_name.encode("utf-8")
    if len(name) > 0xFFFF:
        raise ConfigurationError("NMP name too long")
    parts = [
        _HEADER.pack(_MAGIC, _VERSION, len(name)),
        name,
        struct.pack("!Q", report.observed),
        _COUNT.pack(len(report.entries)),
    ]
    for (flow, pid), value in report.entries:
        if not isinstance(flow, int) or not isinstance(pid, int):
            raise ConfigurationError(
                f"record ids must be ints: flow={flow!r}, "
                f"packet_id={pid!r}"
            )
        if not 0 <= flow < 2**32 or not 0 <= pid < 2**64:
            raise ConfigurationError(
                f"record out of range: flow={flow}, packet_id={pid}"
            )
        try:
            parts.append(_RECORD.pack(flow, pid, value))
        except struct.error as exc:
            raise ConfigurationError(
                f"unencodable record value {value!r}: {exc}"
            ) from exc
        if not math.isfinite(value):
            raise ConfigurationError(
                f"non-finite record hash {value!r}: flow={flow}, "
                f"packet_id={pid}"
            )
    return b"".join(parts)


def from_bytes(data: bytes) -> Report:
    """Decode and validate a binary report.

    Malformed input — bad magic, adversarial length prefixes, records
    that stop mid-stream, an undecodable name, a NaN or infinite
    hash — raises
    :class:`WireFormatError`; decoding never reads past ``len(data)``
    and never allocates proportionally to an unvalidated length field.
    """
    if len(data) < _HEADER.size:
        raise WireFormatError("truncated report header")
    magic, version, name_len = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise WireFormatError(f"bad report magic {magic!r}")
    if version != _VERSION:
        raise WireFormatError(f"unsupported report version {version}")
    offset = _HEADER.size
    if offset + name_len + 8 + _COUNT.size > len(data):
        raise WireFormatError("truncated report body")
    try:
        name = data[offset:offset + name_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"undecodable NMP name: {exc}") from exc
    offset += name_len
    (observed,) = struct.unpack_from("!Q", data, offset)
    offset += 8
    (count,) = _COUNT.unpack_from(data, offset)
    offset += _COUNT.size
    end = offset + count * _RECORD.size
    if end > len(data):
        raise WireFormatError("truncated report records")
    records = list(_RECORD.iter_unpack(memoryview(data)[offset:end]))
    if not all(map(math.isfinite, map(_HASH_OF, records))):
        bad = next(r for r in records if not math.isfinite(r[2]))
        raise WireFormatError(
            f"non-finite record hash {bad[2]!r}: flow={bad[0]}, "
            f"packet_id={bad[1]}"
        )
    entries = tuple([((flow, pid), value) for flow, pid, value in records])
    try:
        return Report(nmp_name=name, observed=observed, entries=entries)
    except ConfigurationError as exc:
        # Bit-flipped records can decode into an invalid Report (e.g.
        # hashes out of ascending order); that's still wire garbage.
        raise WireFormatError(f"invalid decoded report: {exc}") from exc


# ----------------------------------------------------------------------
# Controller-side merging of decoded reports.
# ----------------------------------------------------------------------

def merge_reports(reports: List[Report], q: int) -> List[ReportEntry]:
    """Merge decoded reports into the globally minimal q samples.

    Functionally identical to
    :meth:`repro.netwide.controller.Controller.merge_reports`, but
    operating on wire-decoded reports — the distributed deployment's
    code path.
    """
    if q < 1:
        raise ConfigurationError(f"q must be >= 1, got {q}")
    best = {}
    for report in reports:
        for record, value in report.entries:
            best[record] = value
    merged = sorted(best.items(), key=lambda p: p[1])
    return merged[:q]
