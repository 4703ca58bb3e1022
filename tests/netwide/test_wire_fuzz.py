"""Fuzz tests for the binary report wire format.

Round-trips over random valid reports, plus adversarial inputs: every
strict prefix of a valid blob, random bit flips, hostile length
prefixes, and reports built with non-int ids.  The invariant
throughout: ``to_bytes``/``from_bytes`` either succeed or raise a
typed :class:`ReproError` — never a bare ``struct.error``/
``UnicodeDecodeError``, and never an unbounded allocation or hang.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ReproError, WireFormatError
from repro.netwide.wire import Report, from_bytes, to_bytes

_names = st.text(
    alphabet=st.characters(codec="utf-8"), min_size=0, max_size=40
)


def _random_report(rng: random.Random, n: int, name: str) -> Report:
    entries = sorted(
        (
            ((rng.randrange(2**32), rng.randrange(2**64)),
             rng.random())
            for _ in range(n)
        ),
        key=lambda pair: pair[1],  # Report requires ascending hashes
    )
    return Report(name, rng.randrange(2**32), tuple(entries))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=64),
    seed=st.integers(min_value=0, max_value=10_000),
    name=_names,
)
def test_roundtrip_random_reports(n, seed, name):
    report = _random_report(random.Random(seed), n, name)
    assert from_bytes(to_bytes(report)) == report


def test_roundtrip_empty_report():
    report = Report("sw-empty", 0, ())
    assert from_bytes(to_bytes(report)) == report


def test_every_strict_prefix_is_typed_error():
    report = _random_report(random.Random(1), 5, "sw0")
    blob = to_bytes(report)
    for cut in range(len(blob)):
        with pytest.raises(WireFormatError):
            from_bytes(blob[:cut])


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    flips=st.lists(
        st.integers(min_value=0, max_value=10_000),
        min_size=1, max_size=8,
    ),
)
def test_bit_flips_never_escape_typed_errors(seed, flips):
    """A corrupted blob decodes, or raises a ReproError — nothing
    else propagates (no struct.error, no UnicodeDecodeError)."""
    blob = bytearray(to_bytes(_random_report(random.Random(seed), 8,
                                             "switch-五")))
    for f in flips:
        pos = f % len(blob)
        blob[pos] ^= 1 << (f % 8)
    try:
        decoded = from_bytes(bytes(blob))
    except ReproError:
        return
    assert isinstance(decoded, Report)


@settings(max_examples=120, deadline=None)
@given(data=st.binary(max_size=256))
def test_arbitrary_bytes_never_escape_typed_errors(data):
    try:
        from_bytes(data)
    except ReproError:
        pass


class TestAdversarialLengths:
    """Hostile length fields must be rejected by comparison against
    the actual buffer size — no allocation, no hang."""

    def test_huge_name_length(self):
        blob = struct.pack("!4sBH", b"QMRP", 1, 0xFFFF) + b"x" * 10
        with pytest.raises(WireFormatError):
            from_bytes(blob)

    def test_huge_record_count(self):
        blob = (struct.pack("!4sBH", b"QMRP", 1, 0)
                + struct.pack("!Q", 0)
                + struct.pack("!I", 0xFFFFFFFF))
        with pytest.raises(WireFormatError):
            from_bytes(blob)

    def test_bad_magic(self):
        good = to_bytes(Report("sw", 1, ()))
        with pytest.raises(WireFormatError):
            from_bytes(b"XXXX" + good[4:])

    def test_future_version(self):
        good = to_bytes(Report("sw", 1, ()))
        with pytest.raises(WireFormatError):
            from_bytes(good[:4] + b"\x09" + good[5:])

    def test_invalid_utf8_name(self):
        blob = (struct.pack("!4sBH", b"QMRP", 1, 2) + b"\xff\xfe"
                + struct.pack("!Q", 0) + struct.pack("!I", 0))
        with pytest.raises(WireFormatError):
            from_bytes(blob)


class TestEncodeValidation:
    def test_non_int_flow_id(self):
        report = Report("sw", 1, ((("flow-a", 1), 0.5),))
        with pytest.raises(ConfigurationError):
            to_bytes(report)

    def test_non_int_packet_id(self):
        report = Report("sw", 1, (((1, 2.5), 0.5),))
        with pytest.raises(ConfigurationError):
            to_bytes(report)

    def test_out_of_range_ids(self):
        report = Report("sw", 1, (((2**32, 1), 0.5),))
        with pytest.raises(ConfigurationError):
            to_bytes(report)
        report = Report("sw", 1, (((1, -1), 0.5),))
        with pytest.raises(ConfigurationError):
            to_bytes(report)

    def test_unpackable_value(self):
        report = Report("sw", 1, (((1, 1), "0.5"),))
        with pytest.raises(ConfigurationError):
            to_bytes(report)

    def test_oversized_name(self):
        with pytest.raises(ConfigurationError):
            to_bytes(Report("x" * 70_000, 0, ()))


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _raw_report(hashes) -> bytes:
    """A binary report built field by field, bypassing ``to_bytes``."""
    return (struct.pack("!4sBH", b"QMRP", 1, 2) + b"sw"
            + struct.pack("!Q", len(hashes))
            + struct.pack("!I", len(hashes))
            + b"".join(struct.pack("!IQd", i, i, h)
                       for i, h in enumerate(hashes)))


class TestNonFiniteHashes:
    """Hashes are finite floats; NaN and ±inf are refused both ways."""

    @pytest.mark.parametrize("bad", _NON_FINITE, ids=repr)
    def test_encode_refuses(self, bad):
        with pytest.raises(ConfigurationError, match="non-finite"):
            to_bytes(Report("sw", 1, (((1, 1), bad),)))

    @pytest.mark.parametrize("bad", _NON_FINITE, ids=repr)
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_decode_refuses(self, bad, where):
        hashes = [0.25, 0.5, 0.75]
        hashes[where] = bad
        with pytest.raises(WireFormatError, match="non-finite"):
            from_bytes(_raw_report(hashes))

    def test_finite_extremes_still_round_trip(self):
        hashes = [-1.7976931348623157e308, -0.0, 5e-324,
                  1.7976931348623157e308]
        report = from_bytes(_raw_report(hashes))
        assert [h for _record, h in report.entries] == hashes
        assert from_bytes(to_bytes(report)) == report
