"""Failure-injection / fuzz tests.

Two families live here:

* **Parser fuzz** — a controller ingests reports from remote switches
  and pcap files from arbitrary tooling; whatever the bytes, the
  decoders must either return a valid object or raise
  ``ConfigurationError`` — never crash with an unrelated exception or
  hang.
* **Differential batch fuzz** — the batch-first update path promises
  *exactly* the same retained-set semantics as item-at-a-time updates
  for every ``QMaxBase`` implementation.  Two identical structures are
  driven with the same random stream — one per-item, one through
  ``add_many`` with randomly sized batches — and must end with equal
  retained multisets, query results and (where tracked) eviction
  multisets.  Eviction *order* is deliberately unspecified under
  batching (see ``QMaxBase.take_evicted``), so evictions compare as
  multisets.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._compat import HAVE_NUMPY
from repro.baselines.heap import HeapQMax
from repro.baselines.skiplist import SkipListQMax
from repro.baselines.sortedlist import SortedListQMax
from repro.core.amortized import AmortizedQMax
from repro.core.exponential_decay import ExponentialDecayQMax
from repro.core.hierarchical import (
    BufferedSlidingQMax,
    HierarchicalSlidingQMax,
)
from repro.core.qmax import QMax
from repro.core.qmin import QMin
from repro.core.sliding import SlidingQMax
from repro.errors import ConfigurationError
from repro.netwide.wire import from_bytes, from_json
from repro.traffic.headers import packet_from_bytes
from repro.traffic.pcap import _iter_records


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=400))
def test_wire_decoder_survives_random_bytes(data):
    try:
        report = from_bytes(data)
    except ConfigurationError:
        return
    # If it parsed, it must be internally consistent.
    assert report.observed >= 0
    values = [v for _r, v in report.entries]
    assert values == sorted(values)


@settings(max_examples=200, deadline=None)
@given(text=st.text(max_size=300))
def test_json_decoder_survives_random_text(text):
    try:
        from_json(text)
    except ConfigurationError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=200))
def test_packet_parser_survives_random_bytes(data):
    try:
        packet_from_bytes(data)
    except (ConfigurationError, ValueError):
        # struct.error is a ValueError subclass: acceptable for raw
        # header parsing of truncated frames.
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=300))
def test_pcap_reader_survives_random_bytes(data):
    try:
        list(_iter_records(data))
    except ConfigurationError:
        pass


class TestBitFlips:
    """Single-bit corruptions of valid artifacts are caught or benign."""

    def test_wire_report_bit_flips(self):
        from repro.netwide.nmp import MeasurementPoint
        from repro.netwide.wire import from_measurement_point, to_bytes
        from repro.traffic.packet import Packet

        nmp = MeasurementPoint(8, seed=1)
        for pid in range(100):
            nmp.observe(Packet(1, 2, 3, 4, 6, 100, packet_id=pid))
        blob = bytearray(to_bytes(from_measurement_point(nmp)))
        for byte_index in range(0, len(blob), 7):
            corrupted = bytearray(blob)
            corrupted[byte_index] ^= 0x40
            try:
                report = from_bytes(bytes(corrupted))
            except (ConfigurationError, UnicodeDecodeError):
                continue
            # Accepted corruptions must still be structurally valid.
            assert report.observed >= 0

    def test_ipv4_checksum_catches_header_flips(self):
        from repro.traffic.headers import IPv4Header

        header = IPv4Header(0x0A000001, 0x0A000002, 500, 6).encode()
        caught = 0
        for byte_index in range(len(header)):
            corrupted = bytearray(header)
            corrupted[byte_index] ^= 0x01
            try:
                IPv4Header.decode(bytes(corrupted))
            except ConfigurationError:
                caught += 1
        # The internet checksum detects every single-bit flip.
        assert caught == len(header)


# ----------------------------------------------------------------------
# Differential batch fuzz: add_many ≡ repeated add, for every QMaxBase.
# ----------------------------------------------------------------------

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

#: Batch sizes drawn at random while replaying the batched copy; mixes
#: tiny, medium and large bursts so chunk boundaries land everywhere.
BATCH_CHOICES = (1, 2, 3, 5, 8, 13, 32, 64, 200)

TRIALS = 5

GAMMAS = (0.05, 0.25, 1.0)


def _factories():
    """pytest params of (tracked, factory(q, gamma)) per implementation."""
    entries = [
        ("qmax", False, lambda q, g: QMax(q, g)),
        ("qmax-pure", False, lambda q, g: QMax(q, g, use_numpy=False)),
        ("qmax-tracked", True,
         lambda q, g: QMax(q, g, track_evictions=True)),
        ("amortized", False, lambda q, g: AmortizedQMax(q, g)),
        ("amortized-tracked", True,
         lambda q, g: AmortizedQMax(q, g, track_evictions=True)),
        ("qmin", False,
         lambda q, g: QMin(q, backend=lambda n: QMax(n, g))),
        ("exp-decay", False,
         lambda q, g: ExponentialDecayQMax(
             q, 0.9, backend=lambda n: QMax(n, g))),
        ("sliding", False, lambda q, g: SlidingQMax(q, 100, 0.25)),
        ("hierarchical", False,
         lambda q, g: HierarchicalSlidingQMax(q, 100, 0.25)),
        ("buffered", False,
         lambda q, g: BufferedSlidingQMax(q, 100, 0.25)),
        ("heap", False, lambda q, g: HeapQMax(q)),
        ("heap-tracked", True,
         lambda q, g: HeapQMax(q, track_evictions=True)),
        ("skiplist", False, lambda q, g: SkipListQMax(q)),
        ("skiplist-tracked", True,
         lambda q, g: SkipListQMax(q, track_evictions=True)),
        ("sortedlist", False, lambda q, g: SortedListQMax(q)),
        ("sortedlist-tracked", True,
         lambda q, g: SortedListQMax(q, track_evictions=True)),
    ]
    params = [
        pytest.param(tracked, factory, id=name)
        for name, tracked, factory in entries
    ]
    params.append(pytest.param(
        False, lambda q, g: QMax(q, g, use_numpy=True),
        id="qmax-numpy", marks=needs_numpy,
    ))
    params.append(pytest.param(
        False, lambda q, g: QMax(q, g, kernel="numpy"),
        id="vector", marks=needs_numpy,
    ))
    return params


def _random_stream(rng: random.Random, n: int):
    """ids 0..n-1 with positive values mixing ties and a continuum."""
    vals = []
    for _ in range(n):
        if rng.random() < 0.3:
            vals.append(float(rng.randint(1, 20)))  # forced duplicates
        else:
            vals.append(rng.random() * 100.0 + 1e-9)
    return list(range(n)), vals


def _items_multiset(structure):
    return sorted(structure.items())


@pytest.mark.parametrize("tracked,factory", _factories())
def test_add_many_equals_repeated_add(tracked, factory):
    for trial in range(TRIALS):
        rng = random.Random(0xF0220 + trial)
        q = rng.randint(1, 80)
        gamma = rng.choice(GAMMAS)
        n = rng.randint(1, 700)
        ids, vals = _random_stream(rng, n)

        single = factory(q, gamma)
        batched = factory(q, gamma)

        evicted_single = []
        evicted_batched = []
        i = 0
        while i < n:
            take = min(rng.choice(BATCH_CHOICES), n - i)
            for j in range(i, i + take):
                single.add(ids[j], vals[j])
            batched.add_many(ids[i:i + take], vals[i:i + take])
            i += take
            if tracked and rng.random() < 0.25:
                # Drain mid-stream on both sides: draining must never
                # perturb subsequent behaviour.
                evicted_single.extend(single.take_evicted())
                evicted_batched.extend(batched.take_evicted())

        context = (trial, q, gamma, n)
        assert _items_multiset(batched) == _items_multiset(single), context
        assert sorted(batched.query()) == sorted(single.query()), context
        if tracked:
            evicted_single.extend(single.take_evicted())
            evicted_batched.extend(batched.take_evicted())
            assert sorted(evicted_batched) == sorted(evicted_single), context


@pytest.mark.parametrize("tracked,factory", _factories())
def test_add_many_empty_batch_is_noop(tracked, factory):
    s = factory(8, 0.25)
    s.add_many([], [])
    assert list(s.items()) == []
    s.add_many([1, 2], [5.0, 7.0])
    s.add_many([], [])
    # Values may be transformed internally (exp-decay, qmin); the
    # retained ids are what an empty batch must not disturb.
    assert [item_id for item_id, _ in _items_multiset(s)] == [1, 2]


@pytest.mark.parametrize("tracked,factory", _factories())
def test_add_many_rejects_length_mismatch(tracked, factory):
    s = factory(8, 0.25)
    with pytest.raises(ConfigurationError):
        s.add_many([1, 2, 3], [1.0, 2.0])
