"""The benchmark's workloads and their seeded input generators.

Every input is a function of the seed.  Each source hands out *blocks*:
the encoded bytes to send (NetFlow v5 datagrams or ``!I``-framed QMRP
report frames, one list per daemon) plus the decoded ``(id, value)``
records the daemon should derive from them, which feed the oracle.
Encoding happens when a block is made, always before the phase that
sends it starts its clock.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List

import numpy as np

from repro.netwide.wire import Report, to_bytes
from repro.service.ingest import FRAME_HEADER
from repro.traffic.netflow import encode_packets
from repro.traffic.synthetic import CAIDA16, zipf_weights

#: ``encode_packets`` reads only these attributes.  ``FlowRecord``
#: range-checks every field in its constructor, about 5 µs a record on a
#: 2-vCPU host; this namedtuple takes about 1.6 µs and encodes to the
#: same bytes (the self-test checks that).  A ``fleet-epoch`` run sends
#: about two million records, so building ``FlowRecord``s stretched it
#: from about 33 s to 41 s of wall time, and a full set of benchmark
#: runs close to its time limit.  The values come from the generator's
#: own bounded draws, so the checks would never fire.
Rec = namedtuple(
    "Rec",
    "src_ip dst_ip src_port dst_port proto packets octets first_ms last_ms",
)

#: Entries per QMRP report frame.
REPORT_ENTRIES = 1000

#: Every daemon's top-q size.  The daemon's ``top`` costs O(q) whatever
#: k is asked for, so q bounds how many queries a run can afford.
Q = 1000

#: Open-loop cadence of ``top`` queries, and of epoch cycles.
CADENCE_HZ = 20.0


@dataclass
class Block:
    """One batch of encoded input, split by destination daemon."""

    payloads: List[List[bytes]]
    ids: List[list]
    vals: List[List[float]]

    @property
    def records(self) -> List[int]:
        return [len(ids) for ids in self.ids]

    @property
    def total(self) -> int:
        return sum(self.records)


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``trial_records`` sizes a saturation trial (about half a second of
    work on a 2-CPU host).  ``offered_rps`` is the open-loop phase's fixed
    offered rate, a sixth to a tenth of the saturation rate: with the
    ``top`` queries and epoch cycles at ``CADENCE_HZ`` the daemon is
    about a third busy, low enough that the latency percentiles measure
    the program rather than the queue in front of it.
    """

    name: str
    transport: str
    daemons: int
    trial_records: int
    offered_rps: int
    source: Callable[[int, int], "Source"]

    @property
    def fleet(self) -> bool:
        return self.daemons > 1


class Source:
    """Seeded block generator; ``block(n)`` continues the stream."""

    def block(self, n_records: int) -> Block:
        raise NotImplementedError


def _spread_ips(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct 10.0.0.0/8 addresses, scrambled by a seeded odd
    multiplier (a bijection modulo 2**24)."""
    mult = int(rng.integers(1 << 22)) * 2 + 1
    return 0x0A000000 + (np.arange(n, dtype=np.int64) * mult) % (1 << 24)


def _partition(src: np.ndarray, daemons: int) -> np.ndarray:
    """Which daemon a flow's records go to: a multiplicative hash of the
    source address, so every record of one flow meets one daemon."""
    return ((src * 0x9E3779B1) >> 11) % daemons


def _netflow_block(
    src: np.ndarray, packets: np.ndarray, octets: np.ndarray,
    part: np.ndarray, daemons: int,
) -> Block:
    payloads, ids_out, vals_out = [], [], []
    for d in range(daemons):
        mask = part == d
        s = src[mask].tolist()
        n = len(s)
        records = list(map(
            Rec, s, repeat(0xC0A80001, n), repeat(40000, n),
            repeat(443, n), repeat(6, n), packets[mask].tolist(),
            octets[mask].tolist(), repeat(0, n), repeat(0, n),
        ))
        payloads.append(encode_packets(records))
        ids_out.append(s)
        vals_out.append(octets[mask].astype(np.float64).tolist())
    return Block(payloads, ids_out, vals_out)


class ZipfFlowSource(Source):
    """NetFlow records of ``caida16`` traffic, one export interval at a
    time.  An interval holds ``interval_packets`` packets of the profile:
    each packet's flow is drawn Zipf(α) over the profile's flows and its
    size from the profile's size mixture, as ``generate_packets`` draws
    them.  Every flow that sent packets in the interval then exports one
    record with its packet count and octet sum, in a seeded order.

    The per-flow sums are drawn directly: a multinomial over the flows
    for the packet counts, and one over the size mixture for each
    flow's packets.  That is the same distribution as summing
    ``generate_packets`` output per flow (the self-test compares the
    two), at a small fraction of the cost: ``generate_packets`` builds
    a ``Packet`` per packet, about 7 s per million on a 2-vCPU host,
    and a run sends several million packets' worth of records.

    The default interval is one second of the profile's packet rate.
    It yields about 65 000 records, and its largest flow about 84 MB,
    well inside the u32 octet field.  Heavy flows export about the same
    volume every interval, so once the top-q fills almost no record
    beats the admission threshold."""

    def __init__(self, seed: int, daemons: int,
                 interval_packets: int = int(CAIDA16.mean_rate_pps)) -> None:
        self.rng = np.random.default_rng(seed)
        self.daemons = daemons
        self.interval_packets = interval_packets
        self.probs = zipf_weights(CAIDA16.n_flows, CAIDA16.alpha)
        self.src = _spread_ips(self.rng, CAIDA16.n_flows)
        self.part = _partition(self.src, daemons)
        self.sizes = np.array(CAIDA16.size_points, dtype=np.int64)
        self.size_probs = np.array(CAIDA16.size_probs)
        empty = np.empty(0, dtype=np.int64)
        self._buf = (empty, empty, empty)

    def interval(self):
        """One export interval: ``(flow, packets, octets)`` arrays, one
        entry per flow that sent packets, in export order."""
        rng = self.rng
        counts = rng.multinomial(self.interval_packets, self.probs)
        flow = rng.permutation(np.flatnonzero(counts))
        packets = counts[flow]
        octets = rng.multinomial(packets, self.size_probs) @ self.sizes
        return flow, packets, octets

    def block(self, n_records: int) -> Block:
        parts = [self._buf]
        have = len(self._buf[0])
        while have < n_records:
            parts.append(self.interval())
            have += len(parts[-1][0])
        flow, packets, octets = (
            np.concatenate([p[k] for p in parts]) for k in range(3)
        )
        self._buf = (flow[n_records:], packets[n_records:],
                     octets[n_records:])
        flow = flow[:n_records]
        return _netflow_block(
            self.src[flow], packets[:n_records], octets[:n_records],
            self.part[flow], self.daemons,
        )


class RisingFlowSource(Source):
    """Long-lived flows that re-export their cumulative octet count
    (active-timeout style).  Every round each flow exports once, in a
    seeded order, with ``round * STEP`` plus up to one step of jitter:
    each round outgrows the last, so nearly every record is admitted
    and maintenance drives run all the time."""

    FLOWS = 1000
    STEP = 1 << 20

    def __init__(self, seed: int, daemons: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.daemons = daemons
        self.src = _spread_ips(self.rng, self.FLOWS)
        self.part = _partition(self.src, daemons)
        self.round = 1
        self._src_buf = np.empty(0, dtype=np.int64)
        self._oct_buf = np.empty(0, dtype=np.int64)

    def block(self, n_records: int) -> Block:
        rng = self.rng
        srcs, octs = [self._src_buf], [self._oct_buf]
        have = len(self._src_buf)
        while have < n_records:
            if (self.round + 1) * self.STEP >= 1 << 32:
                raise RuntimeError("rising source exhausted u32 octets")
            order = rng.permutation(self.FLOWS)
            srcs.append(self.src[order])
            octs.append(
                self.round * self.STEP
                + rng.integers(0, self.STEP, self.FLOWS)
            )
            self.round += 1
            have += self.FLOWS
        src = np.concatenate(srcs)
        octets = np.concatenate(octs)
        self._src_buf, self._oct_buf = src[n_records:], octets[n_records:]
        src, octets = src[:n_records], octets[:n_records]
        # The daemon ranks flows by octets; the packet count only keeps
        # each record plausible.
        packets = np.maximum(octets // 800, 1)
        return _netflow_block(
            src, packets, octets, _partition(src, self.daemons),
            self.daemons,
        )


class ReportSource(Source):
    """QMRP report frames: ``REPORT_ENTRIES`` ascending-hash samples
    each, keyed by unique ``(flow, packet_id)`` tuples, hashes uniform
    on [0, 1) — what an NMP ships to its collector."""

    def __init__(self, seed: int, daemons: int) -> None:
        if daemons != 1:
            raise ValueError("report frames go to one daemon")
        self.rng = np.random.default_rng(seed)
        self.next_pid = 0
        self.frames = 0

    def block(self, n_records: int) -> Block:
        rng = self.rng
        frames, ids, vals = [], [], []
        for _ in range(-(-n_records // REPORT_ENTRIES)):
            flows = rng.integers(0, 1 << 32, REPORT_ENTRIES).tolist()
            pids = range(self.next_pid, self.next_pid + REPORT_ENTRIES)
            self.next_pid += REPORT_ENTRIES
            hashes = np.sort(rng.random(REPORT_ENTRIES)).tolist()
            keys = list(zip(flows, pids))
            report = Report(
                nmp_name=f"nmp{self.frames % 8}",
                observed=REPORT_ENTRIES,
                entries=tuple(zip(keys, hashes)),
            )
            self.frames += 1
            blob = to_bytes(report)
            frames.append(FRAME_HEADER.pack(len(blob)) + blob)
            ids.extend(keys)
            vals.extend(hashes)
        return Block([frames], [ids], [vals])


#: Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="netflow-zipf",
            transport="udp", daemons=1,
            trial_records=60_000, offered_rps=20_000,
            source=ZipfFlowSource,
        ),
        Workload(
            name="netflow-rising",
            transport="udp", daemons=1,
            trial_records=35_000, offered_rps=12_000,
            source=RisingFlowSource,
        ),
        Workload(
            name="qmrp-query",
            transport="tcp", daemons=1,
            trial_records=250_000, offered_rps=90_000,
            source=ReportSource,
        ),
        Workload(
            name="fleet-epoch",
            transport="udp", daemons=2,
            trial_records=125_000, offered_rps=40_000,
            source=ZipfFlowSource,
        ),
    )
}
