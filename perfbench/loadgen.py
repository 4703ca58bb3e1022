"""The traffic generator: saturation trials and the open-loop phase.

One process (the benchmark's own) sends every byte over loopback:
NetFlow v5 datagrams to the daemons' UDP ports, framed QMRP reports to
the daemon's TCP port, and newline-JSON RPCs through the program's own
client, ``rpc_call_async``, which opens a fresh connection per call as
``repro query`` and the fleet coordinator do.

* **Saturation trial** — send one pre-encoded block as fast as the
  daemon takes it, then wait until every record reached
  ``stats.feeder.records_out``.  For UDP the in-flight bytes are kept
  below half the receive buffer the kernel grants the daemon's socket
  (read from ``/proc/<pid>/net/udp``), so a healthy daemon loses
  nothing; TCP has its own flow control.
* **Open loop** — records at a fixed offered rate, ``top`` queries and
  epoch cycles each at a fixed cadence, every one timed from when it
  was due, so a stall also delays the requests behind it.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.service.ingest import UDP_RECV_BUFFER
from repro.service.rpc import rpc_call_async
from repro.service.snapshot import decode_id

from perfbench import sut
from perfbench.oracle import Reference
from perfbench.sut import HOST, BenchError, System
from perfbench.workloads import CADENCE_HZ, Q, Block, Source, Workload

#: Per-RPC deadline; a slower answer counts as a failure.
RPC_TIMEOUT = 10.0


async def call(port: int, op: str, **params: Any) -> Any:
    """One RPC to a daemon or coordinator on loopback."""
    return await rpc_call_async(HOST, port, op, timeout=RPC_TIMEOUT,
                                **params)

#: How long a block may take to show up in ``records_out`` before its
#: missing records count as lost.
CONFIRM_TIMEOUT = 20.0

#: Size of the ``top`` the open loop asks for.
QUERY_K = 100


def interleave(payloads: Sequence[List[bytes]]) -> List[Tuple[int, bytes]]:
    """Merge per-daemon payload lists into one send order, each list
    spread evenly over the whole order."""
    keyed = [
        ((i + 0.5) / len(items), d, data)
        for d, items in enumerate(payloads)
        for i, data in enumerate(items)
    ]
    keyed.sort(key=lambda row: (row[0], row[1]))
    return [(d, data) for _, d, data in keyed]


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


@dataclass
class OpenLoopResult:
    windows: List[Tuple[float, float]] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    epoch_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    min_coverage: float = 1.0


class Generator:
    """Drives one live system with one workload's seeded input."""

    def __init__(
        self,
        system: System,
        workload: Workload,
        source: Source,
        reference: Reference,
        deadline: float,
    ) -> None:
        self.system = system
        self.w = workload
        self.source = source
        self.ref = reference
        self.deadline = deadline
        n = len(system.daemons)
        self.sent = [0] * n
        self.datagrams = 0
        self.rpc_attempts = 0
        self.rpc_failures = 0
        self.failure_notes: List[str] = []
        self._udp: Optional[socket.socket] = None
        self._tcp: List[asyncio.StreamWriter] = []
        self._rpc_ports = [d.rpc for d in system.daemons]
        self._pid = system.daemons[0].proc.pid
        self._udp_ports = [d.udp for d in system.daemons]
        self._udp_limit = 0
        self._warm = False
        self._epoch_no = itertools.count(1)

    # -- connections ----------------------------------------------------

    async def open(self, tcp_connections: int) -> None:
        if self.w.transport == "udp":
            self._udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                probe.setsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF, UDP_RECV_BUFFER
                )
                granted = probe.getsockopt(
                    socket.SOL_SOCKET, socket.SO_RCVBUF
                )
            finally:
                probe.close()
            # The daemon asks for the same buffer, so it is granted the
            # same; stay below half of it.
            self._udp_limit = granted // 2
        else:
            port = self.system.daemons[0].tcp
            for _ in range(tcp_connections):
                _reader, writer = await asyncio.open_connection(HOST, port)
                self._tcp.append(writer)

    async def close(self) -> None:
        if self._udp is not None:
            self._udp.close()
        for writer in self._tcp:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        self._tcp = []

    # -- sending ----------------------------------------------------------

    def _send(self, d: int, data: bytes, k: int) -> None:
        if self._udp is not None:
            self._udp.sendto(data, (HOST, self._udp_ports[d]))
            self.datagrams += 1
        else:
            self._tcp[k % len(self._tcp)].write(data)

    def _udp_backlog(self) -> int:
        """Bytes in the fullest daemon UDP receive queue."""
        queues = sut.udp_queues(self._pid, self._udp_ports)
        if len(queues) != len(self._udp_ports):
            raise BenchError("daemon UDP socket missing from /proc")
        return max(queues.values())

    async def _tcp_flushed(self) -> None:
        for writer in self._tcp:
            await writer.drain()
        while any(w.transport.get_write_buffer_size() for w in self._tcp):
            await asyncio.sleep(0.0005)

    async def _drained(self) -> None:
        """Wait until the daemons have read everything sent."""
        while True:
            if self._udp is not None:
                backlog = self._udp_backlog()
            else:
                await self._tcp_flushed()
                backlog = sut.tcp_backlog(
                    self._pid, self.system.daemons[0].tcp
                )
            if backlog == 0:
                return
            if time.monotonic() > self.deadline:
                raise BenchError("daemon stopped reading its sockets")
            await asyncio.sleep(0.001)

    async def records_out(self) -> List[int]:
        out = []
        for port in self._rpc_ports:
            stats = await call(port, "stats")
            out.append(stats["feeder"]["records_out"])
        return out

    async def _confirm(self, base: List[int], records: List[int]) -> bool:
        """Wait until every daemon's ``records_out`` grew by the records
        sent to it.  Returns False (and notes the loss) on timeout."""
        await self._drained()
        want = [b + r for b, r in zip(base, records)]
        give_up = min(time.monotonic() + CONFIRM_TIMEOUT, self.deadline)
        while True:
            got = await self.records_out()
            if all(g >= x for g, x in zip(got, want)):
                return True
            if time.monotonic() > give_up:
                self.failure_notes.append(
                    f"records_out {got} never reached {want}"
                )
                return False
            await asyncio.sleep(0.001)

    def _account(self, block: Block) -> None:
        for d, n in enumerate(block.records):
            self.sent[d] += n
        self.ref.feed(block.ids, block.vals)

    # -- saturation ---------------------------------------------------------

    async def saturate(
        self, budget_s: float, rates: List[float], windows: list
    ) -> None:
        """Saturation trials until ``budget_s`` seconds were timed,
        appending each trial's records/s and time window.  A trial that
        would end further past the budget than short of it is not
        started.  The first call starts with an untimed warm-up block,
        so the top-q has filled and the admission threshold settled
        before any trial."""
        timed = last = 0.0
        while timed + last / 2 < budget_s:
            warmup = not self._warm
            block = self.source.block(
                self.w.trial_records // 2 if warmup else self.w.trial_records
            )
            order = interleave(block.payloads)
            base = await self.records_out()
            t0 = time.monotonic()
            if self._udp is not None:
                self._blast_udp(order)
            else:
                await self._blast_tcp(order)
            ok = await self._confirm(base, block.records)
            t1 = time.monotonic()
            self._account(block)
            if not ok:
                break
            if time.monotonic() > self.deadline:
                raise BenchError("run deadline passed in saturation")
            if warmup:
                self._warm = True
                continue
            last = t1 - t0
            rates.append(block.total / last)
            windows.append((t0, t1))
            timed += last

    def _blast_udp(self, order: List[Tuple[int, bytes]]) -> None:
        # Over the limit, wait for the queue to halve, polling slowly:
        # the generator's own CPU use must not compete with the daemon
        # (the two vCPUs of a small VM may share a physical core).
        limit = self._udp_limit
        for k, (d, data) in enumerate(order):
            self._send(d, data, k)
            if k & 31 == 31 and self._udp_backlog() > limit:
                while self._udp_backlog() > limit // 2:
                    time.sleep(0.002)

    async def _blast_tcp(self, order: List[Tuple[int, bytes]]) -> None:
        for k, (d, data) in enumerate(order):
            self._send(d, data, k)
            if k % 64 == 63:
                await self._tcp_flushed()
        await self._tcp_flushed()

    # -- open loop -----------------------------------------------------------

    async def open_loop(self, duration: float,
                        result: OpenLoopResult) -> None:
        """Offered-rate records plus ``top`` queries and epoch cycles at
        fixed cadences for ``duration`` seconds; samples and the time
        window are appended to ``result``."""
        block = self.source.block(int(self.w.offered_rps * duration))
        order = interleave(block.payloads)
        interval = duration / max(1, len(order))
        n_ticks = max(1, int(CADENCE_HZ * duration))
        port = self.system.query_rpc
        base = await self.records_out()
        t0 = 0.0

        async def sender() -> None:
            late = result.late_s
            for k, (d, data) in enumerate(order):
                due = t0 + k * interval
                now = time.monotonic()
                if now < due:
                    await asyncio.sleep(due - now)
                    now = time.monotonic()
                self._send(d, data, k)
                late.append(now - due)

        epoch_no = self._epoch_no
        fleet = self.w.fleet

        def covered(answer: dict) -> None:
            result.min_coverage = min(result.min_coverage,
                                      answer["coverage"])
            if answer["coverage"] < 1.0:
                raise ServiceError(
                    f"answer covers {answer['coverage']:.0%} of the fleet"
                )

        async def query() -> None:
            answer = await call(port, "top", q=QUERY_K)
            if fleet:
                covered(answer)
                answer = answer["items"]
            _check_top(answer, QUERY_K)

        async def epoch_cycle() -> None:
            if fleet:
                covered(await call(port, "epoch", action="begin"))
                covered(await call(port, "epoch", action="collect",
                                   q=QUERY_K))
                answer = await call(port, "top", q=QUERY_K, source="epoch")
                covered(answer)
                _check_top(answer["items"], QUERY_K)
            else:
                await call(port, "epoch", action="begin",
                           epoch=next(epoch_no))
                report = await call(port, "epoch", action="collect",
                                    q=QUERY_K)
                _check_top(report["top"], QUERY_K)

        t0 = time.monotonic() + 0.02
        await asyncio.gather(
            sender(),
            self._periodic(t0, 0.25, n_ticks, query, result.query_s),
            self._periodic(t0, 0.75, n_ticks, epoch_cycle, result.epoch_s),
        )
        result.windows.append((t0, time.monotonic()))
        if self._tcp:
            await self._tcp_flushed()
        await self._confirm(base, block.records)
        self._account(block)

    async def _periodic(
        self,
        t0: float,
        phase: float,
        count: int,
        op: Callable[[], Awaitable[None]],
        out: List[float],
    ) -> None:
        """Run ``op`` at ``CADENCE_HZ``, ``phase`` of a period after
        ``t0``; each sample is timed from when it was due."""
        for j in range(count):
            due = t0 + (j + phase) / CADENCE_HZ
            now = time.monotonic()
            if now < due:
                await asyncio.sleep(due - now)
            self.rpc_attempts += 1
            try:
                await op()
            except ServiceError as exc:
                self.rpc_failures += 1
                if len(self.failure_notes) < 20:
                    self.failure_notes.append(str(exc))
                continue
            out.append(time.monotonic() - due)
            if time.monotonic() > self.deadline:
                raise BenchError("run deadline passed in the open loop")

    # -- the final answer -------------------------------------------------------

    async def final_top(self) -> list:
        """The system's full top-q answer, ids decoded."""
        self.rpc_attempts += 1
        try:
            answer = await call(self.system.query_rpc, "top", q=Q)
        except ServiceError as exc:
            self.rpc_failures += 1
            self.failure_notes.append(str(exc))
            return []
        if self.w.fleet:
            if answer["coverage"] < 1.0:
                self.rpc_failures += 1
                self.failure_notes.append("final answer missed daemons")
            answer = answer["items"]
        return [(decode_id(i), float(v)) for i, v in answer]


def _check_top(rows: Any, k: int) -> None:
    """A ``top`` answer is a list of at most ``k`` ``[id, value]`` rows
    in descending value order."""
    if not isinstance(rows, list) or len(rows) > k:
        raise ServiceError(f"malformed top answer: {type(rows).__name__}")
    values = [row[1] for row in rows]
    if values != sorted(values, reverse=True):
        raise ServiceError("top answer not in descending order")
