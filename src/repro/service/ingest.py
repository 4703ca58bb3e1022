"""Asynchronous ingest: datagrams and frames → engine batches.

Three pieces, all living on the daemon's event loop:

* :class:`BatchFeeder` — the single pending buffer between the network
  and the engine.  Sources append decoded ``(id, value)`` columns; the
  feeder keeps them as chunks in arrival order (consecutive list puts
  share one chunk), and a flush task feeds each chunk to the engine:
  an array chunk through ``add_many_array`` — the engine's vectorized
  Ψ filter rejects the records that cannot enter the top-q without
  touching them one by one — and a list chunk through ``add_many``.
  The buffer is bounded by ``capacity`` records: when it fills,
  sources are told to *stall*, and are resumed by the flush that
  drains the buffer.  Nothing is ever dropped for backpressure —
  mirroring the parallel subsystem's stall-not-drop ring semantics —
  and the only drops anywhere in ingest are malformed inputs, each one
  counted.
* :class:`NetFlowUdpSource` — NetFlow v5 datagrams.  Reads via
  ``loop.add_reader`` on a plain socket so that stalling is literal:
  the reader is removed, datagrams queue in the kernel receive buffer
  (sized generously) exactly as they would in a NIC ring, and reading
  resumes when the feeder drains.  Each wake-up drains the socket
  through one :func:`~repro.traffic.netflow.decode_columns` call,
  which checks every datagram's header, counts the malformed ones and
  decodes all valid record areas at once into ``src``/``octets``
  columns (NumPy arrays, or lists on the pure-Python stack), then
  makes one ``put``.
* :class:`ReportTcpSource` — length-prefixed binary
  :mod:`repro.netwide.wire` report frames, decoded into list columns.
  Stalling is TCP flow control: the coroutine simply stops reading
  until there is room.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import struct
from typing import Callable, Iterator, List, Sequence, Tuple

from repro._compat import HAVE_NUMPY, np
from repro.core.interface import QMaxBase
from repro.errors import WireFormatError
from repro.netwide.wire import Report, from_bytes
from repro.obs import SIZE_BUCKETS, resolve_registry
# decode_packet is not called here; it stays bound in this module as the
# record-level API beside the UDP path's columnar decoder, and
# perfbench/traced.py wraps it by this name.
from repro.traffic.netflow import (  # noqa: F401
    FlowRecord,
    decode_columns,
    decode_packet,
)
from repro.types import ItemId, Value

_LOG = logging.getLogger("repro.service.ingest")

#: TCP report framing: a u32 byte length, then one wire.to_bytes blob.
FRAME_HEADER = struct.Struct("!I")

#: Frames larger than this are malformed by definition (a real report
#: of 2^24 bytes would hold ~800k samples); reject before allocating.
MAX_FRAME_BYTES = 1 << 24

#: Kernel receive buffer requested for the UDP socket — the "NIC ring"
#: that absorbs bursts while the feeder stalls.
UDP_RECV_BUFFER = 1 << 22

#: Datagrams drained per reader wake-up, so one chatty socket cannot
#: starve the event loop.
_DRAIN_PER_WAKE = 256

_MAX_DATAGRAM = 65535


def items_from_flow_records(
    records: Sequence[FlowRecord],
) -> Tuple[List[ItemId], List[Value]]:
    """NetFlow records → (ids, vals): flows keyed by source IP, valued
    by octet count (the byte-volume top-q convention of ``top-flows``)."""
    ids: List[ItemId] = []
    vals: List[Value] = []
    for r in records:
        ids.append(r.src_ip)
        vals.append(float(r.octets))
    return ids, vals


def items_from_report(
    report: Report,
) -> Tuple[List[ItemId], List[Value]]:
    """Wire report → (ids, vals): each sample keyed by its
    ``(flow, packet_id)`` record identity, valued by its hash."""
    entries = report.entries
    return ([record for record, _value in entries],
            [float(value) for _record, value in entries])


class BatchFeeder:
    """Coalesce ingested records and drive the engine's batch paths.

    Single-threaded by design: every method runs on the daemon's event
    loop, so no locking is needed.  ``put`` is the synchronous producer
    API (UDP reader callbacks); ``put_async`` awaits room first (TCP
    coroutines).  ``flush_now`` is the query-time barrier: RPC handlers
    call it so answers reflect everything ingested so far.
    """

    def __init__(
        self,
        engine: QMaxBase,
        batch_max: int = 512,
        flush_interval: float = 0.05,
        capacity: int = 1 << 16,
        metrics=False,
    ) -> None:
        self._engine = engine
        self.batch_max = batch_max
        self.flush_interval = flush_interval
        self.capacity = capacity
        # Pending (ids, vals) columns in arrival order: NumPy arrays
        # from the UDP decoder, lists from everything else.
        self._chunks: List[Tuple[Sequence[ItemId], Sequence[Value]]] = []
        self._pending = 0
        self.records_in = 0
        self.records_out = 0
        self.value_sum = 0.0
        self.batches = 0
        self.stalls = 0
        self._wake = asyncio.Event()
        self._room = asyncio.Event()
        self._room.set()
        self._resume_callbacks: List[Callable[[], None]] = []
        self._task: asyncio.Task = None  # type: ignore[assignment]
        self._stopping = False
        registry = resolve_registry(metrics)
        if registry.enabled:
            # Coalescing quality: records per flush.  The
            # cumulative counters stay plain attributes; callback
            # gauges read them at snapshot time only.
            self._obs_batch = registry.histogram(
                "repro_feeder_batch_records",
                "records coalesced into one flush to the engine",
                buckets=SIZE_BUCKETS,
            )
            for attr, name, help_text in (
                ("records_in", "repro_feeder_records_in",
                 "records accepted from ingest sources"),
                ("records_out", "repro_feeder_records_out",
                 "records fed to the engine"),
                ("pending", "repro_feeder_pending",
                 "records buffered awaiting a flush"),
                ("stalls", "repro_feeder_stalls",
                 "times the buffer hit capacity and stalled sources"),
            ):
                registry.callback_gauge(
                    name, (lambda a=attr: float(getattr(self, a))),
                    help_text, agg="sum",
                )
        else:
            self._obs_batch = None

    # ------------------------------------------------------------------
    # Producer side.
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        return self._pending

    def put(self, ids: Sequence[ItemId], vals: Sequence[Value]) -> bool:
        """Append records.  Returns False when the buffer just reached
        capacity — the caller must pause and wait for its resume
        callback (registered via :meth:`on_room`).

        NumPy columns are kept as they are, one chunk each; any other
        sequences extend the newest chunk if it holds lists."""
        chunks = self._chunks
        if HAVE_NUMPY and isinstance(ids, np.ndarray):
            chunks.append((ids, vals))
        elif chunks and type(chunks[-1][0]) is list:
            chunks[-1][0].extend(ids)
            chunks[-1][1].extend(vals)
        else:
            chunks.append((list(ids), list(vals)))
        n = len(ids)
        self._pending += n
        self.records_in += n
        if self._pending >= self.batch_max:
            self._wake.set()
        if self._pending >= self.capacity:
            if self._room.is_set():
                self._room.clear()
                self.stalls += 1
                _LOG.debug(
                    "feeder at capacity (%d records); stalling sources",
                    self._pending,
                )
            return False
        return True

    async def put_async(
        self, ids: Sequence[ItemId], vals: Sequence[Value]
    ) -> None:
        """Append records, stalling (not dropping) while over capacity."""
        while not self._room.is_set():
            await self._room.wait()
        self.put(ids, vals)

    def on_room(self, callback: Callable[[], None]) -> None:
        """Register a callback fired when a flush frees capacity."""
        self._resume_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Consumer side.
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-feeder"
        )

    def flush_now(self) -> None:
        """Synchronously feed everything pending into the engine, chunk
        by chunk in arrival order."""
        if not self._pending:
            return
        chunks, n = self._chunks, self._pending
        self._chunks, self._pending = [], 0
        engine = self._engine
        volume = 0.0
        for ids, vals in chunks:
            if type(ids) is list:
                engine.add_many(ids, vals)
                volume += sum(vals)
            else:
                engine.add_many_array(ids, vals)
                volume += float(vals.sum())
        self.records_out += n
        # Total ingested value volume: what the fleet's share-of-total
        # heavy-hitter threshold is measured against.
        self.value_sum += volume
        self.batches += 1
        if self._obs_batch is not None:
            self._obs_batch.observe(n)
        if not self._room.is_set():
            self._room.set()
            for callback in self._resume_callbacks:
                callback()

    async def _run(self) -> None:
        while True:
            if self._stopping and not self._pending:
                return
            try:
                await asyncio.wait_for(
                    self._wake.wait(), timeout=self.flush_interval
                )
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            self.flush_now()

    async def stop(self) -> None:
        """Drain everything pending, then stop the flush task."""
        self._stopping = True
        self._wake.set()
        if self._task is not None:
            await self._task
        self.flush_now()

    def abort(self) -> None:
        """Crash-path teardown: cancel the flush task, keep (and lose)
        whatever was pending — the daemon's kill simulation."""
        self._stopping = True
        if self._task is not None:
            self._task.cancel()

    def stats(self) -> dict:
        return {
            "records_in": self.records_in,
            "records_out": self.records_out,
            "pending": self.pending,
            "batches": self.batches,
            "stalls": self.stalls,
            "value_sum": self.value_sum,
        }


class NetFlowUdpSource:
    """NetFlow v5 over UDP with kernel-buffer-backed backpressure."""

    def __init__(self, host: str, port: int, feeder: BatchFeeder) -> None:
        self._host = host
        self._requested_port = port
        self._feeder = feeder
        self._sock: socket.socket = None  # type: ignore[assignment]
        self._loop: asyncio.AbstractEventLoop = None  # type: ignore
        self._reading = False
        self.port = port
        self.datagrams = 0
        self.records = 0
        self.malformed = 0

    def open(self) -> None:
        """Bind the socket (resolving an ephemeral port request)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, UDP_RECV_BUFFER
            )
        except OSError:  # pragma: no cover - platform-dependent cap
            pass
        sock.bind((self._host, self._requested_port))
        sock.setblocking(False)
        self._sock = sock
        self.port = sock.getsockname()[1]

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._feeder.on_room(self._resume)
        self._loop.add_reader(self._sock.fileno(), self._on_readable)
        self._reading = True

    @property
    def paused(self) -> bool:
        return self._sock is not None and not self._reading

    def _on_readable(self) -> None:
        """Drain the socket, decode the wake-up's datagrams in one call,
        then hand the feeder one coalesced batch.

        Draining stops early once the batch would fill the feeder's
        free room, so the buffer overshoots its capacity by less than
        one datagram, as it would with one ``put`` per datagram.
        Malformed datagrams are the one legitimate drop: garbage
        input, counted.
        """
        room = self._feeder.capacity - self._feeder.pending
        ids, vals, malformed = decode_columns(self._drain(), room)
        self.malformed += malformed
        n = len(ids)
        if not n:
            return
        self.records += n
        if not self._feeder.put(ids, vals):
            self._pause()

    def _drain(self) -> Iterator[bytes]:
        """The datagrams waiting on the socket, at most
        ``_DRAIN_PER_WAKE``, read as the decoder asks for them."""
        recv = self._sock.recv
        for _ in range(_DRAIN_PER_WAKE):
            try:
                data = recv(_MAX_DATAGRAM)
            except OSError:  # drained (BlockingIOError) or socket error
                return
            self.datagrams += 1
            yield data

    def _pause(self) -> None:
        if self._reading:
            self._loop.remove_reader(self._sock.fileno())
            self._reading = False

    def _resume(self) -> None:
        if self._sock is not None and not self._reading:
            self._loop.add_reader(self._sock.fileno(), self._on_readable)
            self._reading = True

    def close(self) -> None:
        if self._sock is None:
            return
        self._pause()
        self._sock.close()
        self._sock = None  # type: ignore[assignment]

    def stats(self) -> dict:
        return {
            "datagrams": self.datagrams,
            "records": self.records,
            "malformed": self.malformed,
            "paused": self.paused,
        }


class ReportTcpSource:
    """Length-prefixed binary report frames over TCP.

    Each frame is ``!I`` byte length + one :func:`repro.netwide.wire.
    to_bytes` blob.  A malformed frame (oversized prefix, truncated
    payload, undecodable report) is counted and the connection is
    closed — once framing desynchronizes, nothing after it can be
    trusted.  Well-formed frames are never dropped: over-capacity
    ingest stalls the reader, which stalls the peer via TCP.
    """

    def __init__(self, host: str, port: int, feeder: BatchFeeder) -> None:
        self._host = host
        self._requested_port = port
        self._feeder = feeder
        self._server: asyncio.AbstractServer = None  # type: ignore
        self.port = port
        self.connections = 0
        self.frames = 0
        self.records = 0
        self.malformed = 0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self._host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        try:
            while True:
                try:
                    header = await reader.readexactly(FRAME_HEADER.size)
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        self.malformed += 1
                    return
                (length,) = FRAME_HEADER.unpack(header)
                if length > MAX_FRAME_BYTES:
                    self.malformed += 1
                    return
                try:
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    self.malformed += 1
                    return
                try:
                    report = from_bytes(payload)
                except WireFormatError:
                    self.malformed += 1
                    return
                self.frames += 1
                ids, vals = items_from_report(report)
                self.records += len(ids)
                if ids:
                    await self._feeder.put_async(ids, vals)
        except ConnectionError:  # pragma: no cover - peer vanished
            pass
        except asyncio.CancelledError:
            pass  # daemon shutting down: drop the connection quietly
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def close(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None  # type: ignore[assignment]

    def stats(self) -> dict:
        return {
            "connections": self.connections,
            "frames": self.frames,
            "records": self.records,
            "malformed": self.malformed,
        }
