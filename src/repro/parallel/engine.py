"""The multi-core sharded q-MAX engine.

:class:`ShardedQMaxEngine` hash-partitions flow ids across ``n_shards``
q-MAX backends and exposes the plain :class:`~repro.core.interface.
QMaxBase` interface over the ensemble.  Two execution modes:

* **process** — one worker process per shard, fed through a
  shared-memory record ring (:mod:`repro.parallel.shm_ring`) in
  ``add_many``-sized bursts; queries are answered by merging the
  per-shard retained sets (:mod:`repro.parallel.merge`).  This is the
  paper's OVS deployment shape: one shared-memory block per PMD
  thread, merged by a user-space reader.
* **inline** — the same hash partition over in-process backends, no
  threads or processes.  This is the graceful fallback for sandboxed
  runners (``mode="auto"`` drops to it whenever workers cannot be
  started, or when ``REPRO_NO_PROCS=1``) and doubles as the
  deterministic reference the differential tests compare against.

Sharding is by *id*: each shard retains the top-q of its sub-stream, so
the union of retained sets provably contains the global top-q (see
docs/PARALLEL.md for the argument and the tie-ordering caveat).  Space
is therefore ``n_shards ×`` a single structure — the standard
memory-for-cores trade of per-core measurement state.

Record encoding: ids travel as u64.  Python ints in ``[0, 2**63)``
(the common case: IP addresses, flow hashes, packet ids) are encoded
natively and vectorize end to end; any other hashable id is *interned*
engine-side into a token in ``[2**63, 2**64)`` and decoded on the way
out.  Values travel as float64 (the batch-path contract of
``QMaxBase.add_many`` already requires ordinary comparable floats).
The interning table lives for the engine's lifetime — long-running
streams of non-integer ids should pre-hash to ints instead.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro._compat import HAVE_NUMPY, np
from repro.core.interface import QMaxBase
from repro.errors import ConfigurationError, ParallelError
from repro.hashing.mix import key_to_u64, splitmix64
from repro.obs import merge_snapshots, resolve_registry
from repro.parallel.merge import merge_top_records
from repro.parallel.shm_ring import HAVE_SHM, ShmRecordRing
from repro.parallel.worker import (
    SHARD_RECORD,
    SHARD_RECORD_DTYPE,
    build_backend,
    shard_worker_main,
)
from repro.types import Item, ItemId, TopItems, Value

_LOG = logging.getLogger("repro.parallel.engine")

_MASK64 = (1 << 64) - 1

#: Interned (non-native-int) ids live in the top half of the u64 space.
TOKEN_BASE = 1 << 63

#: Seconds a barrier (query/stats/close) waits for one shard's answer.
_BARRIER_TIMEOUT = 60.0

#: Seconds to wait for each worker's ready handshake.
_READY_TIMEOUT = 20.0


def _shard_hash_params(seed: int):
    """Multiply-shift parameters shared by scalar and vector paths."""
    return splitmix64(seed, 0) | 1, splitmix64(seed, 1)


def partition_stream(
    ids: Sequence[ItemId],
    vals: Sequence[Value],
    n_shards: int,
    shard_seed: int = 0x5EED,
):
    """Pre-partition an (ids, vals) stream by flow-id hash.

    Returns ``n_shards`` pairs of (ids, vals) lists using exactly the
    engine's shard assignment — the NIC-RSS analogue, used by the
    scaling benchmark to build per-shard sub-streams outside the timed
    region (mirroring ``measure_throughput_batched``'s convention that
    bursts arrive already materialized).
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    a, b = _shard_hash_params(shard_seed)
    out_ids: List[List[ItemId]] = [[] for _ in range(n_shards)]
    out_vals: List[List[Value]] = [[] for _ in range(n_shards)]
    for item_id, val in zip(ids, vals):
        key = (
            item_id
            if type(item_id) is int and 0 <= item_id < TOKEN_BASE
            else key_to_u64(item_id, shard_seed)
        )
        s = (((a * key + b) & _MASK64) >> 32) % n_shards
        out_ids[s].append(item_id)
        out_vals[s].append(val)
    return list(zip(out_ids, out_vals))


class ShardedQMaxEngine(QMaxBase):
    """Hash-sharded q-MAX over worker processes (or inline fallback).

    Parameters
    ----------
    q:
        Global top-q target.  Every shard retains a full local top-q
        (required for correctness under arbitrary skew).  May be
        omitted when ``backend_factory`` is given (probed from it).
    n_shards:
        Number of shards / worker processes.
    backend:
        Shard backend name (see :data:`repro.apps.reservoirs.BACKENDS`);
        ``"qmax"`` accepts extra ``backend_kwargs`` (``step_batch``,
        ``use_numpy``, ``pivot_sample``, ...).
    backend_factory:
        Alternative to ``backend``: a zero-argument callable building
        one shard backend.  Requires the ``fork`` start method for
        process mode unless the callable pickles; otherwise ``auto``
        falls back inline.
    mode:
        ``"process"`` (raise :class:`ParallelError` if impossible),
        ``"inline"``, or ``"auto"`` (process when available).
    ring_capacity / burst:
        Per-shard ring size and worker drain burst, in records.
    track_evictions:
        Forwarded to shard backends; :meth:`take_evicted` drains the
        union, and :meth:`close` reports the final remainder instead of
        dropping it.
    shard_seed:
        Seed of the flow → shard multiply-shift hash.
    kernel:
        Maintenance kernel name forwarded to every qmax shard
        (``stepwise``/``numpy``, see :mod:`repro.core.kernels`); each
        worker resolves it locally, so a worker without NumPy degrades
        to ``stepwise`` and
        :meth:`shard_stats` reports what each shard actually runs.
        Only valid with ``backend="qmax"``.
    instrument:
        Inline mode only: record cumulative per-shard service seconds
        in :attr:`shard_seconds` (the scaling benchmark's probe).
    metrics:
        :func:`repro.obs.resolve_registry` convention — ``None`` uses
        the process default (off unless ``REPRO_METRICS=1``), ``False``
        forces off, a registry wires a private one.  When enabled,
        workers keep their own registries (shared with their backends)
        and :meth:`metrics_snapshot` returns the engine-local view
        merged with every worker's snapshot.
    """

    def __init__(
        self,
        q: Optional[int] = None,
        n_shards: int = 1,
        backend: str = "qmax",
        gamma: float = 0.25,
        track_evictions: bool = False,
        mode: str = "auto",
        ring_capacity: int = 1 << 15,
        burst: int = 512,
        shard_seed: int = 0x5EED,
        backend_factory: Optional[Callable[[], QMaxBase]] = None,
        use_numpy: Optional[bool] = None,
        backend_kwargs: Optional[Dict[str, Any]] = None,
        kernel: Optional[str] = None,
        instrument: bool = False,
        metrics=None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        if mode not in ("auto", "process", "inline"):
            raise ConfigurationError(
                f"mode must be auto/process/inline, got {mode!r}"
            )
        if burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {burst}")
        if use_numpy and not HAVE_NUMPY:
            raise ConfigurationError(
                "use_numpy=True but numpy is not installed "
                "(pip install .[fast])"
            )
        if kernel is not None:
            if backend_factory is not None or backend != "qmax":
                raise ConfigurationError(
                    "kernel= applies to the qmax backend only; bake it "
                    "into backend_factory / backend_kwargs instead"
                )
            backend_kwargs = dict(backend_kwargs or {})
            backend_kwargs["kernel"] = kernel
        self._metrics = resolve_registry(metrics)
        if backend_factory is not None:
            self._spec: Any = backend_factory
            probe = backend_factory()
        else:
            if q is None:
                raise ConfigurationError(
                    "q is required unless backend_factory is given"
                )
            self._spec = {
                "backend": backend,
                "q": q,
                "gamma": gamma,
                "track_evictions": track_evictions,
                "kwargs": dict(backend_kwargs or {}),
            }
            probe = build_backend(self._spec)
        self.q = probe.q
        self.n_shards = n_shards
        self.burst = burst
        self.shard_seed = shard_seed
        self._a, self._b = _shard_hash_params(shard_seed)
        self._track_evictions = track_evictions or bool(
            getattr(probe, "_track_evictions", False)
        )
        self._use_numpy = HAVE_NUMPY if use_numpy is None else use_numpy
        # Tri-state flag forwarded to workers: None = auto, True =
        # vectorize every burst, False = pure path (see _decode_burst).
        self._use_numpy_opt = use_numpy if HAVE_NUMPY else False
        self._inner_name = probe.name
        self._slots_per_shard = getattr(probe, "space_slots", 0)
        self._ring_capacity = ring_capacity
        self._instrument = instrument
        self._tokens: Dict[ItemId, int] = {}
        self._token_ids: List[ItemId] = []
        self._evicted: List[Item] = []
        self._pushed: List[int] = [0] * n_shards
        self._closed = False
        self._final: Optional[List[List[Item]]] = None
        self._backends: List[QMaxBase] = []
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        self._rings: List[ShmRecordRing] = []
        self.shard_seconds: List[float] = [0.0] * n_shards
        self.mode = self._resolve_mode(mode, probe)

    # ------------------------------------------------------------------
    # Startup / mode resolution.
    # ------------------------------------------------------------------

    def _resolve_mode(self, mode: str, probe: QMaxBase) -> str:
        forced_off = os.environ.get("REPRO_NO_PROCS", "") not in ("", "0")
        if mode == "inline" or (mode == "auto" and forced_off):
            self._start_inline(probe)
            return "inline"
        try:
            self._start_processes()
            _LOG.debug(
                "started %d shard worker(s), ring capacity %d",
                self.n_shards, self._ring_capacity,
            )
            return "process"
        except Exception as exc:
            self._teardown_processes(force=True)
            if mode == "process":
                if isinstance(exc, ParallelError):
                    raise
                raise ParallelError(
                    f"cannot start shard workers: {exc!r}"
                ) from exc
            _LOG.warning(
                "process mode unavailable (%r); falling back to inline "
                "sharding", exc,
            )
            self._start_inline(probe)
            return "inline"

    def _start_inline(self, probe: QMaxBase) -> None:
        if self._metrics.enabled and not callable(self._spec):
            # All inline backends share the engine registry: counters
            # are get-or-create by name, so per-shard increments land in
            # the same instruments — matching the summed view a merge of
            # per-worker snapshots produces in process mode.
            self._backends = [
                build_backend(self._spec, metrics=self._metrics)
                for _ in range(self.n_shards)
            ]
            return
        self._backends = [probe]
        for _ in range(self.n_shards - 1):
            self._backends.append(build_backend(self._spec))

    def _start_processes(self) -> None:
        if not HAVE_SHM:
            raise ParallelError("shared memory unavailable")
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        if ctx.get_start_method() != "fork" and callable(self._spec):
            # spawn pickles the target's args; verify the factory makes
            # it across before committing to worker processes.
            pickle.dumps(self._spec)
        rec_size = SHARD_RECORD.size
        # Dtype-map the rings whenever the vectorized path may run, so
        # push_array/pop_view work on both ends (workers re-map on
        # attach; the pure-Python blob framing stays interchangeable).
        if HAVE_NUMPY and self._use_numpy_opt is not False:
            from repro.parallel.worker import SHARD_RECORD_DTYPE as _dtype
        else:
            _dtype = None
        try:
            for _ in range(self.n_shards):
                self._rings.append(
                    ShmRecordRing.create(
                        self._ring_capacity, rec_size, dtype=_dtype
                    )
                )
            for s in range(self.n_shards):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=shard_worker_main,
                    args=(
                        self._rings[s].name,
                        self._ring_capacity,
                        child,
                        self._spec,
                        self.burst,
                        self._use_numpy_opt,
                        self._metrics.enabled,
                    ),
                    daemon=True,
                    name=f"qmax-shard-{s}",
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
            for s, conn in enumerate(self._conns):
                if not conn.poll(_READY_TIMEOUT):
                    raise ParallelError(
                        f"shard worker {s} did not come up within "
                        f"{_READY_TIMEOUT:g}s"
                    )
                resp = conn.recv()
                if not (isinstance(resp, tuple) and resp[0] == "ready"):
                    raise ParallelError(
                        f"shard worker {s} failed to start: {resp!r}"
                    )
        except Exception:
            raise

    def _teardown_processes(self, force: bool = False) -> None:
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc.is_alive():
                if force:
                    proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - last resort
                    proc.kill()
                    proc.join(timeout=5.0)
        for ring in self._rings:
            try:
                ring.close()
                ring.unlink()
            except (OSError, ValueError):  # pragma: no cover
                pass
        self._conns = []
        self._procs = []
        self._rings = []

    # ------------------------------------------------------------------
    # Sharding and id codec.
    # ------------------------------------------------------------------

    def _encode_id(self, item_id: ItemId) -> int:
        if type(item_id) is int and 0 <= item_id < TOKEN_BASE:
            return item_id
        tok = self._tokens.get(item_id)
        if tok is None:
            tok = TOKEN_BASE + len(self._token_ids)
            self._tokens[item_id] = tok
            self._token_ids.append(item_id)
        return tok

    def _decode_id(self, tok: int) -> ItemId:
        if tok >= TOKEN_BASE:
            return self._token_ids[tok - TOKEN_BASE]
        return tok

    def _decode_items(self, items: Sequence[Item]) -> List[Item]:
        decode = self._decode_id
        return [(decode(tok), val) for tok, val in items]

    def shard_of(self, item_id: ItemId) -> int:
        """Which shard handles this id (flow-sticky, like NIC RSS)."""
        if type(item_id) is int and 0 <= item_id < TOKEN_BASE:
            key = item_id
        else:
            key = key_to_u64(item_id, self.shard_seed)
        return (((self._a * key + self._b) & _MASK64) >> 32) % self.n_shards

    def _shard_of_u64(self, key: int) -> int:
        return (((self._a * key + self._b) & _MASK64) >> 32) % self.n_shards

    # ------------------------------------------------------------------
    # Hot path.
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ParallelError("engine is closed")

    def add(self, item_id: ItemId, val: Value) -> None:
        """Route one item to its shard (prefer :meth:`add_many`)."""
        self._check_open()
        if self.mode == "inline":
            if self.n_shards == 1:
                self._backends[0].add(item_id, val)
            else:
                self._backends[self.shard_of(item_id)].add(item_id, val)
            return
        tok = self._encode_id(item_id)
        s = self._shard_of_u64(tok)
        self._push(s, SHARD_RECORD.pack(tok, val), 1)

    def _push(self, s: int, blob: bytes, n: int) -> None:
        proc = self._procs[s]
        self._rings[s].push(blob, should_abort=lambda: not proc.is_alive())
        self._pushed[s] += n

    def _push_array(self, s: int, ids, vals) -> None:
        """Zero-copy dispatch: columns pack straight into ring memory."""
        proc = self._procs[s]
        self._rings[s].push_array(
            ids, vals, should_abort=lambda: not proc.is_alive()
        )
        self._pushed[s] += len(ids)

    def add_many(self, ids: Sequence[ItemId], vals: Sequence[Value]) -> None:
        """Partition a batch by shard hash and dispatch per-shard bursts.

        Retained-set semantics match a single backend fed the
        concatenated stream (same value multiset; docs/PARALLEL.md
        covers tie ordering) because per-shard arrival order — the only
        order the hash partition guarantees — is preserved.
        """
        self._check_open()
        n = len(ids)
        if n != len(vals):
            raise ConfigurationError(
                f"batch length mismatch: {n} ids vs {len(vals)} vals"
            )
        if n == 0:
            return
        if self.mode == "inline":
            self._add_many_inline(ids, vals)
            return
        if self._use_numpy and n >= 32 and self._add_many_vector(ids, vals):
            return
        self._add_many_records(ids, vals)

    def add_many_array(self, ids, vals) -> None:
        """Array-column batch: native u64/f64 columns qualify directly
        for the vectorized dispatch (``np.asarray`` over an ndarray is
        free); anything else degrades through the base conversion."""
        if self.mode == "process" and self._use_numpy and len(ids) >= 32:
            self.add_many(ids, vals)
            return
        QMaxBase.add_many_array(self, ids, vals)

    def _add_many_vector(self, ids, vals) -> bool:
        """Vectorized dispatch: hash, partition, and pack each shard's
        burst without touching individual records in Python.  Returns
        False when the ids don't qualify (caller falls back).

        With a dtype-mapped ring the per-shard columns go through
        :meth:`~repro.parallel.shm_ring.ShmRecordRing.push_array`
        straight into the mapped buffer — the only copy on the whole
        producer side is the write into shared memory itself.  A ring
        created without a dtype (pure stack) takes the packed-blob
        fallback.
        """
        try:
            arr = np.asarray(ids)
        except (ValueError, TypeError):
            return False  # mixed-type ids don't form an array
        kind = arr.dtype.kind
        if kind == "i":
            if arr.ndim != 1 or not (arr >= 0).all():
                return False
            arr = arr.astype(np.uint64, copy=False)
        elif kind != "u" or arr.ndim != 1:
            return False
        if not (arr < np.uint64(TOKEN_BASE)).all():
            return False
        varr = np.asarray(vals, dtype=np.float64)
        zero_copy = self._rings[0].dtype is not None

        if self.n_shards == 1:
            if zero_copy:
                self._push_array(0, arr, varr)
            else:
                rec = np.empty(arr.shape[0], dtype=SHARD_RECORD_DTYPE)
                rec["id"] = arr
                rec["val"] = varr
                self._push(0, rec.tobytes(), arr.shape[0])
            return True
        mixed = (arr * np.uint64(self._a) + np.uint64(self._b)) >> np.uint64(
            32
        )
        shards = mixed % np.uint64(self.n_shards)
        for s in range(self.n_shards):
            idx = np.flatnonzero(shards == s)
            if not idx.shape[0]:
                continue
            if zero_copy:
                self._push_array(s, arr[idx], varr[idx])
            else:
                rec = np.empty(idx.shape[0], dtype=SHARD_RECORD_DTYPE)
                rec["id"] = arr[idx]
                rec["val"] = varr[idx]
                self._push(s, rec.tobytes(), idx.shape[0])
        return True

    def _add_many_records(self, ids, vals) -> None:
        """Pure-Python dispatch (non-native ids, tiny batches)."""
        pack = SHARD_RECORD.pack
        encode = self._encode_id
        shard = self._shard_of_u64
        parts: List[List[bytes]] = [[] for _ in range(self.n_shards)]
        for i in range(len(ids)):
            tok = encode(ids[i])
            parts[shard(tok)].append(pack(tok, vals[i]))
        for s, chunk in enumerate(parts):
            if chunk:
                self._push(s, b"".join(chunk), len(chunk))

    def _add_many_inline(self, ids, vals) -> None:
        if self.n_shards == 1:
            if self._instrument:
                start = time.perf_counter()
                self._backends[0].add_many(ids, vals)
                self.shard_seconds[0] += time.perf_counter() - start
            else:
                self._backends[0].add_many(ids, vals)
            return
        shard_of = self.shard_of
        part_ids: List[List[ItemId]] = [[] for _ in range(self.n_shards)]
        part_vals: List[List[Value]] = [[] for _ in range(self.n_shards)]
        for i in range(len(ids)):
            s = shard_of(ids[i])
            part_ids[s].append(ids[i])
            part_vals[s].append(vals[i])
        for s in range(self.n_shards):
            if not part_ids[s]:
                continue
            if self._instrument:
                start = time.perf_counter()
                self._backends[s].add_many(part_ids[s], part_vals[s])
                self.shard_seconds[s] += time.perf_counter() - start
            else:
                self._backends[s].add_many(part_ids[s], part_vals[s])

    # ------------------------------------------------------------------
    # Barriers.
    # ------------------------------------------------------------------

    def _command(self, op: str) -> List[Any]:
        """Broadcast a barrier command and gather per-shard answers."""
        conns = self._conns
        for s, conn in enumerate(conns):
            try:
                conn.send((op, self._pushed[s]))
            except (OSError, BrokenPipeError) as exc:
                raise ParallelError(
                    f"shard worker {s} is gone ({exc!r})"
                ) from exc
        responses: List[Any] = []
        for s, conn in enumerate(conns):
            if not conn.poll(_BARRIER_TIMEOUT):
                raise ParallelError(
                    f"shard worker {s} did not answer {op!r} within "
                    f"{_BARRIER_TIMEOUT:g}s"
                )
            try:
                resp = conn.recv()
            except EOFError as exc:
                raise ParallelError(
                    f"shard worker {s} died during {op!r}"
                ) from exc
            if (
                isinstance(resp, tuple)
                and len(resp) == 2
                and resp[0] == "error"
            ):
                raise ParallelError(f"shard worker {s} failed: {resp[1]}")
            responses.append(resp)
        return responses

    def sync(self) -> List[Dict[str, Any]]:
        """Barrier: wait until every shard has consumed everything
        pushed so far; returns per-shard stats dicts."""
        self._check_open()
        if self.mode == "inline":
            return self.shard_stats()
        return self._command("stats")

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def _retained_parts(self, full: bool) -> List[List[Item]]:
        if self._closed:
            assert self._final is not None
            return self._final
        if self.mode == "inline":
            return [
                list(b.items()) if full else b.query()
                for b in self._backends
            ]
        op = "items" if full else "query"
        return [self._decode_items(p) for p in self._command(op)]

    def items(self) -> Iterator[Item]:
        """All live items across shards (union of per-shard live sets)."""
        for part in self._retained_parts(full=True):
            yield from part

    def query(self) -> TopItems:
        """Global top-q: merge the per-shard top-q retained sets.

        The merge is record-level (:func:`merge_top_records`): a stream
        that repeats an id produces several records, all landing in the
        same shard, and a single backend would retain each separately —
        so no id dedup happens here."""
        return merge_top_records(self._retained_parts(full=False), self.q)

    def take_evicted(self) -> List[Item]:
        """Drain evictions across shards (plus the close-time report)."""
        drained = self._evicted
        self._evicted = []
        if self._closed:
            return drained
        if self.mode == "inline":
            for b in self._backends:
                drained.extend(b.take_evicted())
        else:
            for part in self._command("take_evicted"):
                drained.extend(self._decode_items(part))
        return drained

    def reset(self) -> None:
        """Reset every shard (barrier) and the id interning table."""
        self._check_open()
        if self.mode == "inline":
            for b in self._backends:
                b.reset()
        else:
            self._command("reset")
        self._tokens = {}
        self._token_ids = []
        self._evicted = []
        self.shard_seconds = [0.0] * self.n_shards

    def shard_stats(self) -> List[Dict[str, Any]]:
        """Per-shard counters (consumed/admitted/rejected/Ψ where the
        backend exposes them)."""
        self._check_open()
        if self.mode == "inline":
            out = []
            for s, b in enumerate(self._backends):
                stats: Dict[str, Any] = {"backend": b.name}
                kern = getattr(b, "kernel", None)
                if kern is not None:
                    stats["kernel"] = kern
                for attr in ("admitted", "rejected", "compactions"):
                    val = getattr(b, attr, None)
                    if val is not None:
                        stats[attr] = val
                out.append(stats)
            return out
        return self._command("stats")

    def stats(self) -> Dict[str, Any]:
        """Engine-level counters: mode, per-shard pushed, ring stalls."""
        return {
            "mode": self.mode,
            "n_shards": self.n_shards,
            "pushed": list(self._pushed),
            "stalls": [r.stalls for r in self._rings] or None,
            "interned_ids": len(self._token_ids),
        }

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------

    @property
    def metrics_registry(self):
        """The engine-local registry (``NULL_REGISTRY`` when disabled)."""
        return self._metrics

    def _sync_engine_gauges(self) -> None:
        """Refresh producer-side gauges from existing counters; called
        only when a snapshot is taken, never on the hot path."""
        reg = self._metrics
        for s in range(self.n_shards):
            reg.gauge(
                "repro_shard_pushed",
                "records pushed to this shard's ring (or inline backend)",
                agg="sum", shard=str(s),
            ).set(float(self._pushed[s]))
        for s, ring in enumerate(self._rings):
            reg.gauge(
                "repro_ring_stalls",
                "producer stalls waiting for ring space (backpressure)",
                agg="sum", shard=str(s),
            ).set(float(ring.stalls))
            reg.gauge(
                "repro_ring_occupancy",
                "records currently queued in the shard ring",
                agg="max", shard=str(s),
            ).set(float(len(ring)))
        reg.gauge(
            "repro_engine_interned_ids",
            "non-native flow ids interned into u64 tokens", agg="sum",
        ).set(float(len(self._token_ids)))
        if self.mode == "inline" and not self._closed:
            # Inline shards have no worker registries; mirror their
            # backend counters here the way workers do theirs.
            consumed = admitted = rejected = 0
            have = False
            for b in self._backends:
                a = getattr(b, "admitted", None)
                r = getattr(b, "rejected", None)
                if a is not None:
                    admitted += a
                    have = True
                if r is not None:
                    rejected += r
                    have = True
                consumed += (a or 0) + (r or 0)
            if have:
                reg.gauge(
                    "repro_shard_consumed",
                    "records this shard drained from its ring", agg="sum",
                ).set(float(consumed))
                reg.gauge(
                    "repro_shard_admitted",
                    "records the shard backend admitted", agg="sum",
                ).set(float(admitted))
                reg.gauge(
                    "repro_shard_rejected",
                    "records the shard backend rejected", agg="sum",
                ).set(float(rejected))

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Merged observability snapshot across the whole engine.

        Process mode runs a ``metrics`` barrier (every worker syncs its
        shard gauges and ships its registry snapshot) and merges those
        with the engine-local registry via
        :func:`repro.obs.merge_snapshots`; inline mode and closed
        engines return the engine-local view directly.
        """
        reg = self._metrics
        if not reg.enabled:
            return reg.snapshot()
        self._sync_engine_gauges()
        snaps = [reg.snapshot()]
        if self.mode == "process" and not self._closed:
            snaps.extend(
                s for s in self._command("metrics")
                if isinstance(s, dict) and s.get("metrics")
            )
        return merge_snapshots(snaps) if len(snaps) > 1 else snaps[0]

    # ------------------------------------------------------------------
    # Teardown.
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain every shard, collect final retained sets **and** the
        eviction-log remainder (nothing is silently dropped), then stop
        workers and free shared memory.  Idempotent; queries keep
        working on the frozen final state."""
        if self._closed:
            return
        if self.mode == "inline":
            self._final = [list(b.items()) for b in self._backends]
            if self._track_evictions:
                for b in self._backends:
                    self._evicted.extend(b.take_evicted())
            self._closed = True
            return
        try:
            finals = self._command("close")
            self._final = [self._decode_items(f["items"]) for f in finals]
            for f in finals:
                self._evicted.extend(self._decode_items(f["evicted"]))
        finally:
            self._closed = True
            self._teardown_processes()

    def __enter__(self) -> "ShardedQMaxEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter shutdown paths
        try:
            if not self._closed and self.mode == "process":
                self._teardown_processes(force=True)
                self._closed = True
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def space_slots(self) -> int:
        """Total slots across shards (``n_shards ×`` one structure)."""
        return self.n_shards * self._slots_per_shard

    @property
    def name(self) -> str:
        return f"sharded-{self.n_shards}x[{self._inner_name}]/{self.mode}"

    def check_invariants(self) -> None:
        if self.mode == "inline" and not self._closed:
            for b in self._backends:
                b.check_invariants()
