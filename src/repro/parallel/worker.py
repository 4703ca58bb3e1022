"""Shard worker: the per-core measurement loop of the sharded engine.

One worker process owns one q-MAX backend and one shared-memory record
ring.  The engine pushes ``(id: u64, value: f64)`` records into the
ring; the worker drains it in ``add_many``-sized bursts.  On the NumPy
stack the drain is **zero-copy and vectorized end to end**: the ring is
dtype-mapped, so :meth:`~repro.parallel.shm_ring.ShmRecordRing.
pop_view` hands back structured-array views over the ring memory
itself (two on wraparound), a ring-side **admission prefilter** masks
out every record at-or-below the backend's current admission threshold
Ψ̂ (``vals > Ψ̂`` — one vectorized compare; rejected records never
touch the backend), and the surviving columns flow into
``backend.add_many_array`` with no per-record Python calls.  Ψ̂ is
re-read from the backend every burst; because Ψ only tightens within a
stream, a stale Ψ̂ can only *under*-reject — records it lets through
are re-filtered inside ``add_many_array`` — never drop an admissible
record (pinned by the prefilter property suite).  Without NumPy the
legacy copying path (``pop`` blob + ``struct.iter_unpack``) is the
fallback, the same burst discipline as
:class:`repro.switch.pmd.BurstMeasurementPipeline`.

The prefilter is bypassed when the backend tracks evictions (rejects
must then be recorded with their ids, which the mask discards) or does
not expose Ψ; prefilter rejects are reported in shard stats and land
in the ``repro_shard_rejected`` gauge alongside backend rejects, so
``admitted + rejected == consumed`` stays exact either way.

Control flows over a ``multiprocessing`` pipe.  Every command carries
the *expected consumed count* (records pushed to this shard so far);
the worker keeps draining until it has consumed that many records
before acting, which gives the engine an exact per-shard barrier
without sentinel records in the data stream:

``("query", n)``         → top-q of the shard backend
``("items", n)``         → all live items of the shard backend
``("take_evicted", n)``  → drained eviction log
``("stats", n)``         → counters (consumed, admitted, Ψ, ...)
``("metrics", n)``       → this worker's metrics-registry snapshot
                           (shard totals synced into ``agg="sum"``
                           gauges first, so engine-side
                           :func:`repro.obs.merge_snapshots` yields
                           stream-wide totals)
``("reset", n)``         → backend.reset()
``("close", n)``         → final report: live items **and** the
                           eviction-log remainder — nothing the backend
                           still holds is silently dropped — then exit.

A worker that hits an exception reports ``("error", repr)`` on the pipe
and exits; the engine converts that into :class:`ParallelError`.
"""

from __future__ import annotations

import logging
import struct
import time
from typing import Any, Dict, Optional

from repro._compat import HAVE_NUMPY, np
from repro.apps.reservoirs import make_reservoir
from repro.core.interface import QMaxBase
from repro.obs import MetricsRegistry, NULL_REGISTRY, SIZE_BUCKETS
from repro.parallel.shm_ring import ShmRecordRing

_LOG = logging.getLogger("repro.parallel.worker")

#: One update record: (id: u64, value: f64), native byte order — both
#: ends live on the same machine.
SHARD_RECORD = struct.Struct("=Qd")

#: Matching NumPy dtype for zero-copy burst decode.
if HAVE_NUMPY:
    SHARD_RECORD_DTYPE = np.dtype([("id", "u8"), ("val", "f8")])
else:  # pragma: no cover - numpy-less stack
    SHARD_RECORD_DTYPE = None

#: Below this burst size the ndarray round-trip is not worth it (auto
#: mode only — an explicit ``use_numpy=True`` vectorizes every burst).
_VECTOR_MIN_BURST = 32

#: Idle poll granularity for the control pipe (seconds); doubles as the
#: worker's back-off when the ring is empty.
_IDLE_POLL = 0.0005

_NEG_INF = float("-inf")


def build_backend(spec: Any, metrics: Any = False) -> QMaxBase:
    """Materialize a shard backend from its picklable spec.

    ``spec`` is either a dict — ``{"backend": name, "q": int, "gamma":
    float, "track_evictions": bool, "kwargs": {...}}`` with names from
    :data:`repro.apps.reservoirs.BACKENDS` — or a zero-argument callable
    (usable with the ``fork`` start method, where pickling is bypassed).

    ``metrics`` follows the :func:`repro.obs.resolve_registry`
    convention and reaches ``qmax`` backends only (other reservoirs and
    factory-built backends are constructed as-is).
    """
    if callable(spec):
        return spec()
    kwargs = dict(spec.get("kwargs", ()))
    backend = spec.get("backend", "qmax")
    instrumented = getattr(metrics, "enabled", metrics is True)
    if backend == "qmax" and (kwargs or instrumented):
        from repro.core.qmax import QMax

        return QMax(
            spec["q"],
            spec.get("gamma", 0.25),
            track_evictions=spec.get("track_evictions", False),
            metrics=metrics,
            **kwargs,
        )
    return make_reservoir(
        backend,
        spec["q"],
        gamma=spec.get("gamma", 0.25),
        track_evictions=spec.get("track_evictions", False),
    )


def _decode_burst(blob: bytes, use_numpy: Optional[bool]):
    """One burst → (ids, vals) ready for ``add_many``.

    ``use_numpy`` is tri-state and honored consistently at every burst
    size: ``True`` vectorizes even bursts below ``_VECTOR_MIN_BURST``
    (the caller asked explicitly), ``False`` never vectorizes, and
    ``None`` auto-selects — NumPy when available and the burst is large
    enough to amortize the ndarray round-trip.
    """
    if HAVE_NUMPY and (
        use_numpy
        or (
            use_numpy is None
            and len(blob) >= _VECTOR_MIN_BURST * SHARD_RECORD.size
        )
    ):
        arr = np.frombuffer(blob, dtype=SHARD_RECORD_DTYPE)
        # ids become plain ints once (C-level tolist); values stay an
        # ndarray so the backend's vectorized Ψ filter gets them as-is.
        return arr["id"].tolist(), arr["val"]
    pairs = list(SHARD_RECORD.iter_unpack(blob))
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _sync_shard_gauges(
    reg, backend: QMaxBase, consumed: int, pre_rejected: int = 0
) -> None:
    """Mirror the backend's cumulative counters into ``agg="sum"``
    gauges right before a snapshot ships, so merging every worker's
    snapshot yields stream-wide totals with zero hot-path cost.
    Ring-side prefilter rejects are folded into
    ``repro_shard_rejected`` — a prefiltered record is exactly one the
    backend would have rejected itself."""
    if not reg.enabled:
        return
    reg.gauge(
        "repro_shard_consumed",
        "records this shard drained from its ring", agg="sum",
    ).set(float(consumed))
    for attr, name, extra in (
        ("admitted", "repro_shard_admitted", 0),
        ("rejected", "repro_shard_rejected", pre_rejected),
    ):
        value = getattr(backend, attr, None)
        if value is not None:
            reg.gauge(
                name, f"records the shard backend {attr}", agg="sum",
            ).set(float(value + extra))


def _shard_stats(
    backend: QMaxBase, consumed: int, pre_rejected: int = 0
) -> Dict[str, Any]:
    stats: Dict[str, Any] = {
        "consumed": consumed,
        "backend": backend.name,
    }
    kern = getattr(backend, "kernel", None)
    if kern is not None:
        # Resolved in *this* process — a worker without NumPy reports
        # its actual fallback, not the request.
        stats["kernel"] = kern
    for attr in ("admitted", "rejected", "compactions"):
        value = getattr(backend, attr, None)
        if value is not None:
            stats[attr] = value
    if "rejected" in stats:
        # Stream-level total: backend rejects + ring-side prefilter
        # rejects, so admitted + rejected == consumed stays exact.
        stats["rejected"] += pre_rejected
    stats["prefilter_rejected"] = pre_rejected
    psi = getattr(backend, "_psi", None)
    if psi is not None:
        stats["psi"] = psi
    return stats


def shard_worker_main(
    ring_name: str,
    capacity: int,
    conn,
    spec: Any,
    burst: int = 512,
    use_numpy: Optional[bool] = None,
    metrics: bool = False,
) -> None:
    """Entry point of one shard worker process.

    Attaches the ring, builds the backend, acknowledges readiness, then
    alternates between draining record bursts and serving barrier
    commands until ``close``.  ``use_numpy`` is tri-state (see
    :func:`_decode_burst`); any value except ``False`` engages the
    zero-copy ``pop_view`` path when NumPy is available.  With
    ``metrics=True`` the worker keeps a process-local
    :class:`~repro.obs.MetricsRegistry` (shared with its backend) and
    answers the ``metrics`` op with a snapshot of it.
    """
    ring = None
    try:
        zero_copy = HAVE_NUMPY and use_numpy is not False
        ring = ShmRecordRing.attach(
            ring_name, capacity, SHARD_RECORD.size,
            dtype=SHARD_RECORD_DTYPE if zero_copy else None,
        )
        reg = MetricsRegistry() if metrics else NULL_REGISTRY
        backend = build_backend(spec, metrics=reg if metrics else False)
        # Ring-side admission prefilter: needs a backend that exposes Ψ
        # and no eviction tracking (rejects must then carry their ids).
        prefilter = (
            zero_copy
            and getattr(backend, "_psi", None) is not None
            and not getattr(backend, "_track_evictions", False)
        )
        pre_rejected = 0
        obs = reg if reg.enabled else None
        if obs is not None:
            obs_bursts = reg.counter(
                "repro_worker_bursts_total",
                "record bursts drained from the shm ring",
            )
            obs_wakeup = reg.histogram(
                "repro_worker_records_per_wakeup",
                "records decoded per non-empty ring drain",
                buckets=SIZE_BUCKETS,
            )
            obs_idle = reg.counter(
                "repro_worker_idle_polls_total",
                "drain cycles that found the ring empty",
            )
            obs_prefilter = reg.counter(
                "repro_worker_prefilter_rejected_total",
                "records rejected ring-side (vals <= Ψ̂) before the backend",
            )
        conn.send(("ready", backend.name))
        consumed = 0
        pending: Optional[tuple] = None
        while True:
            got = 0
            if zero_copy:
                view = ring.pop_view(burst)
                if view is not None:
                    got = len(view)
                    psi = backend._psi if prefilter else None
                    for part in view.parts:
                        pids = part["id"]
                        pvals = part["val"]
                        if psi is not None and psi != _NEG_INF:
                            mask = pvals > psi
                            kept = int(mask.sum())
                            if kept != pvals.shape[0]:
                                rej = pvals.shape[0] - kept
                                pre_rejected += rej
                                if obs is not None:
                                    obs_prefilter.inc(rej)
                                if not kept:
                                    continue
                                pids = pids[mask]
                                pvals = pvals[mask]
                        backend.add_many_array(pids, pvals)
                    view.commit()
                    # Unmasked columns alias ring memory; drop them so
                    # no buffer export outlives the burst (close() must
                    # be able to unmap the segment).
                    part = pids = pvals = None
            else:
                blob = ring.pop(burst)
                if blob:
                    ids, vals = _decode_burst(blob, use_numpy)
                    backend.add_many(ids, vals)
                    got = len(ids)
            if got:
                consumed += got
                if obs is not None:
                    obs_bursts.inc()
                    obs_wakeup.observe(got)
            if pending is None:
                # Drain eagerly; only look at the pipe when idle (or
                # between bursts, which conn.poll(0) makes free-ish).
                if got:
                    if not conn.poll(0):
                        continue
                else:
                    if obs is not None:
                        obs_idle.inc()
                    if not conn.poll(_IDLE_POLL):
                        continue
                pending = conn.recv()
            op, expected = pending
            if consumed < expected:
                if not got:
                    # Barrier records not visible yet (producer is
                    # mid-push); don't spin hot on an empty ring.
                    time.sleep(_IDLE_POLL)
                continue  # keep draining up to the barrier
            pending = None
            if op == "query":
                conn.send(backend.query())
            elif op == "items":
                conn.send(list(backend.items()))
            elif op == "take_evicted":
                conn.send(backend.take_evicted())
            elif op == "stats":
                conn.send(_shard_stats(backend, consumed, pre_rejected))
            elif op == "metrics":
                _sync_shard_gauges(reg, backend, consumed, pre_rejected)
                conn.send(reg.snapshot())
            elif op == "reset":
                backend.reset()
                conn.send(("reset", consumed))
            elif op == "close":
                conn.send({
                    "items": list(backend.items()),
                    "evicted": backend.take_evicted(),
                    "stats": _shard_stats(backend, consumed, pre_rejected),
                })
                return
            else:  # pragma: no cover - engine never sends unknown ops
                conn.send(("error", f"unknown op {op!r}"))
                return
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        pass  # engine went away; nothing to report to
    except Exception as exc:  # pragma: no cover - surfaced engine-side
        _LOG.error("shard worker failed: %r", exc)
        try:
            conn.send(("error", repr(exc)))
        except (OSError, ValueError):
            pass
    finally:
        if ring is not None:
            ring.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
