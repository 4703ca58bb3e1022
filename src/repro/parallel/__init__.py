"""Multi-core sharded q-MAX (docs/PARALLEL.md).

The paper's headline deployment runs one measurement instance per PMD
core and merges their state.  This package is that deployment as a
library: :class:`ShardedQMaxEngine` hash-partitions flow ids across
worker processes fed through shared-memory record rings, answers
queries by merging per-shard retained sets, and degrades gracefully to
an in-process sharded fallback wherever processes or shared memory are
unavailable.

Exports resolve lazily (PEP 562): the daemon and the fleet coordinator
import only :mod:`repro.parallel.merge`, and must not load the engine,
its worker, the shared-memory ring or :mod:`repro.apps` unless a
``--shards > 1`` engine is built.
"""

from repro._compat import lazy_exports

_EXPORTS = {
    "ShardedQMaxEngine": "repro.parallel.engine",
    "partition_stream": "repro.parallel.engine",
    "merge_top_items": "repro.parallel.merge",
    "merge_top_records": "repro.parallel.merge",
    "merge_bottom_items": "repro.parallel.merge",
    "ShmRecordRing": "repro.parallel.shm_ring",
    "SHARD_RECORD": "repro.parallel.worker",
    "shard_worker_main": "repro.parallel.worker",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
