"""Amortized q-MAX variant.

:class:`AmortizedQMax` is the "fill a buffer, then compact" version of
Algorithm 1: identical admission filter and space bound, but the Select
and pivot run in one shot when the buffer fills instead of being spread
over the iteration.  It is the natural ablation of the deamortization
(same amortized cost, bursty worst case) and, in CPython, usually the
faster of the two because it avoids generator dispatch per item.

The vectorised form of the same idea — a float64 store compacted with
``argpartition`` — is ``QMax(kernel="numpy")`` fed through
``add_many`` / ``add_many_array``.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.core.interface import QMaxBase
from repro.core.select import partition_top
from repro.errors import ConfigurationError, InvariantError
from repro.types import Item, ItemId, Value

_EMPTY = object()


class AmortizedQMax(QMaxBase):
    """Amortized-maintenance q-MAX (ablation of Algorithm 1).

    Keeps an array of ``q + max(1, ⌈qγ⌉)`` slots.  Admitted items fill
    the free suffix; when it is exhausted, one linear-time maintenance
    pass moves the top-q to the front, evicts the rest, and raises the
    admission threshold ``Ψ`` to the q-th largest value.
    """

    __slots__ = (
        "q",
        "gamma",
        "_cap",
        "_vals",
        "_ids",
        "_fill",
        "_psi",
        "_track_evictions",
        "_evicted",
        "compactions",
        "admitted",
        "rejected",
    )

    def __init__(
        self, q: int, gamma: float = 0.25, track_evictions: bool = False
    ) -> None:
        if q < 1:
            raise ConfigurationError(f"q must be >= 1, got {q}")
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be > 0, got {gamma}")
        self.q = q
        self.gamma = gamma
        self._cap = q + max(1, int(q * gamma + 0.999999))
        self._track_evictions = track_evictions
        self.reset()

    def reset(self) -> None:
        self._vals: List[Value] = [float("-inf")] * self._cap
        self._ids: List[ItemId] = [_EMPTY] * self._cap
        self._fill = 0
        self._psi: Value = float("-inf")
        self._evicted: List[Item] = []
        self.compactions = 0
        self.admitted = 0
        self.rejected = 0

    def add(self, item_id: ItemId, val: Value) -> None:
        if val <= self._psi:
            self.rejected += 1
            if self._track_evictions:
                self._evicted.append((item_id, val))
            return
        pos = self._fill
        self._vals[pos] = val
        self._ids[pos] = item_id
        self._fill = pos + 1
        self.admitted += 1
        if self._fill == self._cap:
            self._compact()

    def add_many(self, ids: Sequence[ItemId], vals: Sequence[Value]) -> None:
        """Batch update; Ψ and the fill cursor are constant between
        compactions, so the batch is consumed in free-suffix-sized
        chunks with all per-item attribute lookups hoisted."""
        n = len(ids)
        if n != len(vals):
            raise ConfigurationError(
                f"batch length mismatch: {n} ids vs {len(vals)} vals"
            )
        vals_a = self._vals
        ids_a = self._ids
        cap = self._cap
        track = self._track_evictions
        evicted = self._evicted
        admitted = 0
        i = 0
        while i < n:
            psi = self._psi
            fill = self._fill
            room = cap - fill
            while i < n:
                val = vals[i]
                if val <= psi:
                    if track:
                        evicted.append((ids[i], val))
                    i += 1
                    continue
                vals_a[fill] = val
                ids_a[fill] = ids[i]
                fill += 1
                admitted += 1
                i += 1
                room -= 1
                if not room:
                    break
            self._fill = fill
            if not room:
                self._compact()
        self.admitted += admitted
        self.rejected += n - admitted

    def _compact(self) -> None:
        """One-shot maintenance: select, pivot, evict the non-top-q."""
        self._psi = partition_top(
            self._vals, self._ids, 0, self._fill, self.q, side="left"
        )
        if self._track_evictions:
            vals, ids = self._vals, self._ids
            for i in range(self.q, self._fill):
                if ids[i] is not _EMPTY:
                    self._evicted.append((ids[i], vals[i]))
        self._fill = self.q
        self.compactions += 1

    def items(self) -> Iterator[Item]:
        vals, ids = self._vals, self._ids
        for i in range(self._fill):
            if ids[i] is not _EMPTY:
                yield ids[i], vals[i]

    def take_evicted(self) -> List[Item]:
        evicted, self._evicted = self._evicted, []
        return evicted

    def flush(self) -> None:
        """Run maintenance now (compacts the live set to exactly top-q).

        Exposed for the sorting reduction (Algorithm 2), which needs to
        synchronise eviction batches with its probe insertions.
        """
        if self._fill > self.q:
            self._compact()

    @property
    def space_slots(self) -> int:
        return self._cap

    @property
    def name(self) -> str:
        return f"qmax-amortized(gamma={self.gamma:g})"

    def check_invariants(self) -> None:
        if not 0 <= self._fill <= self._cap:
            raise InvariantError(f"fill {self._fill} out of range")
        live = [v for _, v in self.items()]
        if self._psi != float("-inf"):
            at_least = sum(1 for v in live if v >= self._psi)
            if at_least < min(self.q, len(live)):
                raise InvariantError("psi exceeds the q-th largest live value")
