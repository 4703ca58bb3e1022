"""The correctness oracle: an offline reference fed the same records.

Each daemon's engine is mirrored by a reference :class:`repro.QMax` fed
exactly the records sent to that daemon.  The expected answer is
computed the way the program computes its own: a daemon's ``top`` is
``merge_top_items`` over its engine's top-q (one entry per id, the id's
largest value), and the fleet's global ``top`` is the same merge, with
``merge=max``, over the per-daemon answers.

Ties decide which of several equal-valued records an engine keeps at its
q-th place, and that choice may differ between paths.  So the oracle
compares exactly every ``(id, value)`` pair strictly above the tie
threshold ``T`` (the largest of the per-daemon q-th values, and of the
answer's k-th value when the answer is full), and only requires the rest
to lie at or above the smallest per-daemon q-th value.  Without ties at
the threshold the comparison is exact.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Sequence, Tuple

from repro.core.qmax import QMax
from repro.parallel.merge import merge_top_items

NEG_INF = float("-inf")


class Reference:
    """One reference QMax per daemon."""

    def __init__(self, q: int, daemons: int) -> None:
        self.q = q
        self.engines = [QMax(q) for _ in range(daemons)]

    def feed(self, ids: Sequence[list], vals: Sequence[list]) -> None:
        for engine, i, v in zip(self.engines, ids, vals):
            if i:
                engine.add_many(i, v)

    def expected(self, k: int) -> Tuple[list, float, float]:
        """``(answer, hi, lo)``: the expected top-``k`` answer, and the
        largest and smallest per-daemon q-th values (``-inf`` for a
        daemon that holds fewer than q records)."""
        parts, cuts = [], []
        for engine in self.engines:
            top = engine.query()
            cuts.append(top[-1][1] if len(top) >= self.q else NEG_INF)
            parts.append(merge_top_items([top], k))
        if len(parts) == 1:
            answer = parts[0]
        else:
            answer = merge_top_items(parts, k, merge=max)
        return answer, max(cuts), min(cuts)


def check(
    actual: Sequence[Tuple[Any, float]],
    expected: Sequence[Tuple[Any, float]],
    k: int,
    hi: float,
    lo: float,
) -> List[str]:
    """Compare an answer with the reference; return the mismatches."""
    errors = []
    values = [v for _, v in actual]
    if values != sorted(values, reverse=True):
        errors.append("answer is not sorted by descending value")
    if len(actual) > k:
        errors.append(f"answer has {len(actual)} entries, asked for {k}")
    threshold = hi
    if len(expected) >= k:
        threshold = max(threshold, expected[k - 1][1])
    want = Counter((i, v) for i, v in expected if v > threshold)
    got = Counter((i, v) for i, v in actual if v > threshold)
    if want != got:
        missing = list((want - got).elements())[:3]
        extra = list((got - want).elements())[:3]
        errors.append(
            f"entries above {threshold!r} differ: missing {missing}, "
            f"unexpected {extra}"
        )
    below = [v for v in values if v < lo]
    if below:
        errors.append(
            f"{len(below)} value(s) below the q-th value {lo!r}, "
            f"e.g. {below[0]!r}"
        )
    if len(expected) < k and hi == NEG_INF and len(actual) != len(expected):
        errors.append(
            f"answer has {len(actual)} entries, the reference "
            f"{len(expected)}"
        )
    return errors
