"""Step-wise selection and partitioning primitives.

Algorithm 1 deamortizes its maintenance by breaking a linear-time
*Select* (find the value with a given rank) and a linear-time *pivot*
(move the top-q items to one side of the array) into fixed-size chunks,
one chunk per admitted item (``SelectStep()`` / ``PivotStep()`` in the
paper's pseudo-code).

We realize "resumable computation" with Python generators: each
generator performs at most ``ops_per_step`` elementary operations
(comparisons/swaps) between ``yield``\\ s, yielding the number of
operations actually performed, and delivers its final result via
``return`` (i.e. ``StopIteration.value``).  The driver in
:class:`repro.core.qmax.QMax` advances the generator once per admitted
item.

All routines operate *in place* on two parallel lists ``vals`` and
``ids`` (structure-of-arrays layout: value comparisons never touch the
id objects, which keeps the hot loops cheap in CPython).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Generator, List, Optional, Tuple

from repro._compat import HAVE_NUMPY, np
from repro.errors import ConfigurationError
from repro.types import ItemId, Value

#: Below this size, quickselect finishes with insertion sort.
_SMALL_CUTOFF = 16

#: Below this region size the ndarray round-trip of the
#: ``np.argpartition`` one-shot path costs more than it saves.
_NP_PARTITION_MIN = 64

#: Default sample size of the sampled-pivot Select (SQUID-style).
_PIVOT_SAMPLE = 9

#: Generator type for step-wise routines: yields op counts, returns a result.
StepwiseResult = Generator[int, None, Value]
StepwiseVoid = Generator[int, None, None]


def _insertion_sort(
    vals: List[Value], ids: List[ItemId], lo: int, hi: int
) -> None:
    """Ascending insertion sort of ``vals[lo:hi)`` with ids in tow."""
    for i in range(lo + 1, hi):
        v, d = vals[i], ids[i]
        j = i - 1
        while j >= lo and vals[j] > v:
            vals[j + 1] = vals[j]
            ids[j + 1] = ids[j]
            j -= 1
        vals[j + 1] = v
        ids[j + 1] = d


def _median_of_three(
    vals: List[Value], ids: List[ItemId], lo: int, mid: int, hi_incl: int
) -> Value:
    """Order ``vals[lo] <= vals[mid] <= vals[hi_incl]`` and return the median."""
    if vals[mid] < vals[lo]:
        vals[lo], vals[mid] = vals[mid], vals[lo]
        ids[lo], ids[mid] = ids[mid], ids[lo]
    if vals[hi_incl] < vals[lo]:
        vals[lo], vals[hi_incl] = vals[hi_incl], vals[lo]
        ids[lo], ids[hi_incl] = ids[hi_incl], ids[lo]
    if vals[hi_incl] < vals[mid]:
        vals[mid], vals[hi_incl] = vals[hi_incl], vals[mid]
        ids[mid], ids[hi_incl] = ids[hi_incl], ids[mid]
    return vals[mid]


def stepwise_select(
    vals: List[Value],
    ids: List[ItemId],
    lo: int,
    hi: int,
    rank: int,
    ops_per_step: int,
) -> StepwiseResult:
    """Resumable quickselect: value of ascending ``rank`` in ``vals[lo:hi)``.

    ``rank`` is 0-indexed within the region (``rank == 0`` is the
    minimum, ``rank == hi - lo - 1`` the maximum).  The region is
    rearranged in place; on completion every element left of the target
    position is ``<=`` the result and everything right of it is ``>=``.

    Yields the number of elementary operations executed since the last
    yield (at most ``ops_per_step`` plus a small constant), and returns
    the selected value.
    """
    if not lo <= lo + rank < hi:
        raise ConfigurationError(
            f"rank {rank} out of range for region [{lo}, {hi})"
        )
    if ops_per_step < 1:
        raise ConfigurationError("ops_per_step must be >= 1")

    target = lo + rank
    left, right = lo, hi - 1
    ops = 0
    while right - left >= _SMALL_CUTOFF:
        mid = (left + right) // 2
        pivot = _median_of_three(vals, ids, left, mid, right)
        # Hoare partition; the median-of-three already placed sentinels
        # at both ends, so the inner loops cannot run off the region.
        i, j = left, right
        while i <= j:
            while vals[i] < pivot:
                i += 1
                ops += 1
                if ops >= ops_per_step:
                    yield ops
                    ops = 0
            while vals[j] > pivot:
                j -= 1
                ops += 1
                if ops >= ops_per_step:
                    yield ops
                    ops = 0
            if i <= j:
                vals[i], vals[j] = vals[j], vals[i]
                ids[i], ids[j] = ids[j], ids[i]
                i += 1
                j -= 1
                ops += 1
                if ops >= ops_per_step:
                    yield ops
                    ops = 0
        if target <= j:
            right = j
        elif target >= i:
            left = i
        else:
            if ops:
                yield ops
            return vals[target]
    _insertion_sort(vals, ids, left, right + 1)
    ops += right + 1 - left
    yield ops
    return vals[target]


def stepwise_partition_top(
    vals: List[Value],
    ids: List[ItemId],
    lo: int,
    hi: int,
    pivot: Value,
    side: str,
    ops_per_step: int,
) -> StepwiseVoid:
    """Resumable three-way (Dutch national flag) partition around ``pivot``.

    After completion, ``vals[lo:hi)`` is arranged as ``[< pivot][== pivot]
    [> pivot]`` when ``side == "right"`` or ``[> pivot][== pivot][< pivot]``
    when ``side == "left"``.

    When ``pivot`` is the q-th largest value of the region (as produced
    by :func:`stepwise_select` with ``rank == (hi - lo) - q``), the top
    q items (counting ties toward the ``== pivot`` block as needed) end
    up occupying exactly the ``q`` slots adjacent to the chosen side —
    this is the "bring the largest q items to the middle of A" pivot of
    Algorithm 1.
    """
    if side not in ("left", "right"):
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    if ops_per_step < 1:
        raise ConfigurationError("ops_per_step must be >= 1")

    # big_on_right: classic ascending DNF; otherwise mirror comparisons.
    big_on_right = side == "right"
    lt, i, gt = lo, lo, hi
    ops = 0
    while i < gt:
        v = vals[i]
        low = v < pivot if big_on_right else v > pivot
        high = v > pivot if big_on_right else v < pivot
        if low:
            vals[i], vals[lt] = vals[lt], vals[i]
            ids[i], ids[lt] = ids[lt], ids[i]
            lt += 1
            i += 1
        elif high:
            gt -= 1
            vals[i], vals[gt] = vals[gt], vals[i]
            ids[i], ids[gt] = ids[gt], ids[i]
        else:
            i += 1
        ops += 1
        if ops >= ops_per_step:
            yield ops
            ops = 0
    if ops:
        yield ops
    return None


def _stepwise_dnf(
    vals: List[Value],
    ids: List[ItemId],
    lo: int,
    hi: int,
    pivot: Value,
    ops_per_step: int,
    shared: List[int],
) -> Generator[int, None, Tuple[int, int]]:
    """Resumable ascending three-way partition; returns ``(lt, gt)``
    such that ``vals[lo:lt) < pivot == vals[lt:gt) < vals[gt:hi)``.

    ``shared`` is the single op accumulator threaded through the whole
    BFPRT recursion so the per-yield budget holds globally.
    """
    lt, i, gt = lo, lo, hi
    while i < gt:
        v = vals[i]
        if v < pivot:
            vals[i], vals[lt] = vals[lt], vals[i]
            ids[i], ids[lt] = ids[lt], ids[i]
            lt += 1
            i += 1
        elif v > pivot:
            gt -= 1
            vals[i], vals[gt] = vals[gt], vals[i]
            ids[i], ids[gt] = ids[gt], ids[i]
        else:
            i += 1
        shared[0] += 1
        if shared[0] >= ops_per_step:
            yield shared[0]
            shared[0] = 0
    return lt, gt


def stepwise_select_deterministic(
    vals: List[Value],
    ids: List[ItemId],
    lo: int,
    hi: int,
    rank: int,
    ops_per_step: int,
    _shared: Optional[List[int]] = None,
) -> StepwiseResult:
    """Resumable BFPRT (median-of-medians) selection.

    Same contract as :func:`stepwise_select`, but with a *deterministic*
    linear operation bound — the Select of Blum, Floyd, Pratt, Rivest &
    Tarjan that Theorem 1's worst-case analysis presumes (reference
    [21] of the paper).  Several times more operations than quickselect
    on random data; immune to adversarial inputs.

    ``_shared`` is internal: the op accumulator shared across recursion
    levels, so a single resumption never exceeds the budget no matter
    how deep the median-of-medians recursion goes.
    """
    if not lo <= lo + rank < hi:
        raise ConfigurationError(
            f"rank {rank} out of range for region [{lo}, {hi})"
        )
    if ops_per_step < 1:
        raise ConfigurationError("ops_per_step must be >= 1")
    top_level = _shared is None
    shared = [0] if top_level else _shared

    left, right = lo, hi
    target = lo + rank
    while right - left > _SMALL_CUTOFF:
        n = right - left
        # Phase 1: median of each group of five, swapped to the front
        # block [left, left + n_groups).
        n_groups = (n + 4) // 5
        for g in range(n_groups):
            g_lo = left + 5 * g
            g_hi = min(g_lo + 5, right)
            _insertion_sort(vals, ids, g_lo, g_hi)
            mid = (g_lo + g_hi - 1) // 2
            dest = left + g
            vals[dest], vals[mid] = vals[mid], vals[dest]
            ids[dest], ids[mid] = ids[mid], ids[dest]
            shared[0] += 2 * (g_hi - g_lo)
            if shared[0] >= ops_per_step:
                yield shared[0]
                shared[0] = 0
        # Phase 2: pivot = median of the medians block (recursive;
        # generators compose and the shared accumulator keeps every
        # resumption within one budget).
        if n_groups > 1:
            pivot = yield from stepwise_select_deterministic(
                vals, ids, left, left + n_groups, n_groups // 2,
                ops_per_step, shared,
            )
        else:
            pivot = vals[left]
        # Phase 3: three-way partition around the pivot.
        lt, gt = yield from _stepwise_dnf(
            vals, ids, left, right, pivot, ops_per_step, shared
        )
        if target < lt:
            right = lt
        elif target >= gt:
            left = gt
        else:
            if top_level and shared[0]:
                yield shared[0]
            return pivot
    _insertion_sort(vals, ids, left, right)
    shared[0] += right - left
    if top_level and shared[0]:
        yield shared[0]
    return vals[target]


def stepwise_select_sampled(
    vals: List[Value],
    ids: List[ItemId],
    lo: int,
    hi: int,
    rank: int,
    ops_per_step: int,
    sample_size: int = _PIVOT_SAMPLE,
) -> StepwiseResult:
    """Resumable sampled-pivot selection (SQUID-style).

    Same contract as :func:`stepwise_select`, but every round draws the
    pivot from a small *k-sample* of the region instead of a
    median-of-three: ``sample_size`` values at fixed strides are
    sorted, and the sample element whose sample-rank is proportional to
    the target's rank becomes the pivot.  Aiming the pivot at the
    target's quantile (rather than the median) shrinks the active
    region toward the target faster when the wanted rank is eccentric —
    exactly q-MAX's case, where the Select always looks for the
    ``g``-th smallest of ``q + g`` values.  This is the pivot
    estimation SQUID (Ben Basat et al., 2022) uses to keep quantile
    maintenance cheap per update; sampling is deterministic (strided)
    so replays reproduce the schedule exactly.
    """
    if not lo <= lo + rank < hi:
        raise ConfigurationError(
            f"rank {rank} out of range for region [{lo}, {hi})"
        )
    if ops_per_step < 1:
        raise ConfigurationError("ops_per_step must be >= 1")
    if sample_size < 1:
        raise ConfigurationError(
            f"sample_size must be >= 1, got {sample_size}"
        )

    shared = [0]
    left, right = lo, hi
    target = lo + rank
    while right - left > _SMALL_CUTOFF:
        n = right - left
        k = sample_size if sample_size < n else n
        stride = n // k
        sample = sorted(vals[left + i * stride] for i in range(k))
        # Proportional-rank pivot: the sample's best guess at the
        # target's quantile.
        pos = (target - left) * (k - 1) // (n - 1)
        pivot = sample[pos]
        shared[0] += k
        if shared[0] >= ops_per_step:
            yield shared[0]
            shared[0] = 0
        # The pivot is a value drawn from the region, so the == block
        # of the three-way partition is non-empty and the active region
        # strictly shrinks every round (no sentinels needed).
        lt, gt = yield from _stepwise_dnf(
            vals, ids, left, right, pivot, ops_per_step, shared
        )
        if target < lt:
            right = lt
        elif target >= gt:
            left = gt
        else:
            if shared[0]:
                yield shared[0]
            return pivot
    _insertion_sort(vals, ids, left, right)
    shared[0] += right - left
    if shared[0]:
        yield shared[0]
    return vals[target]


def quickselect(
    vals: List[Value], ids: List[ItemId], lo: int, hi: int, rank: int
) -> Value:
    """One-shot in-place quickselect (ascending ``rank`` within the
    region) — the fast path used by amortized maintenance.

    Identical semantics to driving :func:`stepwise_select` to
    completion, without the per-operation budget accounting.
    """
    if not lo <= lo + rank < hi:
        raise ConfigurationError(
            f"rank {rank} out of range for region [{lo}, {hi})"
        )
    target = lo + rank
    left, right = lo, hi - 1
    while right - left >= _SMALL_CUTOFF:
        mid = (left + right) // 2
        pivot = _median_of_three(vals, ids, left, mid, right)
        i, j = left, right
        while i <= j:
            v = vals[i]
            while v < pivot:
                i += 1
                v = vals[i]
            v = vals[j]
            while v > pivot:
                j -= 1
                v = vals[j]
            if i <= j:
                vals[i], vals[j] = vals[j], vals[i]
                ids[i], ids[j] = ids[j], ids[i]
                i += 1
                j -= 1
        if target <= j:
            right = j
        elif target >= i:
            left = i
        else:
            return vals[target]
    _insertion_sort(vals, ids, left, right + 1)
    return vals[target]


def dnf_partition(
    vals: List[Value],
    ids: List[ItemId],
    lo: int,
    hi: int,
    pivot: Value,
    side: str,
) -> None:
    """One-shot three-way partition (see :func:`stepwise_partition_top`)."""
    if side not in ("left", "right"):
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    big_on_right = side == "right"
    lt, i, gt = lo, lo, hi
    while i < gt:
        v = vals[i]
        if (v < pivot) if big_on_right else (v > pivot):
            vals[i], vals[lt] = vals[lt], vals[i]
            ids[i], ids[lt] = ids[lt], ids[i]
            lt += 1
            i += 1
        elif (v > pivot) if big_on_right else (v < pivot):
            gt -= 1
            vals[i], vals[gt] = vals[gt], vals[i]
            ids[i], ids[gt] = ids[gt], ids[i]
        else:
            i += 1


def run_to_completion(gen: Generator) -> Optional[Value]:
    """Drive a step-wise generator until it finishes; return its result."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def select_kth_largest(
    vals: List[Value], ids: List[ItemId], lo: int, hi: int, k: int
) -> Value:
    """One-shot: the k-th largest value (1-indexed) in ``vals[lo:hi)``."""
    if not 1 <= k <= hi - lo:
        raise ConfigurationError(f"k={k} out of range for region [{lo}, {hi})")
    return quickselect(vals, ids, lo, hi, (hi - lo) - k)


def partition_top(
    vals: List[Value],
    ids: List[ItemId],
    lo: int,
    hi: int,
    q: int,
    side: str = "right",
    use_numpy: Optional[bool] = None,
) -> Value:
    """One-shot select-and-pivot: move the top ``q`` items of the region
    to ``side`` and return the threshold value (the q-th largest).

    This is the amortized maintenance operation (one full Select plus
    one full pivot), used by :class:`repro.core.amortized.AmortizedQMax`,
    by query-time top-q extraction, and as the fallback when a
    deamortized iteration must be force finished.

    ``use_numpy`` selects the ``np.argpartition`` fast path: one
    C-level introselect over the region's values, with the original
    value/id *objects* permuted into place afterwards (so integer
    values stay integers — only the comparisons run in float64, the
    same contract as the vectorized ``add_many`` filter).  ``None``
    auto-engages it when NumPy is installed and the region is large
    enough to amortize the ndarray round-trip; the retained *set* is
    identical on both paths (ordering within the two blocks — and the
    choice among ties at the threshold — is unspecified on either).
    """
    if use_numpy is None:
        use_numpy = HAVE_NUMPY and hi - lo >= _NP_PARTITION_MIN
    elif use_numpy and not HAVE_NUMPY:
        raise ConfigurationError(
            "use_numpy=True but numpy is not installed (pip install .[fast])"
        )
    if use_numpy:
        return argpartition_top(vals, ids, lo, hi, q, side)
    threshold = select_kth_largest(vals, ids, lo, hi, q)
    dnf_partition(vals, ids, lo, hi, threshold, side)
    return threshold


def argpartition_top(
    vals: List[Value],
    ids: List[ItemId],
    lo: int,
    hi: int,
    q: int,
    side: str,
    observe: Optional[Callable[[str, float], None]] = None,
) -> Value:
    """``np.argpartition`` select-and-pivot over list storage.

    The NumPy path of :func:`partition_top` and the list-storage drive
    of the ``numpy`` maintenance kernel.  Comparisons run in C over a
    float64 shadow of ``vals[lo:hi)``; the original value/id *objects*
    are then permuted into place, so integer values stay integers.
    ``observe(phase, seconds)`` — when given — receives one
    ``"select"`` and one ``"pivot"`` span.
    """
    if side not in ("left", "right"):
        raise ConfigurationError(f"side must be 'left' or 'right', got {side!r}")
    n = hi - lo
    if not 1 <= q <= n:
        raise ConfigurationError(f"k={q} out of range for region [{lo}, {hi})")
    if observe is not None:
        t0 = perf_counter()
    region_vals = vals[lo:hi]
    region_ids = ids[lo:hi]
    varr = np.asarray(region_vals, dtype=np.float64)
    kth = n - q
    order = np.argpartition(varr, kth)
    threshold = region_vals[int(order[kth])]
    if observe is not None:
        t1 = perf_counter()
        observe("select", t1 - t0)
    perm = order.tolist()
    if side == "left":
        perm.reverse()
    for i in range(n):
        j = perm[i]
        vals[lo + i] = region_vals[j]
        ids[lo + i] = region_ids[j]
    if observe is not None:
        observe("pivot", perf_counter() - t1)
    return threshold
