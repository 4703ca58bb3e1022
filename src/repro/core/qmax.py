"""Algorithm 1: the deamortized interval q-MAX.

The structure keeps an array ``A`` of ``N = q + 2g`` slots where
``g = ⌊qγ/2⌋`` (so ``N ≈ ⌈q(1+γ)⌉``), split into two regions:

* **S1** — ``q + g`` slots that are guaranteed to contain the current
  top-q items, and
* **S2** — ``g`` slots that receive newly admitted items.

An admission threshold ``Ψ`` (a lower bound on the q-th largest retained
value) filters the stream: items with ``val <= Ψ`` are discarded in O(1).
Each admitted item is written into the next S2 slot and pays one
*deamortized maintenance step*: the first ``⌈g/2⌉`` steps of an
iteration advance a resumable Select that computes the q-th largest
value of S1 (which then becomes the new ``Ψ``); the remaining steps
advance a resumable pivot that moves S1's top-q to the side of its
region adjacent to S2.  After ``g`` admitted items the iteration ends:
the ``g`` S1 slots *not* holding top-q items are exactly the slots
farthest from S2 — they become the new S2 (their occupants are evicted),
and the old S2 together with the old top-q becomes the new S1.  The
array orientation therefore alternates left/right each iteration, as in
Figure 1 of the paper.

Deviations from the paper (documented in DESIGN.md §5):

* The paper's SelectStep presumes a deterministic linear-time Select;
  we use a resumable quickselect (expected linear).  If the Select or
  pivot has not finished when its step budget runs out, the remainder
  runs synchronously at the iteration boundary, preserving amortized
  O(γ⁻¹) cost per admitted item.
* CPython pays ~0.5µs per generator dispatch, so maintenance advances
  in *micro-batches*: the resumable computation is driven once every
  ``step_batch`` admitted items (default 8) with a proportionally
  larger operation budget.  The worst-case per-update work remains a
  constant — ``O(step_batch/γ)`` — and ``step_batch=1`` recovers the
  paper's exact schedule.  The ``instrument=True`` mode records
  realized per-update maintenance costs for the tests that verify the
  constant bound.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Generator, Iterator, List, Optional, Sequence

from repro._compat import HAVE_NUMPY, np
from repro.core.interface import QMaxBase
from repro.core.kernels import DEFAULT_KERNEL, KERNEL_ENV, resolve_kernel
from repro.core.select import (
    partition_top,
    stepwise_partition_top,
    stepwise_select,
    stepwise_select_deterministic,
    stepwise_select_sampled,
)
from repro.errors import ConfigurationError, InvariantError
from repro.obs import resolve_registry
from repro.types import Item, ItemId, TopItems, Value

#: Sentinel stored in empty slots; never equal to a user id.
_EMPTY = object()

#: Budget factor over the expected quickselect cost (~3n ops on random
#: input) when sizing the per-drive operation budget.
_SELECT_BUDGET_FACTOR = 3

#: BFPRT does a deterministic ~22n counted operations (and our counter
#: undercounts the group sorts slightly); budget with headroom so the
#: Select reliably finishes within its half of the iteration.
_BFPRT_BUDGET_FACTOR = 36

#: The pivot is a single Dutch-national-flag pass (exactly n ops).
_PIVOT_BUDGET_FACTOR = 2

#: Below this batch size the ndarray round-trip costs more than the
#: tight pure-Python loop saves, so auto mode stays pure.
_NUMPY_MIN_BATCH = 32


class QMax(QMaxBase):
    """Deamortized q-MAX over an interval (Algorithm 1).

    Parameters
    ----------
    q:
        Number of maximal items to maintain (``q >= 1``).
    gamma:
        Space/time trade-off: the structure uses ``q + 2·⌊qγ/2⌋`` slots
        and performs ``O(1/γ)`` work per admitted item.  Must be
        positive.  When ``⌊qγ/2⌋ < 2`` the deamortized schedule is
        degenerate and the structure behaves like the amortized variant
        (maintenance runs in full at each iteration boundary).
    track_evictions:
        When true, every discarded item (admission-filtered or displaced
        at an iteration boundary) is recorded and can be drained with
        :meth:`take_evicted`.  Off by default to keep the hot path lean.
    step_batch:
        Admitted items per maintenance drive (see module docstring).
    instrument:
        Record ``maintenance_ops`` / ``max_step_ops`` statistics.
    deterministic_select:
        Use the BFPRT median-of-medians Select (the paper's reference
        [21]) instead of quickselect.  Gives a *deterministic*
        worst-case O(1/γ) update bound at ~5-8× the expected operation
        count — pick it when the value stream may be adversarial.
    pivot_sample:
        When > 0, use the SQUID-style sampled-pivot Select instead of
        quickselect: each round draws the pivot from a ``pivot_sample``
        element strided sample at the target's proportional rank (see
        :func:`repro.core.select.stepwise_select_sampled`).  Mutually
        exclusive with ``deterministic_select``.
    kernel:
        Maintenance execution strategy (see :mod:`repro.core.kernels`).
        ``None`` consults ``REPRO_KERNEL`` then defaults to
        ``"stepwise"`` — the deamortized generator schedule above,
        with its per-update O(1/γ) bound.  ``"numpy"``
        (or any kernel instance, including a
        :class:`~repro.core.kernels.stepwise.StepwiseKernel`) switch to
        **one-shot drives**: maintenance runs as a single fast call at
        each iteration boundary (every ``g`` admissions), which trades
        the per-update worst-case bound for a much smaller amortized
        constant.  Ψ then tightens only at boundaries (it is exact at
        every boundary and remains a valid lower bound throughout), so
        admission decisions between a one-shot structure and the
        deamortized default can differ mid-iteration — the top-q
        answer is exact either way (docs/ALGORITHMS.md).  ``"numpy"``
        without NumPy degrades to ``"stepwise"`` with a warning;
        :meth:`stats` reports what actually resolved.
        Step-budget Select strategies (``deterministic_select``,
        ``pivot_sample``) are meaningless under one-shot drives: they
        raise with an explicitly requested kernel, and win over a
        kernel that merely came from ``REPRO_KERNEL`` (the deamortized
        schedule is preserved whenever step-budget semantics are
        requested).  ``step_batch`` is ignored in one-shot mode.
    use_numpy:
        Controls the :meth:`add_many` batch filter.  ``None`` (default)
        auto-selects: NumPy when installed and the batch is large
        enough to amortize the ndarray round-trip, pure Python
        otherwise.  ``False`` forces the pure-Python path; ``True``
        requires NumPy (``ConfigurationError`` if missing) and engages
        it for every batch size.  Retained-set semantics are identical
        on all paths.
    metrics:
        Observability registry (see :mod:`repro.obs`): ``None`` uses
        the process default (disabled unless ``REPRO_METRICS=1``),
        ``False`` forces off, or pass a
        :class:`~repro.obs.MetricsRegistry`.  Maintenance events —
        drives, select/pivot completions, iteration boundaries,
        evictions, batch fast-path hits, Ψ — are counted at drive and
        batch granularity only; the per-item ``add`` path is never
        touched, and with metrics disabled no instrumentation branch
        exists on any hot path.
    trace:
        With an enabled ``metrics`` registry, additionally time every
        maintenance drive into the
        ``repro_qmax_maintenance_seconds{phase=select|pivot|boundary}``
        histograms (two ``perf_counter`` calls per drive) — the span
        data ``bench_sec3_profiling.py`` turns into the paper's §3
        time-breakdown table.  Ignored when metrics are disabled.
    """

    __slots__ = (
        "q",
        "gamma",
        "_g",
        "_n",
        "_vals",
        "_ids",
        "_psi",
        "_steps",
        "_sel_steps",
        "_orient_left",
        "_insert_base",
        "_maint",
        "_batch",
        "_select",
        "_select_factor",
        "_track_evictions",
        "_use_numpy",
        "_np_min_batch",
        "_instrument",
        "_evicted",
        "maintenance_ops",
        "max_step_ops",
        "admitted",
        "rejected",
        "_obs",
        "_obs_drives",
        "_obs_selects",
        "_obs_pivots",
        "_obs_iterations",
        "_obs_evictions",
        "_obs_batches",
        "_obs_batch_fastpath",
        "_obs_batch_numpy",
        "_obs_psi",
        "_trace",
        "_trace_hists",
        "_maint_phase",
        "_phase_mark",
        "kernel",
        "_kernel_requested",
        "_kernel_obj",
        "_array_store",
    )

    def __init__(
        self,
        q: int,
        gamma: float = 0.25,
        track_evictions: bool = False,
        step_batch: int = 8,
        instrument: bool = False,
        deterministic_select: bool = False,
        use_numpy: Optional[bool] = None,
        pivot_sample: int = 0,
        kernel=None,
        metrics=None,
        trace: bool = False,
    ) -> None:
        if q < 1:
            raise ConfigurationError(f"q must be >= 1, got {q}")
        if gamma <= 0:
            raise ConfigurationError(f"gamma must be > 0, got {gamma}")
        if step_batch < 1:
            raise ConfigurationError(
                f"step_batch must be >= 1, got {step_batch}"
            )
        if pivot_sample < 0:
            raise ConfigurationError(
                f"pivot_sample must be >= 0, got {pivot_sample}"
            )
        if pivot_sample and deterministic_select:
            raise ConfigurationError(
                "pivot_sample and deterministic_select are mutually "
                "exclusive"
            )
        self.q = q
        self.gamma = gamma
        if deterministic_select:
            self._select = stepwise_select_deterministic
            self._select_factor = _BFPRT_BUDGET_FACTOR
        elif pivot_sample:
            def _sampled(vals, ids, lo, hi, rank, ops, _k=pivot_sample):
                return stepwise_select_sampled(
                    vals, ids, lo, hi, rank, ops, sample_size=_k
                )

            self._select = _sampled
            self._select_factor = _SELECT_BUDGET_FACTOR
        else:
            self._select = stepwise_select
            self._select_factor = _SELECT_BUDGET_FACTOR
        if use_numpy and not HAVE_NUMPY:
            raise ConfigurationError(
                "use_numpy=True but numpy is not installed "
                "(pip install .[fast])"
            )
        self._use_numpy = HAVE_NUMPY if use_numpy is None else use_numpy
        self._np_min_batch = 1 if use_numpy else _NUMPY_MIN_BATCH
        self._g = max(1, int(q * gamma / 2))
        self._n = q + 2 * self._g
        self._batch = min(step_batch, self._g)
        self._track_evictions = track_evictions
        self._instrument = instrument
        self._evicted: List[Item] = []
        self._resolve_kernel(kernel, deterministic_select, pivot_sample)
        self._bind_obs(resolve_registry(metrics), trace)
        self.reset()

    def _resolve_kernel(
        self, kernel, deterministic_select: bool, pivot_sample: int
    ) -> None:
        """Resolve the maintenance kernel (cold path, __init__ only).

        Sets ``self._kernel_obj`` (``None`` = deamortized stepwise
        schedule; an instance = one-shot drives at iteration
        boundaries), ``self.kernel`` (the resolved name — what will
        actually run) and ``self._kernel_requested``.
        """
        if kernel is None:
            requested = os.environ.get(KERNEL_ENV) or DEFAULT_KERNEL
            from_env = requested != DEFAULT_KERNEL
        elif isinstance(kernel, str):
            requested, from_env = kernel, False
        else:
            requested = getattr(kernel, "name", type(kernel).__name__)
            from_env = False
        self._kernel_requested = requested
        if kernel is not None and not isinstance(kernel, str):
            # An explicit instance always drives one-shot — including a
            # StepwiseKernel, the differential suites' reference mode.
            self._kernel_obj = resolve_kernel(kernel)
        else:
            resolved = resolve_kernel(kernel)
            self._kernel_obj = (
                None if resolved.name == DEFAULT_KERNEL else resolved
            )
        if self._kernel_obj is not None and (
            deterministic_select or pivot_sample
        ):
            if from_env:
                # Step-budget Select strategies were requested in code;
                # an environment-level kernel preference must not break
                # their drive-schedule semantics.
                self._kernel_obj = None
            else:
                raise ConfigurationError(
                    "one-shot kernels are mutually exclusive with the "
                    "step-budget Select strategies "
                    "(deterministic_select / pivot_sample)"
                )
        if self._kernel_obj is None:
            self.kernel = DEFAULT_KERNEL
        else:
            self.kernel = getattr(
                self._kernel_obj, "name", type(self._kernel_obj).__name__
            )
            # One-shot mode: maintenance runs once per iteration, so
            # the only drive point is the boundary itself.
            self._batch = self._g
        self._array_store = (
            self._kernel_obj is not None
            and self._use_numpy
            and getattr(self._kernel_obj, "array_storage", False)
        )

    def _bind_obs(self, registry, trace: bool) -> None:
        """Bind observability instruments once (cold path).

        Instruments are registered by name, so several structures on
        one registry share cumulative counters (gauges: last writer
        wins); the sharded engine gives each worker process its own
        registry and merges snapshots instead.
        """
        if not registry.enabled:
            self._obs = None
            self._trace = False
            self._trace_hists = None
            return
        self._obs = registry
        self._obs_drives = registry.counter(
            "repro_qmax_maintenance_drives_total",
            "maintenance micro-batch drives",
        )
        self._obs_selects = registry.counter(
            "repro_qmax_select_completed_total",
            "resumable Select completions (one per iteration)",
        )
        self._obs_pivots = registry.counter(
            "repro_qmax_pivot_completed_total",
            "resumable pivot completions (one per iteration)",
        )
        self._obs_iterations = registry.counter(
            "repro_qmax_iterations_total",
            "iteration boundaries (orientation flips)",
        )
        self._obs_evictions = registry.counter(
            "repro_qmax_evictions_total",
            "items displaced at iteration boundaries",
        )
        self._obs_batches = registry.counter(
            "repro_qmax_batch_calls_total", "add_many invocations",
        )
        self._obs_batch_fastpath = registry.counter(
            "repro_qmax_batch_fastpath_total",
            "add_many bursts rejected whole by the common-discard max()",
        )
        self._obs_batch_numpy = registry.counter(
            "repro_qmax_batch_numpy_total",
            "add_many bursts through the vectorized NumPy filter",
        )
        self._obs_psi = registry.gauge(
            "repro_qmax_psi", "current admission threshold Ψ",
        )
        registry.gauge(
            "repro_qmax_gamma_configured", "requested γ",
        ).set(self.gamma)
        registry.gauge(
            "repro_qmax_gamma_actual",
            "realized γ = 2⌊qγ/2⌋/q after slot rounding",
        ).set(2 * self._g / self.q)
        registry.gauge(
            "repro_qmax_kernel",
            "active maintenance kernel (1 = the labelled kernel runs "
            "this structure's drives, post fallback)",
            kernel=self.kernel,
        ).set(1.0)
        self._trace = bool(trace)
        self._trace_hists = {
            phase: registry.histogram(
                "repro_qmax_maintenance_seconds",
                "wall-clock time of maintenance drives by phase",
                phase=phase,
                kernel=self.kernel,
            )
            for phase in ("select", "pivot", "boundary")
        } if trace else None

    # ------------------------------------------------------------------
    # Region geometry.
    #
    # Orientation "left": S1 = [0, q+g), S2 = [q+g, N); pivot moves the
    # top-q of S1 to the *right* of S1's region, so the slots [0, g)
    # are discarded at the boundary and become the next S2.
    # Orientation "right": S1 = [g, N), S2 = [0, g); pivot side "left".
    # ------------------------------------------------------------------

    def _s1_bounds(self) -> tuple:
        if self._orient_left:
            return 0, self.q + self._g
        return self._g, self._n

    def _pivot_side(self) -> str:
        return "right" if self._orient_left else "left"

    def _discard_bounds(self) -> tuple:
        """Slots evicted at the end of the current iteration."""
        if self._orient_left:
            return 0, self._g
        return self.q + self._g, self._n

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Clear all state (see :meth:`QMaxBase.reset`)."""
        neg_inf = float("-inf")
        if self._array_store:
            # Kernel mode on the NumPy stack: a float64 value column
            # (kernels drive it without touching Python objects) plus
            # an object id column.  Values coerce to float64 on
            # admission — the same contract as add_many_array.
            self._vals = np.full(self._n, neg_inf, dtype=np.float64)
            self._ids = np.full(self._n, _EMPTY, dtype=object)
        else:
            self._vals: List[Value] = [neg_inf] * self._n
            self._ids: List[ItemId] = [_EMPTY] * self._n
        self._psi: Value = neg_inf
        self._steps = 0
        self._sel_steps = max(1, self._g // 2)
        self._orient_left = True
        self._insert_base = self.q + self._g
        self._evicted = []
        self.maintenance_ops = 0
        self.max_step_ops = 0
        self.admitted = 0
        self.rejected = 0
        self._maint_phase = "select"
        self._phase_mark = 0.0
        self._maint: Optional[Generator[int, None, None]] = (
            None if self._kernel_obj is not None else self._maintenance_gen()
        )

    def _maintenance_gen(self) -> Generator[int, None, None]:
        """One iteration's maintenance: Select then pivot, step-wise.

        Sets ``self._psi`` as soon as the Select completes (the paper's
        line 10: the admission filter tightens mid-iteration).
        """
        lo, hi = self._s1_bounds()
        size = hi - lo
        batch = self._batch
        sel_drives = max(1, self._sel_steps // batch)
        piv_drives = max(1, (self._g - self._sel_steps) // batch)
        sel_ops = -(-self._select_factor * size // sel_drives)
        piv_ops = -(-_PIVOT_BUDGET_FACTOR * size // piv_drives)
        rank = size - self.q
        self._maint_phase = "select"
        psi = yield from self._select(
            self._vals, self._ids, lo, hi, rank, sel_ops
        )
        self._psi = psi
        obs = self._obs
        if obs is not None:
            self._obs_selects.inc()
            self._obs_psi.set(psi)
        if self._trace:
            # Mark the select→pivot transition so the drive that spans
            # it can split its span honestly (see _drive).
            self._phase_mark = perf_counter()
        self._maint_phase = "pivot"
        yield from stepwise_partition_top(
            self._vals, self._ids, lo, hi, psi, self._pivot_side(), piv_ops
        )
        if obs is not None:
            self._obs_pivots.inc()

    # ------------------------------------------------------------------
    # Hot path.
    # ------------------------------------------------------------------

    def add(self, item_id: ItemId, val: Value) -> None:
        """Process one stream item in O(1/γ) (expected, deamortized)."""
        if val <= self._psi:
            self.rejected += 1
            if self._track_evictions and item_id is not _EMPTY:
                self._evicted.append((item_id, val))
            return
        steps = self._steps
        pos = self._insert_base + steps
        self._vals[pos] = val
        self._ids[pos] = item_id
        steps += 1
        self._steps = steps
        self.admitted += 1
        if steps % self._batch == 0 or steps >= self._g:
            self._drive(steps)

    def add_many(self, ids: Sequence[ItemId], vals: Sequence[Value]) -> None:
        """Batch update with the same retained-set semantics as ``add``.

        The batch is filtered against Ψ in chunks bounded by the next
        maintenance drive point, so the drive schedule — and therefore
        the retained set — is *identical* to calling :meth:`add` once
        per item.  Whenever a drive tightens Ψ, the not-yet-consumed
        remainder of the batch is re-filtered against the new
        threshold, exactly as sequential processing would reject those
        items later.  The speedup comes from hoisting attribute lookups
        out of the loop (pure path) or vectorizing the common
        ``val <= Ψ`` discard (NumPy path), not from schedule changes.
        """
        n = len(ids)
        if n != len(vals):
            raise ConfigurationError(
                f"batch length mismatch: {n} ids vs {len(vals)} vals"
            )
        # Eviction tracking needs per-reject bookkeeping, which the
        # vectorized filter skips; route tracked structures through the
        # pure path (ordering is unspecified anyway, see QMaxBase).
        if self._obs is not None:
            self._obs_batches.inc()
        if (
            self._use_numpy
            and n >= self._np_min_batch
            and not self._track_evictions
        ):
            if self._obs is not None:
                self._obs_batch_numpy.inc()
            self._add_many_numpy(ids, vals)
        else:
            self._add_many_python(ids, vals)

    def _add_many_python(
        self, ids: Sequence[ItemId], vals: Sequence[Value]
    ) -> None:
        n = len(ids)
        track = self._track_evictions
        # Common-discard shortcut: one C-level max() rejects the whole
        # burst when nothing beats the admission threshold — the
        # line-rate case once Ψ has converged.  (Tracked structures
        # need per-item eviction records, so they take the loop.)
        if n and not track and max(vals) <= self._psi:
            self.rejected += n
            if self._obs is not None:
                self._obs_batch_fastpath.inc()
            return
        vals_a = self._vals
        ids_a = self._ids
        g = self._g
        batch = self._batch
        evicted = self._evicted
        admitted = 0
        i = 0
        while i < n:
            # Ψ, the write cursor, and the insert base are constant
            # between drives; re-read them per chunk only.
            psi = self._psi
            steps = self._steps
            base = self._insert_base
            room = batch - steps % batch
            if steps + room > g:
                room = g - steps
            while i < n:
                val = vals[i]
                if val <= psi:
                    if track:
                        item_id = ids[i]
                        if item_id is not _EMPTY:
                            evicted.append((item_id, val))
                    i += 1
                    continue
                pos = base + steps
                vals_a[pos] = val
                ids_a[pos] = ids[i]
                steps += 1
                admitted += 1
                i += 1
                room -= 1
                if not room:
                    break
            self._steps = steps
            if not room:
                self._drive(steps)
        self.admitted += admitted
        self.rejected += n - admitted

    def _add_many_numpy(
        self, ids: Sequence[ItemId], vals: Sequence[Value]
    ) -> None:
        varr = np.asarray(vals, dtype=np.float64)
        self._admit_numpy(ids, varr, None)

    def add_many_array(self, ids, vals) -> None:
        """Array-column batch ingest: the zero-copy shard hot path.

        ``ids``/``vals`` are NumPy columns (u64-compatible ids, float
        values) — typically structured-array fields sliced straight off
        a shared-memory ring view.  Unlike :meth:`add_many`, survivor
        ids are stored with vectorized fancy-index + slice assignment:
        no per-record Python call happens anywhere on the path.
        Retained-set semantics are identical to feeding the columns
        through :meth:`add` one record at a time (same drive schedule;
        pinned by the zero-copy differential suite).  Falls back to the
        list path when NumPy is off or eviction tracking needs
        per-record bookkeeping.
        """
        n = len(ids)
        if len(vals) != n:
            raise ConfigurationError(
                f"batch length mismatch: {n} ids vs {len(vals)} vals"
            )
        if n == 0:
            return
        if not self._use_numpy or self._track_evictions:
            QMaxBase.add_many_array(self, ids, vals)
            return
        if self._obs is not None:
            self._obs_batches.inc()
            self._obs_batch_numpy.inc()
        iarr = np.asarray(ids)
        varr = np.asarray(vals, dtype=np.float64)
        self._admit_numpy(None, varr, iarr)

    def _admit_numpy(self, ids, varr, iarr) -> None:
        """Shared vectorized admission loop.

        Survivor values always land via slice assignment; ids come from
        ``iarr`` (an ndarray — fancy-index + one ``tolist`` per chunk)
        when given, else record-by-record from the Python sequence
        ``ids``.
        """
        n = varr.shape[0]
        vals_a = self._vals
        ids_a = self._ids
        g = self._g
        batch = self._batch
        array_store = self._array_store
        admitted = 0
        # One vectorized pass rejects everything at-or-below the current
        # Ψ (the common case); survivors are admitted chunk by chunk.
        cand = np.flatnonzero(varr > self._psi)
        k = 0
        m = cand.shape[0]
        if n and not m and self._obs is not None:
            # Vectorized analogue of the common-discard shortcut.
            self._obs_batch_fastpath.inc()
        while k < m:
            steps = self._steps
            room = batch - steps % batch
            if steps + room > g:
                room = g - steps
            take = m - k
            if take > room:
                take = room
            sel = cand[k : k + take]
            pos = self._insert_base + steps
            if array_store:
                # Kernel-mode float64 column: ndarray→ndarray copy, no
                # Python float objects materialize.
                vals_a[pos : pos + take] = varr[sel]
            else:
                vals_a[pos : pos + take] = varr[sel].tolist()
            if iarr is not None:
                ids_a[pos : pos + take] = iarr[sel].tolist()
            else:
                off = pos
                for j in sel.tolist():
                    ids_a[off] = ids[j]
                    off += 1
            steps += take
            k += take
            admitted += take
            self._steps = steps
            if steps % batch == 0 or steps >= g:
                old_psi = self._psi
                self._drive(steps)
                if k < m and self._psi > old_psi:
                    # Ψ tightened: re-filter the unconsumed remainder,
                    # just as sequential adds would reject them now.
                    rest = cand[k:]
                    cand = rest[varr[rest] > self._psi]
                    k = 0
                    m = cand.shape[0]
        self.admitted += admitted
        self.rejected += n - admitted

    def _drive(self, steps: int) -> None:
        """Advance maintenance by one micro-batch; flip at the boundary."""
        step_ops = 0
        maint = self._maint
        trace = self._trace
        if maint is not None:
            if trace:
                phase0 = self._maint_phase
                self._phase_mark = 0.0
                t0 = perf_counter()
                try:
                    step_ops = next(maint)
                except StopIteration:
                    self._maint = None
                t1 = perf_counter()
                # A drive that finishes the Select mid-budget continues
                # into the pivot; the generator marks the transition
                # instant, so the span splits into an honest per-phase
                # pair instead of charging everything to one phase.
                mark = self._phase_mark
                hists = self._trace_hists
                if mark:
                    hists[phase0].observe(mark - t0)
                    hists["pivot"].observe(t1 - mark)
                else:
                    hists[phase0].observe(t1 - t0)
            else:
                try:
                    step_ops = next(maint)
                except StopIteration:
                    self._maint = None
        if steps >= self._g:
            step_ops += self._finish_iteration()
        if self._obs is not None:
            self._obs_drives.inc()
        if self._instrument:
            self.maintenance_ops += step_ops
            if step_ops > self.max_step_ops:
                self.max_step_ops = step_ops

    def _kernel_drive(self) -> None:
        """One-shot maintenance: a full select+pivot in one kernel call."""
        lo, hi = self._s1_bounds()
        psi = self._kernel_obj.drive(
            self._vals, self._ids, lo, hi, self.q, self._pivot_side(),
            observe=self._observe_phase if self._trace else None,
        )
        self._psi = psi
        if self._obs is not None:
            self._obs_selects.inc()
            self._obs_pivots.inc()
            self._obs_psi.set(psi)

    def _observe_phase(self, phase: str, seconds: float) -> None:
        """Trace callback handed to one-shot kernels."""
        self._trace_hists[phase].observe(seconds)

    def _finish_iteration(self) -> int:
        """Force-finish maintenance, evict, and flip orientation."""
        ops = 0
        trace = self._trace
        if self._kernel_obj is not None:
            self._kernel_drive()
        else:
            maint = self._maint
            if maint is not None:
                if trace:
                    phase0 = self._maint_phase
                    self._phase_mark = 0.0
                    t0 = perf_counter()
                try:
                    while True:
                        ops += next(maint)
                except StopIteration:
                    pass
                self._maint = None
                if trace:
                    t1 = perf_counter()
                    mark = self._phase_mark
                    hists = self._trace_hists
                    if mark:
                        hists[phase0].observe(mark - t0)
                        hists["pivot"].observe(t1 - mark)
                    else:
                        hists[phase0].observe(t1 - t0)
        if trace:
            tb = perf_counter()
        d_lo, d_hi = self._discard_bounds()
        if self._track_evictions:
            vals, ids = self._vals, self._ids
            for i in range(d_lo, d_hi):
                if ids[i] is not _EMPTY:
                    self._evicted.append((ids[i], vals[i]))
        if self._obs is not None:
            self._obs_iterations.inc()
            ids = self._ids
            self._obs_evictions.inc(
                sum(1 for i in range(d_lo, d_hi) if ids[i] is not _EMPTY)
            )
        # The discarded slots keep stale contents; they are overwritten
        # one per admitted item as the next iteration's S2.
        self._orient_left = not self._orient_left
        self._insert_base = d_lo
        self._steps = 0
        if self._kernel_obj is None:
            self._maint = self._maintenance_gen()
            self._maint_phase = "select"
        if trace:
            # Boundary span: eviction scan + flip bookkeeping only —
            # residual select/pivot work was attributed above.
            self._trace_hists["boundary"].observe(perf_counter() - tb)
        return ops

    # ------------------------------------------------------------------
    # Queries and introspection.
    # ------------------------------------------------------------------

    def items(self) -> Iterator[Item]:
        """Live items: all of S1 plus the filled prefix of S2."""
        vals, ids = self._vals, self._ids
        if self._array_store:
            # Yield plain Python floats, not np.float64 scalars — the
            # engine's result decoding and the tests compare by value
            # but serialize by type.
            vals = vals.tolist()
        lo, hi = self._s1_bounds()
        for i in range(lo, hi):
            if ids[i] is not _EMPTY:
                yield ids[i], vals[i]
        base = self._insert_base
        for i in range(base, base + self._steps):
            yield ids[i], vals[i]

    def query(self) -> TopItems:
        """Top-q via a one-shot partition of a live-set snapshot.

        Overrides the base class's heap scan: a single
        :func:`partition_top` over a copy of the live set (which
        engages the ``np.argpartition`` fast path on large regions)
        followed by sorting just ``q`` survivors beats the O(n log q)
        heap pass.  Ties at the threshold are broken arbitrarily, as
        the contract allows.
        """
        vals: List[Value] = []
        ids: List[ItemId] = []
        for item_id, val in self.items():
            ids.append(item_id)
            vals.append(val)
        n = len(vals)
        if n <= self.q:
            top = list(zip(ids, vals))
        else:
            partition_top(vals, ids, 0, n, self.q, side="right")
            top = list(zip(ids[n - self.q :], vals[n - self.q :]))
        top.sort(key=lambda item: item[1], reverse=True)
        return top

    def take_evicted(self) -> List[Item]:
        """Drain items discarded since the last call (needs tracking)."""
        evicted, self._evicted = self._evicted, []
        return evicted

    @property
    def space_slots(self) -> int:
        """Total array slots used, ``q + 2⌊qγ/2⌋`` (Theorem 1's bound)."""
        return self._n

    @property
    def name(self) -> str:
        if self._kernel_obj is not None:
            return f"qmax(gamma={self.gamma:g},kernel={self.kernel})"
        return f"qmax(gamma={self.gamma:g})"

    def stats(self) -> dict:
        """Configuration and counter snapshot.

        Every entry reports what the structure *actually runs*, after
        kernel fallback and NumPy availability are settled — never the
        requested configuration: ``kernel`` is the resolved kernel
        (``kernel_requested`` keeps the original ask so callers can
        detect a silent downgrade), ``select`` is the Select strategy
        driving maintenance (``one-shot`` in kernel mode, where the
        step-budget Select generators never run), and ``batch_numpy``
        is True only when the vectorized batch filter is really
        engaged.
        """
        if self._kernel_obj is not None:
            select = "one-shot"
        elif self._select is stepwise_select_deterministic:
            select = "bfprt"
        elif self._select is stepwise_select:
            select = "quickselect"
        else:
            select = "sampled"
        return {
            "backend": type(self).__name__,
            "q": self.q,
            "size": sum(1 for _ in self.items()),
            "gamma": self.gamma,
            "space_slots": self._n,
            "kernel": self.kernel,
            "kernel_requested": self._kernel_requested,
            "select": select,
            "step_batch": self._batch,
            "batch_numpy": self._use_numpy,
            "array_store": self._array_store,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "psi": self._psi,
        }

    def check_invariants(self) -> None:
        """Verify Ψ is a valid lower bound and regions are consistent."""
        live = list(self.items())
        if len(live) > self._n:
            raise InvariantError("live set exceeds the space bound")
        if self._psi != float("-inf"):
            at_least_psi = sum(1 for _, v in live if v >= self._psi)
            if at_least_psi < min(self.q, len(live)):
                raise InvariantError(
                    f"admission threshold too high: only {at_least_psi} live "
                    f"items >= psi with q={self.q}"
                )
        if not 0 <= self._steps <= self._g:
            raise InvariantError(f"steps counter out of range: {self._steps}")
        s2_base = self.q + self._g if self._orient_left else 0
        if self._insert_base != s2_base:
            raise InvariantError("insert base out of sync with orientation")
