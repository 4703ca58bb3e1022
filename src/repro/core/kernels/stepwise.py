"""The reference kernel: the resumable generators, run in one shot.

This is the semantics anchor of the kernel subsystem: it executes the
exact same quickselect + Dutch-national-flag code the deamortized
schedule steps through, only without yielding between operation
budgets.  The differential fuzz suite pins the ``numpy`` kernel
against this one — identical retained value-multiset and Ψ after every
drive — so the fast kernel is proven drop-in.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.select import (
    run_to_completion,
    stepwise_partition_top,
    stepwise_select,
)

#: Large enough that a single resumption finishes any drive; the ops
#: accounting is irrelevant in one-shot mode.
_ONE_SHOT_BUDGET = 1 << 60


class StepwiseKernel:
    """One-shot drive through the deamortized generators (reference)."""

    name = "stepwise"
    #: The generators index element-by-element in Python; a float64
    #: ndarray store would only slow them down.
    array_storage = False

    def drive(self, vals, ids, lo, hi, q, side, observe=None):
        """Select the q-th largest of ``vals[lo:hi)`` and partition the
        top ``q`` items to ``side``; returns the threshold.

        ``observe(phase, seconds)`` — when given — receives one
        ``"select"`` and one ``"pivot"`` span per drive.
        """
        rank = (hi - lo) - q
        if observe is not None:
            t0 = perf_counter()
        threshold = run_to_completion(
            stepwise_select(vals, ids, lo, hi, rank, _ONE_SHOT_BUDGET)
        )
        if observe is not None:
            t1 = perf_counter()
            observe("select", t1 - t0)
        run_to_completion(
            stepwise_partition_top(
                vals, ids, lo, hi, threshold, side, _ONE_SHOT_BUDGET
            )
        )
        if observe is not None:
            observe("pivot", perf_counter() - t1)
        return threshold
