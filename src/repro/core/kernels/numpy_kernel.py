"""Vectorized maintenance kernel: one-shot ``np.argpartition`` drives.

One introselect over the region's float64 column yields the threshold
*and* a permutation that realizes the partition; applying it is two
fancy-index copies (values, ids).  On the ndarray store QMax uses in
kernel mode nothing touches a per-record Python object — the drive is
a handful of C calls regardless of region size.

List storage (``QMax(use_numpy=False)`` and foreign callers) goes
through :func:`repro.core.select.argpartition_top`, the same routine as
:func:`repro.core.select.partition_top`'s NumPy path: comparisons run
in C over a float64 shadow array and the original value/id *objects*
are permuted into place afterwards, so integer values stay integers.
"""

from __future__ import annotations

from time import perf_counter

from repro._compat import HAVE_NUMPY, np
from repro.core.select import argpartition_top
from repro.errors import ConfigurationError


class NumpyKernel:
    """One-shot argpartition select + fancy-index partition."""

    name = "numpy"
    array_storage = True

    def __init__(self) -> None:
        if not HAVE_NUMPY:
            raise ConfigurationError(
                "the numpy kernel needs numpy (pip install .[fast])"
            )

    def drive(self, vals, ids, lo, hi, q, side, observe=None):
        n = hi - lo
        if not 1 <= q <= n:
            raise ConfigurationError(
                f"q={q} out of range for region [{lo}, {hi})"
            )
        if not isinstance(vals, np.ndarray):
            return argpartition_top(vals, ids, lo, hi, q, side, observe)
        kth = n - q
        if observe is not None:
            t0 = perf_counter()
        region = vals[lo:hi]
        order = np.argpartition(region, kth)
        threshold = float(region[order[kth]])
        if observe is not None:
            t1 = perf_counter()
            observe("select", t1 - t0)
        # Ascending argpartition leaves the top q (threshold included)
        # in the last q slots; mirror for side="left".
        if side == "left":
            order = order[::-1]
        vals[lo:hi] = region[order]
        ids[lo:hi] = ids[lo:hi][order]
        if observe is not None:
            observe("pivot", perf_counter() - t1)
        return threshold
