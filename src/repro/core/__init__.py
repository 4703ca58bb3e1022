"""Core q-MAX algorithms — the paper's primary contribution.

Exports the interval algorithm (Algorithm 1) and its amortized
variant, the sliding-window algorithms (Algorithms 3 and 4,
Theorem 7), the exponential-decay reduction (§5), the duplicate-merging
variant used by LRFU and PBA, and the sorting reduction (Algorithm 2).
"""

from repro.core.interface import QMaxBase
from repro.core.qmax import QMax
from repro.core.amortized import AmortizedQMax
from repro.core.merging import MergingQMax
from repro.core.qmin import QMin
from repro.core.sliding import SlidingQMax
from repro.core.time_sliding import TimeSlidingQMax
from repro.core.time_hierarchical import TimeHierarchicalSlidingQMax
from repro.core.hierarchical import BufferedSlidingQMax, HierarchicalSlidingQMax
from repro.core.exponential_decay import ExponentialDecayQMax
from repro.core.reduction import sort_via_qmax

__all__ = [
    "QMaxBase",
    "QMax",
    "AmortizedQMax",
    "MergingQMax",
    "QMin",
    "SlidingQMax",
    "TimeSlidingQMax",
    "TimeHierarchicalSlidingQMax",
    "HierarchicalSlidingQMax",
    "BufferedSlidingQMax",
    "ExponentialDecayQMax",
    "sort_via_qmax",
]
