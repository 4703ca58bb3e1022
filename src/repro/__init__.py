"""repro — a reproduction of "q-MAX: A Unified Scheme for Improving
Network Measurement Throughput" (IMC 2019).

The package is organised like the paper:

* :mod:`repro.core` — the q-MAX algorithms (interval, sliding-window,
  exponential decay) and the sorting reduction.
* :mod:`repro.baselines` — Heap / SkipList / sorted-array comparators.
* :mod:`repro.apps` — the measurement applications whose update path
  q-MAX accelerates (priority sampling, PBA, count distinct, bottom-k,
  UnivMon, DBM, LRFU).
* :mod:`repro.netwide` — network-wide heavy hitters over a simulated
  multi-NMP topology.
* :mod:`repro.traffic` — synthetic trace generators and pcap IO.
* :mod:`repro.switch` — a simulated Open-vSwitch-style datapath with a
  pluggable monitoring hook (the OVS integration substitute).
* :mod:`repro.bench` — throughput measurement and reporting helpers.

Quickstart::

    from repro import QMax

    qmax = QMax(q=100, gamma=0.25)
    for i, value in enumerate(stream_of_numbers):
        qmax.add(i, value)
    top = qmax.query()           # 100 largest (id, value) pairs
"""

from repro.core import (
    AmortizedQMax,
    BufferedSlidingQMax,
    ExponentialDecayQMax,
    HierarchicalSlidingQMax,
    MergingQMax,
    QMax,
    QMaxBase,
    QMin,
    SlidingQMax,
    TimeHierarchicalSlidingQMax,
    TimeSlidingQMax,
    sort_via_qmax,
)
from repro.baselines import HeapQMax, SkipListQMax, SortedListQMax

__version__ = "1.0.0"

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
    "HeapQMax",
    "SkipListQMax",
    "SortedListQMax",
    "__version__",
]
