"""Ablation: deamortized vs amortized vs NumPy-vectorised q-MAX.

DESIGN.md calls out the deamortization as the paper's key design move:
it converts a bursty O(q) maintenance into a per-update constant.  This
ablation quantifies what each variant costs in CPython:

* ``QMax`` (Algorithm 1, deamortized): constant worst case, generator
  dispatch overhead per micro-batch.
* ``AmortizedQMax``: identical amortized cost, O(q) bursts, lowest
  constants in CPython.
* ``QMax(kernel="numpy")`` fed NumPy columns through
  ``add_many_array``: the same algorithmic idea with C-speed filtering
  and selection.

Also reports the realized worst-case per-update maintenance ops of the
deamortized variant (the bound behind Theorem 1) next to the amortized
variant's burst size.  Each MPPS metric carries its measurement's
confidence-interval half-width.
"""

from __future__ import annotations

import numpy as np

from bench_common import emit_table
from conftest import bench_stream, measure_backend, repeats, scaled

from repro.bench.runner import measure_callable
from repro.core.amortized import AmortizedQMax
from repro.core.qmax import QMax

GAMMA = 0.25


def test_ablation_deamortization(benchmark):
    stream = list(bench_stream())
    q = scaled(2_000, minimum=256)

    rows = []
    deamortized = measure_backend(
        "deamortized", lambda: QMax(q, GAMMA), stream
    )
    amortized = measure_backend(
        "amortized", lambda: AmortizedQMax(q, GAMMA), stream
    )
    ids = np.arange(len(stream))
    vals = np.array([v for _, v in stream])

    def batched_run():
        s = QMax(q, GAMMA, kernel="numpy")
        for start in range(0, len(stream), 4096):
            s.add_many_array(ids[start:start + 4096],
                             vals[start:start + 4096])
        return len(stream)

    vector = measure_callable("numpy-batched", lambda: batched_run,
                              repeats=repeats())
    metrics = []
    for label, m in (
        ("qmax (deamortized)", deamortized),
        ("qmax (amortized)", amortized),
        ("qmax (numpy, 4096-batches)", vector),
    ):
        mean, half = m.mpps_ci
        rows.append([label, mean])
        metrics.append({"name": label, "value": mean, "unit": "mpps",
                        "ci_halfwidth": half})
    emit_table(
        f"Ablation: q-MAX maintenance strategies (q={q}, gamma={GAMMA})",
        ["variant", "MPPS"],
        rows,
        config={"q": q, "gamma": GAMMA, "items": len(stream)},
        metrics=metrics,
    )

    # Worst-case maintenance burst comparison.
    inst = QMax(q, GAMMA, instrument=True)
    for item_id, val in stream:
        inst.add(item_id, val)
    burst_rows = [
        ["deamortized max ops per update", inst.max_step_ops],
        ["amortized burst (one compaction)", int(q * (1 + GAMMA)) * 3],
    ]
    emit_table(
        "Ablation: worst-case maintenance burst (ops)",
        ["quantity", "ops"],
        burst_rows,
        benchmark="abl_deamortization/burst",
        value_columns={"ops": "ops"},
        config={"q": q, "gamma": GAMMA},
    )

    # The deamortized worst case must be far below one full compaction.
    assert inst.max_step_ops < q
    # Vectorised ingestion dominates everything in CPython.
    assert vector.mpps > amortized.mpps

    benchmark(batched_run)
