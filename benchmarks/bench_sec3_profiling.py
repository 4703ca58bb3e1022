"""§3: quantifying the potential speedup — fraction of application time
spent updating the top-q data structure.

Paper numbers (150M trace): Priority Sampling spends 50-58% of its time
in the structure at q=1e4, network-wide HH 22-28%, PBA 18-19%, growing
to 96% at q=1e7.  We measure the same fraction by timing each
application twice: once complete, once with the reservoir update
replaced by a no-op (everything else — hashing, priority computation —
identical).
"""

from __future__ import annotations

import time

from bench_common import emit_table
from conftest import repeats, scaled

from repro.apps.pba import PriorityBasedAggregation
from repro.apps.priority_sampling import PrioritySampler
from repro.bench.workloads import trace_streams
from repro.netwide.nmp import MeasurementPoint
from repro.traffic.packet import Packet


class _NoopReservoir:
    """Absorbs add/set_value calls without any work."""

    def add(self, item_id, val):
        return None

    def set_value(self, key, val):
        return None

    def take_evicted_keys(self):
        return []


def _time(fn, stream) -> float:
    best = float("inf")
    for _ in range(repeats()):
        start = time.perf_counter()
        fn(stream)
        best = min(best, time.perf_counter() - start)
    return best


def _ps_run(q, backend, noop):
    def run(stream):
        ps = PrioritySampler(q, backend=backend, seed=1)
        if noop:
            ps._reservoir = _NoopReservoir()
        update = ps.update
        for i, (key, w) in enumerate(stream):
            update(i, w)  # distinct keys

    return run


def _pba_run(q, backend, noop):
    def run(stream):
        pba = PriorityBasedAggregation(q, backend=backend, seed=1)
        if noop:
            pba._reservoir = _NoopReservoir()
        update = pba.update
        for key, w in stream:
            update(key, w)

    return run


def _nwhh_run(q, backend, noop):
    def run(stream):
        nmp = MeasurementPoint(q, backend=backend, seed=1)
        if noop:
            nmp._reservoir = _NoopReservoir()
        observe = nmp.observe
        for i, (key, w) in enumerate(stream):
            observe(Packet(key, 0, 0, 0, 6, w, packet_id=i))

    return run


def test_sec3_time_in_data_structure(benchmark):
    n = scaled(60_000, minimum=10_000)
    stream = trace_streams(n)["caida16"]
    q = scaled(1_000, minimum=100)

    rows = []
    fractions = {}
    for app, make_run in (
        ("priority-sampling", _ps_run),
        ("network-wide-hh", _nwhh_run),
        ("pba", _pba_run),
    ):
        for backend in ("heap", "skiplist"):
            if app == "pba" and backend == "skiplist":
                backend = "skiplist"  # updatable flavour
            full = _time(make_run(q, backend, noop=False), stream)
            without = _time(make_run(q, backend, noop=True), stream)
            frac = max(0.0, 1.0 - without / full)
            fractions[(app, backend)] = frac
            rows.append([app, backend, f"{frac:.0%}"])
    emit_table(
        "Section 3: fraction of app time spent in the top-q structure",
        ["application", "structure", "time in structure"],
        rows,
        config={"q": q, "items": n, "trace": "caida16"},
        metrics=[
            {"name": f"{app}/{backend}", "value": frac, "unit": "ratio"}
            for (app, backend), frac in fractions.items()
        ],
    )

    # Shape: the structure update is a substantial fraction for at
    # least the sampling applications (paper: 18%-58% at q=1e4).
    assert fractions[("priority-sampling", "heap")] > 0.10
    assert fractions[("priority-sampling", "skiplist")] > 0.15

    benchmark(lambda: _ps_run(q, "heap", noop=False)(stream))


def test_sec3_qmax_phase_breakdown(benchmark):
    """Where q-MAX itself spends its time, from the live tracing spans.

    The §3 argument says the structure update dominates; ``repro.obs``
    lets us go one level deeper with ``trace=True``: the maintenance
    histograms split structure time into Select, pivot partition, and
    iteration-boundary work, and whatever remains of wall time is the
    per-item admission filter — the O(1) path the paper's amortization
    argument makes cheap.  The breakdown runs once per available
    maintenance kernel: the deamortized ``stepwise`` schedule and the
    one-shot ``numpy`` kernel, whose select/pivot spans come from the
    kernel's own phase callbacks, so the attribution stays honest in
    every mode (a drive that finishes the Select and runs into the
    pivot splits its span at the transition instead of charging
    everything to one phase).
    """
    from repro._compat import HAVE_NUMPY
    from repro.core.qmax import QMax
    from repro.obs import MetricsRegistry

    n = scaled(120_000, minimum=20_000)
    stream = trace_streams(n)["caida16"]
    ids = list(range(len(stream)))
    vals = [float(w) for _key, w in stream]
    q = scaled(1_000, minimum=100)

    kernels = ["stepwise", "numpy"] if HAVE_NUMPY else ["stepwise"]

    def run(kernel):
        reg = MetricsRegistry()
        kw = {} if kernel == "stepwise" else {"kernel": kernel}
        qm = QMax(q, 0.25, metrics=reg, trace=True, **kw)
        start = time.perf_counter()
        qm.add_many(ids, vals)
        total = time.perf_counter() - start
        return reg, total

    rows = []
    metrics = []
    per_kernel = {}
    for kernel in kernels:
        best_total = float("inf")
        best_reg = None
        for _ in range(repeats()):
            reg, total = run(kernel)
            if total < best_total:
                best_total, best_reg = total, reg

        phase_seconds = {}
        for sample in best_reg.snapshot()["metrics"]:
            if sample["name"] == "repro_qmax_maintenance_seconds":
                assert sample["labels"]["kernel"] == kernel
                phase_seconds[sample["labels"]["phase"]] = sample["sum"]
        maintenance = sum(phase_seconds.values())
        admission = max(0.0, best_total - maintenance)
        per_kernel[kernel] = (phase_seconds, maintenance, best_total)

        for phase, sec in sorted(phase_seconds.items()):
            rows.append([
                kernel, phase, f"{sec * 1e3:.2f}",
                f"{sec / best_total:.0%}",
            ])
            metrics.append({
                "name": f"phase/{kernel}/{phase}",
                "value": sec / best_total, "unit": "ratio",
            })
        rows.append([
            kernel, "admission (rest)", f"{admission * 1e3:.2f}",
            f"{admission / best_total:.0%}",
        ])
        metrics.append({
            "name": f"phase/{kernel}/admission",
            "value": admission / best_total, "unit": "ratio",
        })

    emit_table(
        "Section 3: q-MAX time breakdown from repro.obs spans, by kernel",
        ["kernel", "phase", "ms", "fraction of wall time"],
        rows,
        benchmark="sec3_qmax_phases",
        config={"q": q, "items": n, "trace": "caida16",
                "kernels": kernels},
        metrics=metrics,
    )

    # Shape: every traced phase was actually exercised in every mode,
    # and the accounting is sane (maintenance fits inside wall time).
    for kernel, (phase_seconds, maintenance, total) in per_kernel.items():
        assert set(phase_seconds) == {"select", "pivot", "boundary"}, kernel
        assert maintenance <= total, kernel
        for phase, sec in phase_seconds.items():
            assert sec > 0.0, (kernel, phase)

    benchmark(lambda: run(kernels[-1])[1])
