"""Self-test of the benchmark: every workload at a tiny scale, the
oracle against corrupted answers, and the nesting of traced spans.

    python3 -m pytest perfbench/tests -q

The workload runs start real daemons on loopback ports; the whole file
takes about two minutes on a 2-CPU host.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import spans as sp  # noqa: E402
from perfbench import sut  # noqa: E402
from perfbench.oracle import Reference, check  # noqa: E402
from perfbench.bench import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Q, WORKLOADS, Rec, ZipfFlowSource,
)

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=200,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_once_with_its_unit(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "7",
                 "--seconds", "2", "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = PER_LAYER if trace else END_TO_END
    assert {m: row["unit"] for m, row in result["metrics"].items()} == units
    for name, unit in units.items():
        printed = [ln for ln in lines[:-1]
                   if ln.startswith(f"[{workload}] {name} ")]
        assert len(printed) == 1, name
        assert printed[0].endswith(f" {unit}")
    assert any(f"[{workload}] oracle: pass" == ln for ln in lines)
    info = json.loads(next(ln for ln in lines if "] run: " in ln)
                      .split("] run: ", 1)[1])
    assert info["network"] == "loopback"
    assert {"kernel", "numpy", "native", "nproc", "python"} <= set(info)


def test_same_seed_same_bytes_and_fast_records_encode_like_flowrecord():
    from repro.traffic.netflow import FlowRecord, encode_packets

    a = ZipfFlowSource(3, 2).block(500)
    b = ZipfFlowSource(3, 2).block(500)
    c = ZipfFlowSource(4, 2).block(500)
    assert a.payloads == b.payloads and a.ids == b.ids
    assert a.payloads != c.payloads
    rec = Rec(167772161, 3232235521, 40000, 443, 6, 12, 9000, 0, 0)
    assert encode_packets([rec]) == encode_packets(
        [FlowRecord(**rec._asdict())])


def test_zipf_records_match_per_flow_sums_of_generate_packets():
    """The closed-form interval draws the same per-flow sums as
    aggregating ``generate_packets`` output of the profile."""
    from collections import Counter

    import numpy as np
    from repro.traffic.synthetic import CAIDA16, generate_packets

    n_packets = CAIDA16.n_flows  # generate_packets caps flows at this
    octets = Counter()
    for p in generate_packets(CAIDA16, n_packets, seed=5):
        octets[p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto] += p.size
    summed = np.sort(np.array(list(octets.values()), dtype=np.float64))
    _flow, packets, drawn = ZipfFlowSource(
        5, 1, interval_packets=n_packets).interval()
    drawn = np.sort(drawn.astype(np.float64))
    assert packets.sum() == n_packets and packets.min() >= 1
    assert abs(len(drawn) / len(summed) - 1) < 0.02
    assert abs(drawn.sum() / summed.sum() - 1) < 0.01
    for q in (0.5, 0.9, 0.99):
        a, b = np.quantile(summed, q), np.quantile(drawn, q)
        assert abs(b / a - 1) < 0.1, (q, a, b)
    top_ratio = drawn[-10:] / summed[-10:]
    assert np.all(np.abs(top_ratio - 1) < 0.1), top_ratio


def test_oracle_rejects_corrupted_answers():
    from repro.parallel.merge import merge_top_items

    q = 50
    for daemons in (1, 2):
        block = ZipfFlowSource(11, daemons).block(5000)
        ref = Reference(q, daemons)
        ref.feed(block.ids, block.vals)
        expected, hi, lo = ref.expected(q)
        assert check(expected, expected, q, hi, lo) == []

        # An independent path to the same answer: the exact top-q of
        # each daemon's records, merged as the program merges.
        parts = []
        for ids, vals in zip(block.ids, block.vals):
            top = sorted(zip(ids, vals), key=lambda r: -r[1])[:q]
            parts.append(merge_top_items([top], q))
        exact = merge_top_items(parts, q, merge=max)
        assert check(exact, expected, q, hi, lo) == []

        wrong_value = list(expected)
        wrong_value[0] = (wrong_value[0][0], wrong_value[0][1] + 1.0)
        dropped = expected[1:]
        foreign = [(999, expected[0][1] + 1.0)] + list(expected[:-1])
        unsorted = list(reversed(expected))
        for bad in (wrong_value, dropped, foreign, unsorted):
            assert check(bad, expected, q, hi, lo), bad[:3]


def test_recorder_spans_nest_and_errors_are_detected():
    rec = sp.Recorder()
    inner = rec.wrap("inner", lambda x: [x] * 3,
                     count=lambda args, result: len(result))
    outer = rec.wrap("outer", lambda x: inner(x) + inner(x))

    class Handler:
        def handle(self, op, request):
            if op == "slow":
                async def work():
                    await asyncio.sleep(0.001)
                    return outer(1)
                return work()
            return outer(2)

    Handler.handle = rec.wrap_handler("rpc.", Handler.handle, ["slow"])

    async def main():
        h = Handler()
        await asyncio.gather(h.handle("slow", {}), h.handle("slow", {}))
        h.handle("fast", {})

    asyncio.run(main())
    names = [s[1] for s in rec.spans]
    assert names.count("rpc.slow") == 2 and names.count("rpc.other") == 1
    assert sp.nesting_errors(rec.spans) == []
    by_id = {s[0]: s for s in rec.spans}
    for sid, name, _start, _end, parent, n in rec.spans:
        if name == "inner":
            assert by_id[parent][1] == "outer" and n == 3
        if name == "outer":
            assert by_id[parent][1].startswith("rpc.")
    own = sp.self_times(rec.spans)
    assert all(t >= 0 for t in own.values())

    broken = [list(s) for s in rec.spans]
    child = next(s for s in broken if s[1] == "inner")
    child[3] = by_id[child[4]][3] + 1.0
    assert sp.nesting_errors(broken)


def test_traced_daemon_spans_nest(tmp_path):
    from perfbench.loadgen import Generator

    w = WORKLOADS["netflow-zipf"]
    spawned = []
    cpus = os.sched_getaffinity(0)
    system = sut.start(ROOT, str(tmp_path), "t", Q, 1, True,
                       deadline=time.monotonic() + 60,
                       spawned=spawned, plan=sut.cpu_plan(1, cpus))
    try:
        gen = Generator(system, w, ZipfFlowSource(1, 1), Reference(Q, 1),
                        deadline=time.monotonic() + 60)

        async def drive():
            await gen.open(1)
            rates, windows = [], []
            await gen.saturate(0.2, rates, windows)
            await gen.close()

        asyncio.run(drive())
        (path,) = system.stop()
    finally:
        for proc in spawned:
            proc.kill()
    spans = sp.load(path)
    assert sp.nesting_errors(spans) == []
    names = {s[1] for s in spans}
    assert {"netflow.decode", "ingest.items", "ingest.flush",
            "qmax.add_many", "rpc.stats"} <= names
    by_id = {s[0]: s for s in spans}
    for _sid, name, _start, _end, parent, _n in spans:
        if name == "qmax.add_many":
            assert by_id[parent][1] == "ingest.flush"
        if name == "netflow.decode":
            assert parent is None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "netflow-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
