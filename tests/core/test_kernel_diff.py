"""Differential fuzz: one-shot kernels must be exactly interchangeable.

The one-shot kernels (``StepwiseKernel`` instance, ``numpy``) run the
same drive schedule — maintenance once per iteration boundary — so
they must be *mutually exact*: after every drive the retained
value-multiset, the admission threshold Ψ, and the admitted/rejected
counters agree bit-for-bit, because the drive's outcome is
rank-determined (which value-copies sit where may differ, which values
are retained may not).  The stepwise instance is the
semantics anchor (it runs the very generators the deamortized schedule
steps through), so agreement with it proves the fast kernel drop-in.

The suite runs on whatever stack the host has: the numpy kernel
exercises its ndarray path, and ``use_numpy=False`` covers its list
path.

Streams deliberately include the historical trouble spots: heavy
value ties (threshold-straddling [=Ψ] blocks), duplicate ids,
u63/u64-boundary ids (2**63 ± 1, 2**64 - 1), q ≈ n (degenerate g),
and q = 1.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro._compat import HAVE_NUMPY
from repro.core.kernels import StepwiseKernel
from repro.core.qmax import QMax

from tests.conftest import top_values, value_multiset

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

#: Ids at the unsigned-64 boundaries the engine's token encoding must
#: carry through unchanged.
EDGE_IDS = (0, 1, 2**31, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1)


def _stream(seed: int, n: int, tie_bias: float) -> list:
    """(id, value) pairs with ties, duplicate ids, and edge-case ids."""
    r = random.Random(seed)
    out = []
    for i in range(n):
        if r.random() < tie_bias:
            val = float(r.randint(0, 6))  # heavy ties incl. at Ψ
        else:
            val = r.random() * 6
        if r.random() < 0.05:
            item_id = r.choice(EDGE_IDS)
        elif r.random() < 0.1:
            item_id = r.randint(0, 50)  # duplicate ids
        else:
            item_id = i + 100
        out.append((item_id, val))
    return out


def _kernel_specs():
    specs = [("stepwise", lambda: StepwiseKernel(), {})]
    if HAVE_NUMPY:
        specs.append(("numpy", lambda: "numpy", {}))
        specs.append(("numpy-list", lambda: "numpy", {"use_numpy": False}))
    return specs


def _fingerprint(s: QMax):
    return (
        Counter(v for _, v in s.items()),
        s._psi,
        s.admitted,
        s.rejected,
    )


GEOMETRIES = [
    pytest.param(1, 0.5, id="q1"),
    pytest.param(5, 2.0, id="q5-wide"),
    pytest.param(32, 0.25, id="q32"),
    pytest.param(100, 1.0, id="q100-g1"),
    pytest.param(100, 0.02, id="q100-degenerate-g"),
]


@pytest.mark.parametrize("q, gamma", GEOMETRIES)
@pytest.mark.parametrize("tie_bias", [0.0, 0.5, 0.95])
def test_one_shot_kernels_mutually_exact(q, gamma, tie_bias):
    stream = _stream(seed=q * 1000 + int(tie_bias * 100), n=q * 25 + 60,
                     tie_bias=tie_bias)
    specs = _kernel_specs()
    structs = [
        (label, QMax(q, gamma, kernel=make(), **kw))
        for label, make, kw in specs
    ]
    # Drive item by item and compare after every iteration boundary —
    # all structures share the boundary schedule, so checking whenever
    # the reference flips checks them all at the same stream position.
    ref_label, ref = structs[0]
    boundary = ref._g
    for idx, (item_id, val) in enumerate(stream):
        for _, s in structs:
            s.add(item_id, val)
        if ref._steps == 0 or idx == len(stream) - 1:
            want = _fingerprint(ref)
            for label, s in structs[1:]:
                assert _fingerprint(s) == want, (
                    f"{label} diverged from {ref_label} at item {idx} "
                    f"(q={q}, gamma={gamma}, boundary={boundary})"
                )
    values = [v for _, v in stream]
    for label, s in structs:
        s.check_invariants()
        assert value_multiset(s.query()) == top_values(values, q), label


@pytest.mark.parametrize("q, gamma", [(1, 1.0), (16, 0.5), (64, 0.1)])
def test_q_close_to_stream_length(q, gamma):
    # Fewer items than q, exactly q, and q+1: the boundary may never
    # fire; query must still be exact and kernels must agree.
    for n in (max(1, q - 1), q, q + 1, q + 7):
        stream = _stream(seed=n, n=n, tie_bias=0.6)
        values = [v for _, v in stream]
        fps = {}
        for label, make, kw in _kernel_specs():
            s = QMax(q, gamma, kernel=make(), **kw)
            for item_id, val in stream:
                s.add(item_id, val)
            s.check_invariants()
            assert value_multiset(s.query()) == top_values(values, q), (
                label, n,
            )
            fps[label] = _fingerprint(s)
        want = fps.pop("stepwise")
        for label, fp in fps.items():
            assert fp == want, (label, n)


@needs_numpy
def test_batch_paths_match_scalar_path():
    # add / add_many / add_many_array must be indistinguishable in
    # kernel mode (same boundary-only drive schedule).
    import numpy as np

    stream = _stream(seed=99, n=6000, tie_bias=0.4)
    ids = [i for i, _ in stream]
    vals = [v for _, v in stream]
    for spec in ("numpy",):
        scalar = QMax(100, 0.5, kernel=spec)
        for item_id, val in stream:
            scalar.add(item_id, val)
        batched = QMax(100, 0.5, kernel=spec)
        batched.add_many(ids, vals)
        assert _fingerprint(batched) == _fingerprint(scalar), spec
        arr = QMax(100, 0.5, kernel=spec)
        arr.add_many_array(
            np.array(ids, dtype=np.uint64), np.array(vals)
        )
        assert _fingerprint(arr) == _fingerprint(scalar), spec
        # ids decode back to Python ints, u64 edges intact
        got_ids = {i for i, _ in arr.items()}
        assert all(type(i) is int for i in got_ids)
        for edge in EDGE_IDS:
            if edge in {i for i, _ in scalar.items()}:
                assert edge in got_ids


def test_eviction_conservation_in_kernel_mode():
    # Every stream item ends either live or evicted — nothing vanishes.
    stream = _stream(seed=5, n=2500, tie_bias=0.5)
    for label, make, kw in _kernel_specs():
        s = QMax(32, 0.5, kernel=make(), track_evictions=True, **kw)
        for item_id, val in stream:
            s.add(item_id, val)
        drained = s.take_evicted()
        live = list(s.items())
        assert Counter(v for _, v in live) + Counter(
            v for _, v in drained
        ) == Counter(v for _, v in stream), label


def test_one_shot_top_q_matches_deamortized():
    # Ψ trajectories legitimately differ mid-iteration between the
    # one-shot and deamortized schedules, but the answer may not.
    for seed in range(5):
        stream = _stream(seed=seed, n=3000, tie_bias=0.5)
        values = [v for _, v in stream]
        ref = QMax(64, 0.5)
        one = QMax(64, 0.5, kernel=StepwiseKernel())
        for item_id, val in stream:
            ref.add(item_id, val)
            one.add(item_id, val)
        want = top_values(values, 64)
        assert value_multiset(ref.query()) == want
        assert value_multiset(one.query()) == want
        # One-shot Ψ is a valid lower bound on the q-th largest.
        assert one._psi <= want[-1]


def test_fallback_stats_stay_truthful(monkeypatch):
    # Hide NumPy from the kernel lookup: QMax(kernel="numpy") must
    # still work and must report what actually ran.
    from repro.core import kernels

    monkeypatch.setattr(kernels, "HAVE_NUMPY", False)
    s = QMax(64, kernel="numpy")
    stream = _stream(seed=11, n=1500, tie_bias=0.3)
    for item_id, val in stream:
        s.add(item_id, val)
    st = s.stats()
    assert st["kernel_requested"] == "numpy"
    assert st["kernel"] == "stepwise"
    assert value_multiset(s.query()) == top_values(
        [v for _, v in stream], 64
    )
