"""Tests for Algorithm 1 (deamortized QMax) and the amortized variants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._compat import HAVE_NUMPY
from repro.core.amortized import AmortizedQMax
from repro.core.qmax import QMax
from repro.errors import ConfigurationError

from tests.conftest import top_values, value_multiset

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")

ALL_VARIANTS = [
    pytest.param(lambda q, g: QMax(q, g), id="deamortized"),
    pytest.param(lambda q, g: AmortizedQMax(q, g), id="amortized"),
    pytest.param(lambda q, g: QMax(q, g, kernel="numpy"), id="numpy",
                 marks=needs_numpy),
]


@pytest.mark.parametrize("factory", ALL_VARIANTS)
class TestQMaxCorrectness:
    @pytest.mark.parametrize("gamma", [0.025, 0.05, 0.25, 1.0, 2.0])
    def test_random_stream(self, factory, gamma, rng):
        q = 64
        qmax = factory(q, gamma)
        values = [rng.random() for _ in range(5000)]
        for i, v in enumerate(values):
            qmax.add(i, v)
        assert value_multiset(qmax.query()) == top_values(values, q)

    def test_ascending_stream(self, factory, rng):
        # Worst case for the admission filter: every item is admitted.
        q = 32
        qmax = factory(q, 0.25)
        for i in range(2000):
            qmax.add(i, float(i))
        assert value_multiset(qmax.query()) == [
            float(v) for v in range(1999, 1967, -1)
        ]

    def test_descending_stream(self, factory, rng):
        # Best case: after q items, everything is filtered.
        q = 32
        qmax = factory(q, 0.25)
        for i in range(2000):
            qmax.add(i, float(-i))
        assert value_multiset(qmax.query()) == [
            float(-v) for v in range(32)
        ]

    def test_fewer_than_q_items(self, factory, rng):
        qmax = factory(100, 0.25)
        for i in range(7):
            qmax.add(i, float(i))
        result = qmax.query()
        assert value_multiset(result) == [6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0]

    def test_heavy_duplicates(self, factory, rng):
        q = 16
        qmax = factory(q, 0.5)
        values = [float(rng.randint(0, 3)) for _ in range(3000)]
        for i, v in enumerate(values):
            qmax.add(i, v)
        assert value_multiset(qmax.query()) == top_values(values, q)

    def test_q_equals_one(self, factory, rng):
        qmax = factory(1, 0.5)
        values = [rng.random() for _ in range(500)]
        for i, v in enumerate(values):
            qmax.add(i, v)
        assert value_multiset(qmax.query()) == [max(values)]

    def test_reset_forgets_everything(self, factory, rng):
        qmax = factory(8, 0.25)
        for i in range(100):
            qmax.add(i, float(i))
        qmax.reset()
        assert qmax.query() == []
        for i in range(20):
            qmax.add(i, float(-i))
        assert value_multiset(qmax.query()) == [float(-v) for v in range(8)]

    def test_ids_correspond_to_values(self, factory, rng):
        # With distinct values, ids of the top q must be exact.
        q = 20
        qmax = factory(q, 0.25)
        values = rng.sample(range(100000), 2000)
        for i, v in enumerate(values):
            qmax.add(f"item-{i}", float(v))
        expected_ids = {
            f"item-{i}"
            for i, _ in sorted(
                enumerate(values), key=lambda p: p[1], reverse=True
            )[:q]
        }
        assert {i for i, _ in qmax.query()} == expected_ids

    def test_rejects_bad_parameters(self, factory, rng):
        with pytest.raises(ConfigurationError):
            factory(0, 0.25)
        with pytest.raises(ConfigurationError):
            factory(10, 0.0)
        with pytest.raises(ConfigurationError):
            factory(10, -1.0)


class TestDeamortizedBehaviour:
    """Properties specific to Algorithm 1's deamortized schedule."""

    def test_space_bound_matches_theorem_1(self):
        for q, gamma in [(100, 0.1), (1000, 0.25), (64, 2.0)]:
            qmax = QMax(q, gamma)
            # Theorem 1: ⌈q(1+γ)⌉ space; our layout uses q + 2⌊qγ/2⌋
            # which never exceeds it (up to the g >= 1 minimum).
            assert qmax.space_slots <= max(q + 2, int(q * (1 + gamma)) + 2)

    def test_step_ops_are_bounded(self, rng):
        """The realized per-add maintenance work is O(1/γ): the max
        per-step ops must be far below q (the amortized burst size)."""
        q = 2048
        qmax = QMax(q, gamma=0.5, instrument=True)
        for i in range(50000):
            qmax.add(i, rng.random())
        assert 0 < qmax.max_step_ops < q // 4, qmax.max_step_ops
        # And on average, well under the select+pivot total per item.
        assert qmax.maintenance_ops / max(1, qmax.admitted) < 64

    def test_step_batch_one_matches_schedule(self, rng):
        """step_batch=1 (the paper's exact schedule) stays correct and
        has the tightest per-step bound."""
        q = 512
        qmax = QMax(q, gamma=0.5, step_batch=1, instrument=True)
        values = [rng.random() for _ in range(20000)]
        for i, v in enumerate(values):
            qmax.add(i, v)
        assert value_multiset(qmax.query()) == top_values(values, q)
        batched = QMax(q, gamma=0.5, step_batch=16, instrument=True)
        for i, v in enumerate(values):
            batched.add(i, v)
        assert qmax.max_step_ops <= batched.max_step_ops

    def test_step_batch_validated(self):
        with pytest.raises(ConfigurationError):
            QMax(8, 0.5, step_batch=0)

    def test_admission_filter_engages(self, rng):
        """Theorem 2: expected updates are O(q log(n/q)) — ensure the
        vast majority of a long uniform stream is filtered."""
        q = 100
        n = 50000
        qmax = QMax(q, gamma=0.25)
        for i in range(n):
            qmax.add(i, rng.random())
        # Theoretical bound ~ 2q(1 + ln(n/q)) ≈ 1443; allow 3x slack
        # (the bound in the paper assumes tighter thresholds).
        assert qmax.admitted < 3 * 2 * q * (1 + 8.0)
        assert qmax.rejected > n * 0.8

    def test_mid_iteration_queries_are_correct(self, rng):
        """Query mid-iteration, at every step of the schedule."""
        q = 16
        qmax = QMax(q, gamma=0.5)
        values = []
        for i in range(600):
            v = rng.random()
            values.append(v)
            qmax.add(i, v)
            if i % 7 == 0:
                assert value_multiset(qmax.query()) == top_values(values, q)

    def test_eviction_tracking_is_complete(self, rng):
        """Every added item is either live or evicted — none vanish."""
        q = 32
        qmax = QMax(q, gamma=0.5, track_evictions=True)
        values = [rng.random() for _ in range(2000)]
        evicted = []
        for i, v in enumerate(values):
            qmax.add(i, v)
            evicted.extend(qmax.take_evicted())
        live = list(qmax.items())
        assert len(live) + len(evicted) == len(values)
        assert sorted(
            v for _, v in live + evicted
        ) == sorted(values)
        # No evicted value may beat the q-th largest live value.
        qth = top_values(values, q)[-1]
        assert all(v <= qth for _, v in evicted)

    def test_invariants_hold_throughout(self, rng):
        qmax = QMax(24, gamma=0.3)
        for i in range(3000):
            qmax.add(i, rng.gauss(0, 1))
            if i % 97 == 0:
                qmax.check_invariants()

    def test_tiny_q_gamma_degrades_gracefully(self, rng):
        """⌊qγ/2⌋ < 2 regime: still correct, just amortized."""
        qmax = QMax(3, gamma=0.1)
        values = [rng.random() for _ in range(500)]
        for i, v in enumerate(values):
            qmax.add(i, v)
        assert value_multiset(qmax.query()) == top_values(values, 3)


class TestAmortizedSpecific:
    def test_flush_trims_to_q(self, rng):
        qmax = AmortizedQMax(10, gamma=1.0, track_evictions=True)
        for i in range(15):
            qmax.add(i, float(i))
        qmax.flush()
        assert len(list(qmax.items())) == 10
        assert len(qmax.take_evicted()) == 5

    def test_compaction_counter(self, rng):
        qmax = AmortizedQMax(100, gamma=0.5)
        for i in range(10000):
            qmax.add(i, rng.random())
        # Compactions only happen when the buffer fills; with the
        # admission filter engaged there are far fewer than n/(qγ).
        assert 1 <= qmax.compactions < 10000 / 50


@needs_numpy
class TestVectorSpecific:
    """The vectorised batch path: ``QMax(kernel="numpy")`` fed NumPy
    columns through ``add_many_array``."""

    def test_add_batch_matches_scalar(self, rng):
        import numpy as np

        values = np.array([rng.random() for _ in range(5000)])
        scalar = QMax(50, 0.25, kernel="numpy")
        for i, v in enumerate(values):
            scalar.add(i, float(v))
        batched = QMax(50, 0.25, kernel="numpy")
        ids = np.arange(len(values))
        for start in range(0, len(values), 701):
            chunk = slice(start, start + 701)
            batched.add_many_array(ids[chunk], values[chunk])
        assert value_multiset(batched.query()) == pytest.approx(
            value_multiset(scalar.query())
        )

    def test_add_batch_rejects_mismatched_lengths(self):
        import numpy as np

        qmax = QMax(5, kernel="numpy")
        with pytest.raises(ConfigurationError):
            qmax.add_many_array([1, 2], np.array([1.0]))


class TestBatchEvictionDraining:
    """take_evicted across add_many batch boundaries (satellite of the
    batch-first update path): draining mid-stream must neither lose nor
    duplicate evictions, and the multiset must match per-item adds."""

    N = 1000
    BATCH = 37  # deliberately misaligned with q, g and step_batch

    def _stream(self):
        rng = random.Random(42)
        ids = list(range(self.N))
        vals = [rng.random() for _ in range(self.N)]
        return ids, vals

    def test_drains_partition_the_stream(self):
        ids, vals = self._stream()
        qmax = QMax(16, 0.25, track_evictions=True)
        drained = []
        for start in range(0, self.N, self.BATCH):
            qmax.add_many(ids[start:start + self.BATCH],
                          vals[start:start + self.BATCH])
            # Drain between every burst: each eviction must surface in
            # exactly one drain.
            drained.extend(qmax.take_evicted())
        drained.extend(qmax.take_evicted())
        retained = list(qmax.items())
        # Every added item is either still retained or was drained
        # exactly once — together they partition the input stream.
        assert sorted(drained + retained) == sorted(zip(ids, vals))

    def test_drained_multiset_matches_per_item_adds(self):
        ids, vals = self._stream()
        batched = QMax(16, 0.25, track_evictions=True)
        drained = []
        for start in range(0, self.N, self.BATCH):
            batched.add_many(ids[start:start + self.BATCH],
                             vals[start:start + self.BATCH])
            drained.extend(batched.take_evicted())
        drained.extend(batched.take_evicted())

        reference = QMax(16, 0.25, track_evictions=True)
        for item_id, val in zip(ids, vals):
            reference.add(item_id, val)
        assert sorted(drained) == sorted(reference.take_evicted())


class TestSampledPivotSelect:
    """The SQUID-style ``pivot_sample`` Select variant must be a drop-in
    replacement for quickselect inside Algorithm 1."""

    @pytest.mark.parametrize("sample", [1, 5, 9])
    @pytest.mark.parametrize("gamma", [0.05, 0.25, 1.0])
    def test_random_stream(self, sample, gamma, rng):
        q = 64
        qmax = QMax(q, gamma, pivot_sample=sample)
        values = [rng.random() for _ in range(5000)]
        for i, v in enumerate(values):
            qmax.add(i, v)
        assert value_multiset(qmax.query()) == top_values(values, q)
        qmax.check_invariants()

    def test_ascending_adversary(self):
        qmax = QMax(32, 0.25, pivot_sample=9)
        for i in range(3000):
            qmax.add(i, float(i))
        assert value_multiset(qmax.query()) == [
            float(v) for v in range(2999, 2967, -1)
        ]

    def test_add_many_path(self, rng):
        q = 48
        qmax = QMax(q, 0.5, pivot_sample=9)
        values = [rng.random() for _ in range(8000)]
        qmax.add_many(list(range(len(values))), values)
        assert value_multiset(qmax.query()) == top_values(values, q)

    def test_eviction_conservation(self, rng):
        qmax = QMax(16, 0.25, pivot_sample=7, track_evictions=True)
        stream = [(i, rng.random()) for i in range(1500)]
        for item_id, val in stream:
            qmax.add(item_id, val)
        assert sorted(qmax.take_evicted() + list(qmax.items())) == sorted(
            stream
        )

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            QMax(10, pivot_sample=-1)
        with pytest.raises(ConfigurationError):
            QMax(10, pivot_sample=5, deterministic_select=True)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(
            allow_nan=False, allow_infinity=False, width=32, min_value=-1e6,
            max_value=1e6,
        ),
        min_size=1,
        max_size=400,
    ),
    q=st.integers(min_value=1, max_value=50),
    gamma=st.sampled_from([0.05, 0.25, 1.0]),
)
def test_qmax_property_top_q(values, q, gamma):
    """Property: for any stream, QMax reports exactly the top-q value
    multiset."""
    qmax = QMax(q, gamma)
    for i, v in enumerate(values):
        qmax.add(i, v)
    assert value_multiset(qmax.query()) == top_values(values, q)
    qmax.check_invariants()


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-100, max_value=100), min_size=1, max_size=300
    ),
    q=st.integers(min_value=1, max_value=40),
)
def test_amortized_property_top_q(values, q):
    qmax = AmortizedQMax(q, gamma=0.3)
    for i, v in enumerate(values):
        qmax.add(i, float(v))
    assert value_multiset(qmax.query()) == top_values(
        [float(v) for v in values], q
    )
    qmax.check_invariants()
