"""Tests for the maintenance-kernel lookup and its QMax wiring."""

from __future__ import annotations

import random

import pytest

from repro._compat import HAVE_NUMPY
from repro.core import kernels
from repro.core.kernels import (
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNEL_NAMES,
    StepwiseKernel,
    get_kernel,
    kernel_available,
    resolve_kernel,
)
from repro.core.qmax import QMax
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry

from tests.conftest import top_values, value_multiset

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")


@pytest.fixture
def hide_numpy(monkeypatch):
    """Make the kernel lookup see a host without NumPy."""
    monkeypatch.setattr(kernels, "HAVE_NUMPY", False)


# ----------------------------------------------------------------------
# Lookup semantics.
# ----------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert KERNEL_NAMES == ("stepwise", "numpy")

    def test_stepwise_always_available(self):
        assert kernel_available("stepwise")
        k = get_kernel("stepwise")
        assert k.name == "stepwise"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            get_kernel("no-such-kernel")
        with pytest.raises(ConfigurationError):
            resolve_kernel("no-such-kernel")

    def test_unavailable_kernel_falls_back(self, caplog, hide_numpy):
        with caplog.at_level("WARNING", logger="repro.core.kernels"):
            k = get_kernel("numpy")
        assert k.name == "stepwise"
        assert not kernel_available("numpy")
        messages = [rec.message for rec in caplog.records]
        assert len(messages) == 1 and "falling back" in messages[0]

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "stepwise")
        assert resolve_kernel(None).name == "stepwise"
        monkeypatch.delenv(KERNEL_ENV)
        assert resolve_kernel(None).name == DEFAULT_KERNEL

    def test_resolve_instance_passthrough(self):
        inst = StepwiseKernel()
        assert resolve_kernel(inst) is inst

    def test_resolve_rejects_non_kernel(self):
        with pytest.raises(ConfigurationError, match="drive"):
            resolve_kernel(42)

    @needs_numpy
    def test_numpy_available_with_numpy(self):
        assert kernel_available("numpy")
        assert get_kernel("numpy").name == "numpy"

    def test_c_kernel_name_refused_and_numpy_degrades(
        self, monkeypatch, hide_numpy
    ):
        # The compiled kernel is gone: "native" is an unknown name, not
        # a silent alias, whether asked for in code or via the
        # environment.  NumPy's absence still degrades "numpy" to the
        # stepwise reference, and stats() says which one ran.
        with pytest.raises(ConfigurationError, match="stepwise, numpy"):
            QMax(64, kernel="native")
        monkeypatch.setenv(KERNEL_ENV, "native")
        with pytest.raises(ConfigurationError, match="unknown kernel"):
            QMax(64)
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        s = QMax(64)
        for i in range(5000):
            s.add(i, float(i))
        st = s.stats()
        assert st["kernel"] == "stepwise"
        assert st["kernel_requested"] == "numpy"
        assert value_multiset(s.query()) == [
            float(v) for v in range(4999, 4935, -1)
        ]


# ----------------------------------------------------------------------
# QMax construction-time resolution.
# ----------------------------------------------------------------------


class TestQMaxResolution:
    def test_default_is_deamortized(self):
        s = QMax(64)
        st = s.stats()
        assert st["kernel"] == "stepwise"
        assert st["select"] == "quickselect"
        assert st["step_batch"] < s._g or s._g <= st["step_batch"]
        assert "kernel=" not in s.name

    def test_stepwise_name_means_deamortized(self):
        # The *name* selects the default schedule; only an instance
        # selects one-shot drives.
        s = QMax(64, gamma=1.0, kernel="stepwise")
        assert s._kernel_obj is None
        assert s._batch < s._g

    def test_stepwise_instance_means_one_shot(self):
        s = QMax(64, gamma=1.0, kernel=StepwiseKernel())
        assert s._kernel_obj is not None
        assert s.stats()["select"] == "one-shot"
        assert s._batch == s._g
        assert "kernel=stepwise" in s.name

    @needs_numpy
    def test_numpy_kernel_resolves(self):
        s = QMax(64, kernel="numpy")
        st = s.stats()
        assert st["kernel"] == "numpy"
        assert st["kernel_requested"] == "numpy"
        assert st["array_store"]

    def test_env_kernel_resolution(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "numpy" if HAVE_NUMPY else "stepwise")
        s = QMax(64)
        if HAVE_NUMPY:
            assert s.kernel == "numpy"
            assert s.stats()["kernel_requested"] == "numpy"
        else:
            assert s.kernel == "stepwise"

    def test_env_kernel_yields_to_step_budget_select(self, monkeypatch):
        # deterministic_select was requested in code; an env-level
        # kernel preference must not silently change its semantics.
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        s = QMax(64, deterministic_select=True)
        assert s.kernel == "stepwise"
        assert s.stats()["select"] == "bfprt"

    def test_explicit_kernel_conflicts_with_step_budget_select(self):
        spec = "numpy" if HAVE_NUMPY else StepwiseKernel()
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            QMax(64, kernel=spec, deterministic_select=True)
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            QMax(64, kernel=spec, pivot_sample=9)

    def test_stats_reports_resolved_not_requested(self, hide_numpy):
        # An unavailable kernel falls back to stepwise; stats() must
        # never claim the request ran.
        s = QMax(64, kernel="numpy")
        st = s.stats()
        assert st["kernel_requested"] == "numpy"
        assert st["kernel"] == "stepwise"

    @needs_numpy
    def test_stats_batch_numpy_truthful(self):
        assert QMax(64).stats()["batch_numpy"] is True
        assert QMax(64, use_numpy=False).stats()["batch_numpy"] is False
        # list store when use_numpy is off, even in kernel mode
        s = QMax(64, kernel=StepwiseKernel(), use_numpy=False)
        assert s.stats()["array_store"] is False


# ----------------------------------------------------------------------
# One-shot correctness smoke (the heavy fuzz lives in
# test_kernel_diff.py).
# ----------------------------------------------------------------------


def _one_shot_specs():
    specs = [pytest.param(StepwiseKernel(), id="stepwise-instance")]
    specs.append(pytest.param("numpy", id="numpy", marks=needs_numpy))
    return specs


@pytest.mark.parametrize("spec", _one_shot_specs())
class TestOneShotCorrectness:
    @pytest.mark.parametrize("gamma", [0.05, 0.25, 1.0])
    def test_random_stream(self, spec, gamma, rng):
        q = 64
        s = QMax(q, gamma, kernel=spec)
        values = [rng.random() for _ in range(5000)]
        for i, v in enumerate(values):
            s.add(i, v)
        s.check_invariants()
        assert value_multiset(s.query()) == top_values(values, q)

    def test_ascending_admission_heavy(self, spec, rng):
        q = 32
        s = QMax(q, 0.25, kernel=spec)
        for i in range(2000):
            s.add(i, float(i))
        assert value_multiset(s.query()) == [
            float(v) for v in range(1999, 1967, -1)
        ]

    def test_query_mid_iteration(self, spec, rng):
        # Query between boundaries: S2 contents must participate.
        q = 16
        s = QMax(q, 1.0, kernel=spec)
        values = []
        for i in range(q + 3):  # not enough to trigger a boundary
            v = rng.random()
            values.append(v)
            s.add(i, v)
        assert value_multiset(s.query()) == top_values(values, q)


# ----------------------------------------------------------------------
# Observability wiring.
# ----------------------------------------------------------------------


def _trace_modes():
    modes = [pytest.param(None, "stepwise", id="deamortized")]
    modes.append(pytest.param(
        "numpy", "numpy", id="numpy", marks=needs_numpy))
    return modes


@pytest.mark.parametrize("spec, resolved", _trace_modes())
def test_trace_covers_all_phases(spec, resolved):
    reg = MetricsRegistry()
    s = QMax(100, 1.0, kernel=spec, metrics=reg, trace=True)
    r = random.Random(7)
    for i in range(5000):
        s.add(i, r.random())
    phases = {}
    gauge = None
    for m in reg.snapshot()["metrics"]:
        if m["name"] == "repro_qmax_maintenance_seconds":
            assert m["labels"]["kernel"] == resolved
            phases[m["labels"]["phase"]] = m
        elif m["name"] == "repro_qmax_kernel":
            gauge = m
    assert set(phases) == {"select", "pivot", "boundary"}
    for phase, m in phases.items():
        assert m["count"] > 0, f"phase {phase} never observed"
        assert m["sum"] > 0.0
    assert gauge is not None
    assert gauge["labels"]["kernel"] == resolved
    assert gauge["value"] == 1.0


@needs_numpy
def test_kernel_mode_maintenance_counters():
    reg = MetricsRegistry()
    s = QMax(100, 1.0, kernel="numpy", metrics=reg)
    r = random.Random(7)
    for i in range(5000):
        s.add(i, r.random())
    samples = {
        m["name"]: m for m in reg.snapshot()["metrics"]
    }
    iters = samples["repro_qmax_iterations_total"]["value"]
    assert iters > 0
    # One select and one pivot completion per iteration in kernel mode.
    assert samples["repro_qmax_select_completed_total"]["value"] == iters
    assert samples["repro_qmax_pivot_completed_total"]["value"] == iters
    assert samples["repro_qmax_psi"]["value"] == s._psi


# ----------------------------------------------------------------------
# Kernel drive unit fuzz (kernels straight against sorted()).
# ----------------------------------------------------------------------


def _kernel_instances():
    out = [pytest.param(StepwiseKernel(), id="stepwise")]
    if HAVE_NUMPY:
        from repro.core.kernels import NumpyKernel

        out.append(pytest.param(NumpyKernel(), id="numpy"))
    return out


@pytest.mark.parametrize("kernel", _kernel_instances())
@pytest.mark.parametrize("side", ["left", "right"])
def test_kernel_drive_unit(kernel, side, rng):
    for _ in range(25):
        n = rng.randint(1, 120)
        q = rng.randint(1, n)
        pad_lo = rng.randint(0, 5)
        pad_hi = rng.randint(0, 5)
        region = [
            float(rng.choice([rng.randint(0, 8), rng.random() * 8]))
            for _ in range(n)
        ]
        vals = [-1.0] * pad_lo + region + [-2.0] * pad_hi
        ids = list(range(len(vals)))
        lo, hi = pad_lo, pad_lo + n
        want_thresh = sorted(region, reverse=True)[q - 1]
        want_top = sorted(region, reverse=True)[:q]
        thresh = kernel.drive(vals, ids, lo, hi, q, side)
        assert thresh == want_thresh
        if side == "right":
            top = vals[hi - q : hi]
        else:
            top = vals[lo : lo + q]
        assert sorted(top, reverse=True) == want_top
        # padding untouched, region preserved as a multiset, ids moved
        # with their values
        assert vals[:pad_lo] == [-1.0] * pad_lo
        assert vals[hi:] == [-2.0] * pad_hi
        assert sorted(vals[lo:hi]) == sorted(region)
        for pos in range(lo, hi):
            assert region[ids[pos] - pad_lo] == vals[pos]


def test_kernel_drive_rejects_bad_args():
    k = StepwiseKernel()
    vals = [1.0, 2.0, 3.0]
    ids = [0, 1, 2]
    with pytest.raises(ConfigurationError):
        k.drive(vals, ids, 0, 3, 0, "right")
    with pytest.raises(ConfigurationError):
        k.drive(vals, ids, 0, 3, 4, "right")
