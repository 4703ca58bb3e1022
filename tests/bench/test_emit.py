"""Tests for the shared emit() path every benchmark routes through."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.bench.reporting import emit, emit_series
from repro.bench.runner import Measurement
from repro.bench.trajectory import TrajectoryStore
from repro.errors import TrajectoryError

SHA = "f" * 40
BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


class TestEmit:
    def test_prints_and_records(self, tmp_path, capsys):
        store = TrajectoryStore(tmp_path)
        row = emit(
            "fig04_gamma", "Figure 4: demo", ["backend", "MPPS"],
            [["qmax", 1.5], ["heap", 0.7]],
            config={"q": 100}, store=store, git_sha=SHA,
        )
        out = capsys.readouterr().out
        assert "=== Figure 4: demo ===" in out
        assert [(m.name, m.value, m.unit) for m in row.metrics] == [
            ("qmax", 1.5, "mpps"), ("heap", 0.7, "mpps"),
        ]
        (stored,) = store.rows()
        assert stored == row
        assert stored.config == {"q": 100}

    def test_value_columns_mixed_units(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        row = emit(
            "abl_batch", "T", ["path", "batch", "MPPS", "ratio col"],
            [["pure", 8, 2.0, 1.5], ["pure", "-", 1.0, "-"]],
            value_columns={"MPPS": "mpps", "ratio col": "ratio"},
            store=store, git_sha=SHA,
        )
        names = {(m.name, m.unit) for m in row.metrics}
        # Placeholder "-" cells in named value columns are skipped;
        # multiple value columns get a column-slug suffix.
        assert names == {
            ("pure/8:mpps", "mpps"), ("pure/8:ratio-col", "ratio"),
            ("pure/-:mpps", "mpps"),
        }

    def test_explicit_metrics(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        row = emit(
            "tab01", "T", ["pair", "speedup"],
            [["qmax vs heap", "x2.10"]],
            metrics=[{"name": "qmax-vs-heap", "value": 2.1,
                      "unit": "ratio"}],
            store=store, git_sha=SHA,
        )
        assert row.metrics[0].name == "qmax-vs-heap"
        assert row.metrics[0].unit == "ratio"

    def test_measurement_halfwidth_is_recorded(self, tmp_path):
        # Benchmarks pass a Measurement's CI half-width with each
        # metric; the stored row must keep it rather than a zero.
        m = Measurement("numpy", 1_000_000, (0.5, 0.6, 0.7))
        mean, half = m.mpps_ci
        store = TrajectoryStore(tmp_path)
        emit(
            "abl_kernel", "T", ["kernel", "MPPS"], [["numpy", mean]],
            metrics=[{"name": "numpy", "value": mean, "unit": "mpps",
                      "ci_halfwidth": half}],
            store=store, git_sha=SHA,
        )
        (stored,) = store.rows()
        assert half > 0.0
        assert stored.metrics[0].ci_halfwidth == half

    def test_no_value_columns_is_an_error(self, tmp_path):
        with pytest.raises(TrajectoryError, match="no value columns"):
            emit("b", "T", ["label"], [["only-strings"]],
                 store=TrajectoryStore(tmp_path), git_sha=SHA)

    def test_disable_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRAJECTORY", "0")
        store = TrajectoryStore(tmp_path)
        row = emit("b", "T", ["m", "MPPS"], [["x", 1.0]],
                   store=store, git_sha=SHA)
        # The row is still built and validated, just not persisted.
        assert row.metrics[0].value == 1.0
        assert store.rows() == []

    def test_record_false(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        emit("b", "T", ["m", "MPPS"], [["x", 1.0]],
             store=store, git_sha=SHA, record=False)
        assert store.rows() == []

    def test_series_metric_names(self, tmp_path, capsys):
        store = TrajectoryStore(tmp_path)
        row = emit_series(
            "fig05", "Figure 5", "q", [100, 1000],
            {"qmax": [2.0, 1.5], "heap": [0.9, 0.4]},
            store=store, git_sha=SHA,
        )
        assert [m.name for m in row.metrics] == [
            "qmax@q=100", "qmax@q=1000", "heap@q=100", "heap@q=1000",
        ]
        assert "Figure 5" in capsys.readouterr().out


class TestNoBespokeWriters:
    """Acceptance: every benchmark goes through the shared emit path —
    no direct print_table/print_series imports, no ad-hoc JSON dumps."""

    def bench_sources(self):
        scripts = sorted(BENCH_DIR.glob("bench_*.py"))
        assert len(scripts) >= 26
        return [(p.name, p.read_text(encoding="utf-8"))
                for p in scripts if p.name != "bench_common.py"]

    def test_no_direct_printer_imports(self):
        pattern = re.compile(
            r"from\s+repro\.bench\.reporting\s+import"
            r"|reporting\.print_(table|series)"
        )
        offenders = [name for name, text in self.bench_sources()
                     if pattern.search(text)]
        assert offenders == []

    def test_no_adhoc_json_writers(self):
        pattern = re.compile(r"json\.dumps?\(|write_text\(")
        offenders = [name for name, text in self.bench_sources()
                     if pattern.search(text)]
        assert offenders == []

    def test_all_use_shared_helper(self):
        offenders = [
            name for name, text in self.bench_sources()
            if "from bench_common import" not in text
        ]
        assert offenders == []
