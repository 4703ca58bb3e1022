"""Tests for the trajectory schema, store, and legacy importer."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.trajectory import (
    SCHEMA_VERSION,
    MetricPoint,
    TrajectoryRow,
    TrajectoryStore,
    current_git_sha,
    import_legacy_bench_json,
    machine_fingerprint,
)
from repro.errors import TrajectoryError

SHA_A = "a" * 40
SHA_B = "b" * 40


def make_row(**overrides):
    kwargs = dict(
        benchmark="fig04_gamma",
        git_sha=SHA_A,
        recorded_at=1_700_000_000.0,
        machine=machine_fingerprint(),
        config={"q": 100, "gamma": 0.25},
        title="Figure 4",
        metrics=(
            MetricPoint("qmax@q=100", 1.5, "mpps", ci_halfwidth=0.1),
            MetricPoint("heap@q=100", 0.7, "mpps"),
        ),
    )
    kwargs.update(overrides)
    return TrajectoryRow(**kwargs)


class TestSchema:
    def test_round_trip(self):
        row = make_row()
        again = TrajectoryRow.from_json(row.to_json())
        assert again == row
        assert again.metrics[0].ci_halfwidth == 0.1
        assert again.schema_version == SCHEMA_VERSION

    def test_rejects_unknown_row_field(self):
        data = make_row().to_dict()
        data["surprise"] = 1
        with pytest.raises(TrajectoryError, match="unknown fields"):
            TrajectoryRow.from_dict(data)

    def test_rejects_missing_required_field(self):
        data = make_row().to_dict()
        del data["git_sha"]
        with pytest.raises(TrajectoryError, match="missing fields"):
            TrajectoryRow.from_dict(data)

    def test_rejects_bad_sha(self):
        with pytest.raises(TrajectoryError, match="git_sha"):
            make_row(git_sha="not-a-sha")

    def test_rejects_nan_value(self):
        with pytest.raises(TrajectoryError, match="finite"):
            MetricPoint("m", float("nan"), "mpps")

    def test_rejects_negative_ci(self):
        with pytest.raises(TrajectoryError, match="ci_halfwidth"):
            MetricPoint("m", 1.0, "mpps", ci_halfwidth=-0.1)

    def test_rejects_empty_metrics(self):
        with pytest.raises(TrajectoryError, match="non-empty"):
            make_row(metrics=())

    def test_rejects_duplicate_metric_names(self):
        with pytest.raises(TrajectoryError, match="duplicate"):
            make_row(metrics=(
                MetricPoint("same", 1.0, "mpps"),
                MetricPoint("same", 2.0, "mpps"),
            ))

    def test_rejects_machine_without_id(self):
        with pytest.raises(TrajectoryError, match="machine"):
            make_row(machine={"platform": "x"})

    def test_rejects_unserializable_config(self):
        with pytest.raises(TrajectoryError, match="JSON-serializable"):
            make_row(config={"bad": object()})

    def test_rejects_future_schema_version(self):
        data = make_row().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(TrajectoryError, match="schema_version"):
            TrajectoryRow.from_dict(data)

    def test_rejects_unknown_metric_field(self):
        with pytest.raises(TrajectoryError, match="unknown fields"):
            MetricPoint.from_dict(
                {"name": "m", "value": 1.0, "unit": "mpps", "extra": 1}
            )

    def test_rejects_invalid_json(self):
        with pytest.raises(TrajectoryError, match="not valid JSON"):
            TrajectoryRow.from_json("{nope")


class TestStore:
    def test_append_is_sha_keyed_and_append_only(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        path = store.append(make_row())
        assert path == tmp_path / f"{SHA_A}.jsonl"
        store.append(make_row(recorded_at=1_700_000_001.0))
        store.append(make_row(git_sha=SHA_B,
                              recorded_at=1_700_000_002.0))
        assert len(path.read_text().splitlines()) == 2
        assert (tmp_path / f"{SHA_B}.jsonl").is_file()
        assert len(store.rows()) == 3
        assert len(store.rows(sha=SHA_A)) == 2

    def test_shas_ordered_by_first_measurement(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        store.append(make_row(git_sha=SHA_B, recorded_at=100.0))
        store.append(make_row(git_sha=SHA_A, recorded_at=200.0))
        # A later re-run of B must not reorder it after A.
        store.append(make_row(git_sha=SHA_B, recorded_at=300.0))
        assert store.shas() == [SHA_B, SHA_A]

    def test_latest_metrics_prefers_rerun(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        store.append(make_row(recorded_at=100.0))
        store.append(make_row(
            recorded_at=200.0,
            metrics=(MetricPoint("qmax@q=100", 9.9, "mpps"),),
        ))
        latest = store.latest_metrics(SHA_A)
        machine_id = machine_fingerprint()["id"]
        key = ("fig04_gamma", "qmax@q=100", machine_id)
        assert latest[key][1].value == 9.9
        # The metric only present in the older row survives.
        assert ("fig04_gamma", "heap@q=100", machine_id) in latest

    def test_malformed_line_names_file_and_line(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        store.append(make_row())
        path = store.path_for(SHA_A)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(TrajectoryError,
                           match=rf"{SHA_A}\.jsonl:2"):
            store.rows()

    def test_sha_file_mismatch_detected(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        (tmp_path / f"{SHA_B}.jsonl").write_text(
            make_row().to_json() + "\n"
        )
        with pytest.raises(TrajectoryError, match="does not match"):
            store.rows()

    def test_benchmarks_listing_and_filter(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        store.append(make_row())
        store.append(make_row(benchmark="tab01_speedups"))
        assert store.benchmarks() == ["fig04_gamma", "tab01_speedups"]
        assert [r.benchmark for r in store.rows(benchmark="tab01_speedups")] \
            == ["tab01_speedups"]

    def test_baseline_file(self, tmp_path):
        store = TrajectoryStore(tmp_path)
        assert store.baseline_sha() is None
        (tmp_path / "BASELINE").write_text(
            f"# the PR-2 import\n{SHA_A}\n"
        )
        assert store.baseline_sha() == SHA_A

    def test_empty_store(self, tmp_path):
        store = TrajectoryStore(tmp_path / "nothing")
        assert store.rows() == []
        assert store.shas() == []


class TestFingerprintAndSha:
    def test_fingerprint_stable_and_has_id(self):
        a, b = machine_fingerprint(), machine_fingerprint()
        assert a == b
        assert len(a["id"]) == 12

    def test_fingerprint_extra_changes_id(self):
        assert machine_fingerprint()["id"] != \
            machine_fingerprint(extra={"note": "other host"})["id"]

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", SHA_B)
        assert current_git_sha() == SHA_B
        monkeypatch.setenv("REPRO_GIT_SHA", "bogus!")
        with pytest.raises(TrajectoryError):
            current_git_sha()

    def test_git_sha_from_repo(self, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        sha = current_git_sha(cwd=Path(__file__).resolve().parents[2])
        assert sha == "unknown" or len(sha) == 40


class TestLegacyImport:
    PAYLOAD = {
        "benchmark": "shard_scaling",
        "config": {"q": 512, "gamma": 0.25},
        "machine": {"platform": "test", "cpu_count": 1},
        "metric": "per-shard-core aggregate",
        "rows": [
            {"regime": "admission-heavy", "shards": 1,
             "mode": "per-shard-core", "aggregate_mpps": 1.0},
            {"regime": "admission-heavy", "shards": 4,
             "mode": "per-shard-core", "aggregate_mpps": 3.5},
        ],
    }

    def test_import_shapes_metrics(self, tmp_path):
        path = tmp_path / "BENCH_shard_scaling.json"
        path.write_text(json.dumps(self.PAYLOAD))
        row = import_legacy_bench_json(path, git_sha=SHA_A)
        assert row.benchmark == "abl_shard_scaling"
        assert row.git_sha == SHA_A
        names = [m.name for m in row.metrics]
        assert names == [
            "admission-heavy/per-shard-core/shards=1",
            "admission-heavy/per-shard-core/shards=4",
        ]
        assert all(m.unit == "mpps" for m in row.metrics)
        assert row.config["metric_note"] == "per-shard-core aggregate"
        assert row.config["imported_from"] == path.name

    def test_import_real_artifact(self):
        artifact = Path(__file__).resolve().parents[2] \
            / "BENCH_shard_scaling.json"
        row = import_legacy_bench_json(artifact, git_sha=SHA_B)
        assert row.benchmark == "abl_shard_scaling"
        assert any("shards=4" in m.name for m in row.metrics)
        assert all(m.value > 0 for m in row.metrics)

    def test_import_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]")
        with pytest.raises(TrajectoryError, match="not a recognized"):
            import_legacy_bench_json(path, git_sha=SHA_A)


class TestFingerprintFields:
    def test_kernel_release_does_not_change_id(self, monkeypatch):
        import platform

        before = machine_fingerprint()
        monkeypatch.setattr(platform, "platform",
                            lambda *a, **k: "Linux-9.9.9-other-kernel-x86_64")
        monkeypatch.setattr(platform, "release", lambda: "9.9.9-other-kernel")
        after = machine_fingerprint()
        assert after["id"] == before["id"]
        assert after["platform"] == "Linux-9.9.9-other-kernel-x86_64"

    def test_id_independent_of_scipy_import(self):
        from tests.test_import_closure import run_fresh

        code = (
            "import json, sys\n"
            "{prelude}"
            "from repro.bench.trajectory import machine_fingerprint\n"
            "print(json.dumps({{'id': machine_fingerprint()['id'],\n"
            "                  'scipy_loaded': 'scipy' in sys.modules}}))\n"
        )
        lazy = run_fresh(code.format(prelude=""))
        eager = run_fresh(code.format(prelude=(
            "try:\n"
            "    import scipy.stats\n"
            "except ImportError:\n"
            "    pass\n"
        )))
        assert not lazy["scipy_loaded"]
        assert lazy["id"] == eager["id"]
