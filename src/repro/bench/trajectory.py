"""The durable benchmark-trajectory store.

Every benchmark run in this repository records its results as
:class:`TrajectoryRow` objects — schema'd, validated, and keyed by the
git commit they measured — in an append-only JSONL store (by default
``bench_trajectory/`` at the repository root).  The paper's central
claim is throughput, so the perf history across PRs is a first-class
artifact: ``repro bench report`` renders it, and ``repro bench gate``
fails CI when a commit regresses a recorded baseline.

Layout::

    bench_trajectory/
        BASELINE            # one line: the default gate baseline SHA
        <full-git-sha>.jsonl  # one JSON object per line, append-only

Rows are only ever *appended*; re-running a benchmark at the same SHA
adds new rows (consumers take the latest row per (benchmark, metric,
machine)).  Nothing in this module rewrites or deletes store files.

Environment knobs:

* ``REPRO_TRAJECTORY_DIR`` — store directory override.
* ``REPRO_TRAJECTORY=0``   — disable recording (print-only runs).
* ``REPRO_GIT_SHA``        — SHA override when git is unavailable
  (e.g. measuring an exported tree in CI).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro._compat import HAVE_NUMPY, HAVE_SCIPY, np
from repro.errors import TrajectoryError

#: Version of the on-disk row schema; bump on incompatible change.
SCHEMA_VERSION = 1

#: Units that denote "higher is better" throughput — the gate and the
#: report's headline trajectory only consider metrics in these units.
THROUGHPUT_UNITS = frozenset({"mpps", "mrps", "gbps", "qps"})

_SHA_RE = re.compile(r"^(?:[0-9a-f]{7,40}|unknown)$")
_BENCHMARK_RE = re.compile(r"^[a-z0-9][a-z0-9_./=-]*$")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TrajectoryError(message)


@dataclass(frozen=True)
class MetricPoint:
    """One measured value with its confidence-interval half-width."""

    name: str
    value: float
    unit: str
    ci_halfwidth: float = 0.0

    def __post_init__(self) -> None:
        _require(isinstance(self.name, str) and bool(self.name.strip()),
                 "metric name must be a non-empty string")
        _require(isinstance(self.value, (int, float))
                 and not isinstance(self.value, bool)
                 and math.isfinite(self.value),
                 f"metric {self.name!r}: value must be a finite number")
        _require(isinstance(self.unit, str) and bool(self.unit.strip()),
                 f"metric {self.name!r}: unit must be a non-empty string")
        _require(isinstance(self.ci_halfwidth, (int, float))
                 and not isinstance(self.ci_halfwidth, bool)
                 and math.isfinite(self.ci_halfwidth)
                 and self.ci_halfwidth >= 0.0,
                 f"metric {self.name!r}: ci_halfwidth must be >= 0")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "ci_halfwidth", float(self.ci_halfwidth))

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "ci_halfwidth": self.ci_halfwidth,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MetricPoint":
        _require(isinstance(data, Mapping), "metric must be an object")
        extra = set(data) - {"name", "value", "unit", "ci_halfwidth"}
        _require(not extra, f"metric has unknown fields: {sorted(extra)}")
        missing = {"name", "value", "unit"} - set(data)
        _require(not missing, f"metric missing fields: {sorted(missing)}")
        return cls(
            name=data["name"],  # type: ignore[arg-type]
            value=data["value"],  # type: ignore[arg-type]
            unit=data["unit"],  # type: ignore[arg-type]
            ci_halfwidth=data.get("ci_halfwidth", 0.0),  # type: ignore[arg-type]
        )


_ROW_FIELDS = {
    "schema_version", "benchmark", "title", "git_sha", "recorded_at",
    "machine", "config", "metrics",
}
_ROW_REQUIRED = _ROW_FIELDS - {"title"}


@dataclass(frozen=True)
class TrajectoryRow:
    """One benchmark run: what was measured, on what, at which commit."""

    benchmark: str
    git_sha: str
    recorded_at: float
    machine: Mapping[str, object]
    metrics: Tuple[MetricPoint, ...]
    config: Mapping[str, object] = field(default_factory=dict)
    title: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version!r} "
                 f"(this library speaks v{SCHEMA_VERSION})")
        _require(isinstance(self.benchmark, str)
                 and bool(_BENCHMARK_RE.match(self.benchmark)),
                 f"invalid benchmark id {self.benchmark!r}")
        _require(isinstance(self.git_sha, str)
                 and bool(_SHA_RE.match(self.git_sha)),
                 f"invalid git_sha {self.git_sha!r} (want 7-40 hex chars "
                 "or 'unknown')")
        _require(isinstance(self.recorded_at, (int, float))
                 and not isinstance(self.recorded_at, bool)
                 and math.isfinite(self.recorded_at)
                 and self.recorded_at > 0,
                 "recorded_at must be a positive unix timestamp")
        object.__setattr__(self, "recorded_at", float(self.recorded_at))
        _require(isinstance(self.title, str), "title must be a string")
        _require(isinstance(self.machine, Mapping)
                 and isinstance(self.machine.get("id"), str)
                 and bool(self.machine["id"]),
                 "machine must be a fingerprint dict with an 'id'")
        _require(isinstance(self.config, Mapping),
                 "config must be a mapping")
        try:
            json.dumps(self.config)
            json.dumps(dict(self.machine))
        except (TypeError, ValueError) as exc:
            raise TrajectoryError(
                f"config/machine must be JSON-serializable: {exc}"
            ) from exc
        _require(isinstance(self.metrics, tuple) and len(self.metrics) > 0,
                 "metrics must be a non-empty tuple of MetricPoint")
        _require(all(isinstance(m, MetricPoint) for m in self.metrics),
                 "metrics must all be MetricPoint instances")
        names = [m.name for m in self.metrics]
        _require(len(names) == len(set(names)),
                 f"duplicate metric names in row: {sorted(names)}")

    @property
    def machine_id(self) -> str:
        return str(self.machine["id"])

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "benchmark": self.benchmark,
            "title": self.title,
            "git_sha": self.git_sha,
            "recorded_at": self.recorded_at,
            "machine": dict(self.machine),
            "config": dict(self.config),
            "metrics": [m.to_dict() for m in self.metrics],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TrajectoryRow":
        _require(isinstance(data, Mapping), "row must be a JSON object")
        extra = set(data) - _ROW_FIELDS
        _require(not extra, f"row has unknown fields: {sorted(extra)}")
        missing = _ROW_REQUIRED - set(data)
        _require(not missing, f"row missing fields: {sorted(missing)}")
        metrics = data["metrics"]
        _require(isinstance(metrics, Sequence)
                 and not isinstance(metrics, (str, bytes)),
                 "metrics must be an array")
        return cls(
            benchmark=data["benchmark"],  # type: ignore[arg-type]
            git_sha=data["git_sha"],  # type: ignore[arg-type]
            recorded_at=data["recorded_at"],  # type: ignore[arg-type]
            machine=data["machine"],  # type: ignore[arg-type]
            config=data["config"],  # type: ignore[arg-type]
            title=data.get("title", ""),  # type: ignore[arg-type]
            schema_version=data["schema_version"],  # type: ignore[arg-type]
            metrics=tuple(MetricPoint.from_dict(m) for m in metrics),
        )

    @classmethod
    def from_json(cls, text: str) -> "TrajectoryRow":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise TrajectoryError(f"row is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _cpu_model() -> str:
    """The CPU model name from ``/proc/cpuinfo`` where it exists, else
    whatever :func:`platform.processor` reports (often ``""``)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    return value.strip()
    except OSError:
        pass
    return platform.processor()


def machine_fingerprint(extra: Optional[Mapping[str, object]] = None
                        ) -> Dict[str, object]:
    """A stable description of the measuring host.

    The ``id`` digest covers the fields that decide comparability: OS,
    architecture, CPU model, core count, interpreter and its
    major.minor version, the NumPy version (``None`` when absent) and
    whether scipy is installed (pure-Python results are not comparable
    with NumPy results), plus ``extra``.  The full platform string,
    which carries the kernel build, is recorded but not hashed, so a
    host kernel update does not orphan the store.  The gate only
    compares rows whose ids match.
    """
    info: Dict[str, object] = {
        "os": platform.system(),
        "arch": platform.machine(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": "{} {}.{}".format(platform.python_implementation(),
                                    *sys.version_info[:2]),
        "numpy": np.__version__ if HAVE_NUMPY else None,
        "scipy": HAVE_SCIPY,
    }
    if extra:
        info.update(extra)
    digest = hashlib.sha256(
        json.dumps(info, sort_keys=True).encode("utf-8")
    ).hexdigest()
    info.setdefault("platform", platform.platform())
    info["id"] = digest[:12]
    return info


def current_git_sha(cwd: Union[str, Path, None] = None) -> str:
    """The commit being measured: ``REPRO_GIT_SHA`` override, then
    ``git rev-parse HEAD``, then ``"unknown"``."""
    override = os.environ.get("REPRO_GIT_SHA", "").strip().lower()
    if override:
        _require(bool(_SHA_RE.match(override)),
                 f"REPRO_GIT_SHA={override!r} is not a git SHA")
        return override
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip().lower()
    if proc.returncode == 0 and _SHA_RE.match(sha):
        return sha
    return "unknown"


def recording_enabled() -> bool:
    """Whether benchmark runs append to the store (``REPRO_TRAJECTORY``)."""
    flag = os.environ.get("REPRO_TRAJECTORY", "1").strip().lower()
    return flag not in ("0", "off", "no", "false")


def default_store_root() -> Path:
    """``REPRO_TRAJECTORY_DIR``, else ``bench_trajectory/`` at the
    repository root (found by walking up from the working directory)."""
    override = os.environ.get("REPRO_TRAJECTORY_DIR")
    if override:
        return Path(override)
    here = Path.cwd()
    for candidate in (here, *here.parents):
        if (candidate / ".git").exists() or (candidate / "pyproject.toml").is_file():
            return candidate / "bench_trajectory"
    return here / "bench_trajectory"


class TrajectoryStore:
    """File-backed, append-only store of :class:`TrajectoryRow` objects.

    One ``<git_sha>.jsonl`` file per measured commit; rows are appended
    as single JSON lines and never rewritten.  Reading a file that
    contains a malformed or schema-invalid line raises
    :class:`~repro.errors.TrajectoryError` naming the file and line.
    """

    BASELINE_FILE = "BASELINE"

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()

    # -- writing -------------------------------------------------------

    def append(self, row: TrajectoryRow) -> Path:
        """Append one validated row to its SHA's JSONL file."""
        _require(isinstance(row, TrajectoryRow),
                 "append() takes a TrajectoryRow")
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(row.git_sha)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(row.to_json() + "\n")
        return path

    # -- reading -------------------------------------------------------

    def path_for(self, sha: str) -> Path:
        _require(isinstance(sha, str) and bool(_SHA_RE.match(sha)),
                 f"invalid store sha {sha!r}")
        return self.root / f"{sha}.jsonl"

    def _files(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.jsonl"))

    def iter_rows(
        self,
        sha: Optional[str] = None,
        benchmark: Optional[str] = None,
    ) -> Iterator[TrajectoryRow]:
        files = [self.path_for(sha)] if sha is not None else self._files()
        for path in files:
            if not path.is_file():
                continue
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:
                        row = TrajectoryRow.from_json(line)
                    except TrajectoryError as exc:
                        raise TrajectoryError(
                            f"{path.name}:{lineno}: {exc}"
                        ) from exc
                    if row.git_sha != path.stem:
                        raise TrajectoryError(
                            f"{path.name}:{lineno}: row sha "
                            f"{row.git_sha!r} does not match its file"
                        )
                    if benchmark is None or row.benchmark == benchmark:
                        yield row

    def rows(self, sha: Optional[str] = None,
             benchmark: Optional[str] = None) -> List[TrajectoryRow]:
        return list(self.iter_rows(sha=sha, benchmark=benchmark))

    def shas(self) -> List[str]:
        """Recorded SHAs, ordered by each SHA's earliest row timestamp
        (i.e. the order the commits were first measured)."""
        first_seen: Dict[str, float] = {}
        for row in self.iter_rows():
            seen = first_seen.get(row.git_sha)
            if seen is None or row.recorded_at < seen:
                first_seen[row.git_sha] = row.recorded_at
        return sorted(first_seen, key=lambda s: (first_seen[s], s))

    def benchmarks(self) -> List[str]:
        return sorted({row.benchmark for row in self.iter_rows()})

    def latest_metrics(
        self, sha: str
    ) -> Dict[Tuple[str, str, str], Tuple[TrajectoryRow, MetricPoint]]:
        """Latest metric per (benchmark, metric name, machine id) at a
        SHA — re-runs at the same commit supersede older rows."""
        latest: Dict[Tuple[str, str, str],
                     Tuple[TrajectoryRow, MetricPoint]] = {}
        for row in self.iter_rows(sha=sha):
            for metric in row.metrics:
                key = (row.benchmark, metric.name, row.machine_id)
                held = latest.get(key)
                if held is None or row.recorded_at >= held[0].recorded_at:
                    latest[key] = (row, metric)
        return latest

    # -- baseline ------------------------------------------------------

    def baseline_sha(self) -> Optional[str]:
        """The default gate baseline (first token of ``BASELINE``)."""
        path = self.root / self.BASELINE_FILE
        if not path.is_file():
            return None
        text = path.read_text(encoding="utf-8").strip()
        for line in text.splitlines():
            token = line.split("#", 1)[0].strip().lower()
            if token:
                _require(bool(_SHA_RE.match(token)),
                         f"{path}: {token!r} is not a git SHA")
                return token
        return None


# -- legacy import -----------------------------------------------------

#: Legacy repo-root artifact names -> trajectory benchmark ids.
LEGACY_BENCHMARK_IDS = {"shard_scaling": "abl_shard_scaling"}


def import_legacy_bench_json(
    path: Union[str, Path],
    git_sha: str,
    recorded_at: Optional[float] = None,
    benchmark: Optional[str] = None,
) -> TrajectoryRow:
    """Convert a pre-trajectory ``BENCH_*.json`` artifact into a row.

    Understands the ``BENCH_shard_scaling.json`` shape produced by PR 2
    (``benchmark``/``config``/``machine``/``metric``/``rows`` keys with
    per-row ``aggregate_mpps``).  ``git_sha`` must name the commit the
    artifact was measured at; ``recorded_at`` defaults to the file's
    mtime, preserving trajectory ordering.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise TrajectoryError(f"cannot read legacy json {path}: {exc}") from exc
    _require(isinstance(payload, dict) and "rows" in payload,
             f"{path}: not a recognized legacy bench artifact")
    name = benchmark or LEGACY_BENCHMARK_IDS.get(
        str(payload.get("benchmark", "")), str(payload.get("benchmark", ""))
    )
    machine = dict(payload.get("machine", {}))
    machine = machine_fingerprint(extra=machine) if machine else machine_fingerprint()
    metrics: List[MetricPoint] = []
    for entry in payload["rows"]:
        _require(isinstance(entry, dict) and "aggregate_mpps" in entry,
                 f"{path}: legacy row without aggregate_mpps: {entry!r}")
        label = "/".join(
            str(entry[k]) for k in ("regime", "mode") if k in entry
        )
        metric_name = f"{label}/shards={entry.get('shards', '?')}"
        metrics.append(MetricPoint(
            name=metric_name,
            value=float(entry["aggregate_mpps"]),
            unit="mpps",
        ))
    config = dict(payload.get("config", {}))
    if "metric" in payload:
        config["metric_note"] = payload["metric"]
    config["imported_from"] = path.name
    return TrajectoryRow(
        benchmark=name,
        git_sha=git_sha,
        recorded_at=(recorded_at if recorded_at is not None
                     else path.stat().st_mtime),
        machine=machine,
        config=config,
        title=f"imported legacy artifact {path.name}",
        metrics=tuple(metrics),
    )
