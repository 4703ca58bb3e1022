"""The serving processes import only what serving runs.

``repro serve``, ``repro fleet serve`` and ``repro query`` start by
importing :mod:`repro.cli`, :mod:`repro.service.daemon` and
:mod:`repro.fleet.coordinator`.  None of those may load scipy (only
the benchmark Student-t quantile uses it), networkx (only the topology
simulation uses it), the shard engine and its dependencies (only a
``--shards > 1`` daemon builds one) or the trace generators and pcap
codecs beside :mod:`repro.traffic.netflow` (only the offline commands
use them).  Each check runs in a fresh interpreter, because this test
process has imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SERVING_MODULES = ("repro.cli", "repro.service.daemon", "repro.fleet.coordinator")

FORBIDDEN = (
    "scipy",
    "networkx",
    "repro.parallel.engine",
    "repro.parallel.worker",
    "repro.parallel.shm_ring",
    "repro.apps",
    "repro.traffic.synthetic",
    "repro.traffic.cache_trace",
    "repro.traffic.pcap",
    "repro.traffic.headers",
)


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_serving_closure_excludes_unused_stacks():
    result = run_fresh(
        "import json, sys\n"
        f"for name in {SERVING_MODULES!r}:\n"
        "    __import__(name)\n"
        "from repro._compat import HAVE_SCIPY\n"
        f"loaded = sorted(m for m in {FORBIDDEN!r} if m in sys.modules)\n"
        "try:\n"
        "    import scipy\n"
        "    importable = True\n"
        "except ImportError:\n"
        "    importable = False\n"
        "print(json.dumps({'loaded': loaded, 'have_scipy': HAVE_SCIPY,\n"
        "                  'importable': importable}))\n"
    )
    assert result["loaded"] == []
    assert result["have_scipy"] == result["importable"]


def test_lazy_package_exports_still_resolve():
    import repro.netwide
    import repro.parallel
    import repro.traffic
    from repro.netwide import NetworkTopology
    from repro.parallel import ShardedQMaxEngine, merge_top_items
    from repro.traffic import generate_packets, read_pcap
    from repro.netwide.topology import NetworkTopology as direct_topology
    from repro.parallel.engine import ShardedQMaxEngine as direct_engine
    from repro.parallel.merge import merge_top_items as direct_merge
    from repro.traffic.pcap import read_pcap as direct_read_pcap
    from repro.traffic.synthetic import generate_packets as direct_generate

    assert NetworkTopology is direct_topology
    assert ShardedQMaxEngine is direct_engine
    assert merge_top_items is direct_merge
    assert generate_packets is direct_generate
    assert read_pcap is direct_read_pcap
    for package in (repro.netwide, repro.parallel, repro.traffic):
        assert set(package.__all__) <= set(dir(package))
        for name in package.__all__:
            assert getattr(package, name) is not None
        with pytest.raises(AttributeError):
            getattr(package, "no_such_export")
