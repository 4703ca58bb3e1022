"""Socket-to-top-q benchmark: the command line.

    python3 perfbench/run.py --workload netflow-zipf --seed 1 --seconds 16 --trace 0

Starts the shipped ``serve`` / ``fleet serve`` entry points from the
checkout's ``src/`` as subprocesses, pushes the workload's seeded
traffic at them over loopback, checks the final answer against an
offline reference, and prints the metrics.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` starts the same entry points through
``perfbench/traced.py`` and prints the per-layer metrics instead.
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run that
cannot measure exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no repro sources under {ROOT}/src; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        import numpy  # noqa: F401
    except ImportError:
        print("error: the benchmark's generator needs numpy",
              file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.bench import cli

    return cli(args)


if __name__ == "__main__":
    sys.exit(main())
