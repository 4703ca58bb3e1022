"""Socket-to-top-q benchmark for the repro measurement daemon and fleet.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see perfbench/README.md.
"""
