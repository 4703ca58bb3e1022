# Convenience targets for the q-MAX reproduction.

PYTEST ?= python -m pytest
REPRO ?= PYTHONPATH=src python -m repro.cli

# The CI regression-gate subset: three scripts sharing one session
# fixture (fast) plus the shard-scaling bench whose metric names line
# up with the imported PR-2 baseline.  See docs/BENCHMARKS.md.
BENCH_SUBSET = benchmarks/bench_fig04_gamma.py \
               benchmarks/bench_fig05_vs_q.py \
               benchmarks/bench_tab01_speedups.py \
               benchmarks/bench_abl_shard_scaling.py \
               benchmarks/bench_shard_wallclock.py \
               benchmarks/bench_abl_kernel.py \
               benchmarks/bench_fleet_scale.py

# Synthetic SHAs for the local/CI instrumentation-overhead gate: the
# all-a row is measured with metrics off, the all-b row with
# REPRO_METRICS=1.  See docs/OBSERVABILITY.md.
OBS_STORE = /tmp/repro-obs-store
OBS_BASE = aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa
OBS_CAND = bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb
OBS_SUBSET = benchmarks/bench_fig04_gamma.py \
             benchmarks/bench_fig05_vs_q.py \
             benchmarks/bench_tab01_speedups.py

.PHONY: test bench bench-fast bench-subset bench-report bench-gate \
        bench-overhead bench-wallclock examples serve-demo \
        fleet-demo lint all outputs

test:
	$(PYTEST) tests/

bench:
	$(PYTEST) benchmarks/ --benchmark-only -s

bench-fast:  ## benchmarks at a tenth of the default workload sizes
	REPRO_SCALE=0.1 $(PYTEST) benchmarks/ --benchmark-only -s

bench-subset:  ## the fast gate subset; records trajectory rows
	REPRO_SCALE=0.1 $(PYTEST) $(BENCH_SUBSET) --benchmark-disable -s

bench-report:  ## render the recorded MPPS-over-commits trajectory
	$(REPRO) bench report

bench-gate:  ## fail on recorded regressions vs the BASELINE commit
	$(REPRO) bench gate --max-regress 10%

bench-wallclock:  ## record the end-to-end worker-engine wall-clock row
	REPRO_SCALE=0.1 $(PYTEST) benchmarks/bench_shard_wallclock.py \
	  --benchmark-disable -s
	$(REPRO) bench gate --max-regress 10%

bench-overhead:  ## gate repro.obs instrumentation overhead at <=3%
	rm -rf $(OBS_STORE)
	REPRO_SCALE=0.1 REPRO_TRAJECTORY_DIR=$(OBS_STORE) \
	REPRO_GIT_SHA=$(OBS_BASE) \
	$(PYTEST) $(OBS_SUBSET) --benchmark-disable -q
	REPRO_SCALE=0.1 REPRO_TRAJECTORY_DIR=$(OBS_STORE) \
	REPRO_METRICS=1 REPRO_GIT_SHA=$(OBS_CAND) \
	$(PYTEST) $(OBS_SUBSET) --benchmark-disable -q
	$(REPRO) bench gate --store $(OBS_STORE) \
	  --baseline $(OBS_BASE) --candidate $(OBS_CAND) \
	  --max-regress 3% --require-baseline

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		python $$script > /dev/null || exit 1; \
	done; echo "all examples ran"

serve-demo:  ## start a daemon, replay a synthetic trace at it, query it
	PYTHONPATH=src python examples/serve_demo.py

fleet-demo:  ## coordinator + three daemons: epochs, global top-q, a kill
	PYTHONPATH=src python examples/fleet_demo.py

outputs:  ## the deliverable transcripts
	$(PYTEST) tests/ 2>&1 | tee test_output.txt
	$(PYTEST) benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: test bench
