# Convenience targets for the FCM-Sketch reproduction.

PYTHON ?= python

.PHONY: install test chaos test-batch-equivalence test-em-parallel bench \
	bench-baseline bench-compare bench-parallel bench-paper report \
	examples stream-smoke serve-smoke obs-smoke perfbench-check clean

install:
	pip install -e . --no-build-isolation

# Tier-1: the full suite (includes the chaos tests) under a pinned
# hash seed so fault schedules are reproducible run to run.
test:
	PYTHONHASHSEED=0 $(PYTHON) -m pytest tests/

# Just the fault-injection/graceful-degradation tests.
chaos:
	PYTHONHASHSEED=0 $(PYTHON) -m pytest -m chaos tests/

test-examples:
	REPRO_RUN_EXAMPLES=1 $(PYTHON) -m pytest tests/test_examples.py

# Batch-conflict-resolution equivalence: the differential suite (fixed
# adversarial batch shapes) plus the hypothesis property suite
# (searched batches) that pin every sketch's declared ingest contract
# — exact or relaxed — bit-for-bit against the scalar update loop.
# Pinned hash + hypothesis seeds keep failures reproducible; the
# timeout turns a hung shrink into a failure instead of a stuck job.
test-batch-equivalence:
	PYTHONHASHSEED=0 timeout 600 $(PYTHON) -m pytest \
		tests/test_differential.py tests/test_batching_properties.py \
		-q -m "not chaos" --hypothesis-seed=0

# Parallel + incremental EM and the worker core under both pools: the
# EM differential suite (serial vs pool bit-identity across worker
# counts, chaos failover), the warm-start property suite
# (perturbed-epoch closeness, identical-epoch non-inferiority,
# degenerate-seed rejection), the vectorized E-step's differential
# suite (sparse unit kernel, grouped preparation and bincount initial
# guess against the per-group reference), and the ingest pool and
# backend suites (serial byte identity at 1-4 workers and three batch
# sizes, no process left after close, the ingest SIGKILL failover).
# The EM and ingest pools share one worker core, so a change to it
# runs both SIGKILL failover tests here.  Pinned hash + hypothesis
# seeds keep failures reproducible; the timeout turns a wedged worker
# pool into a failure instead of a stuck job.
test-em-parallel:
	PYTHONHASHSEED=0 timeout 600 $(PYTHON) -m pytest \
		tests/test_em_parallel.py tests/test_em_warmstart_properties.py \
		tests/test_em_vectorized.py tests/test_pool.py \
		tests/test_backends.py -q --hypothesis-seed=0

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-fast:
	REPRO_BENCH_PACKETS=100000 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate the committed perf baseline (BENCH_throughput.json):
# per-sketch ingest/query throughput, telemetry-hook overhead and the
# control-plane EM runtime.
bench-baseline:
	PYTHONHASHSEED=0 $(PYTHON) -m benchmarks.baseline

bench-baseline-validate:
	$(PYTHON) -m benchmarks.baseline --validate

# Perf-regression gate: rerun the throughput harness at the committed
# baseline's packet budget, diff against BENCH_throughput.json under
# per-metric tolerances, and append to BENCH_trajectory.json.  Exits
# nonzero on regression — this is what CI runs.
bench-compare:
	PYTHONHASHSEED=0 $(PYTHON) -m benchmarks.baseline --compare \
		--tolerances benchmarks/tolerances_ci.json

# Pool-ingest smoke: serial vs a 4-worker PersistentShardPool, whose
# shards come back as codec bytes at seal.  Fails when the pool result
# diverges from serial or the speedup over the per-packet reference
# drops below the 2x acceptance bound.
bench-parallel:
	PYTHONHASHSEED=0 $(PYTHON) -m benchmarks.baseline --parallel \
		--packets 200000 --repeats 2 --shards 4

# Paper-scale smoke: the persistent shared-memory pool at a
# downscaled 2M-packet slice of the paper's trace shape, under a hard
# timeout.  Reports speedup_vs_serial with an honest cpu gate; the
# absolute >1 floor is enforced by bench-compare at the full 20M.
bench-paper:
	PYTHONHASHSEED=0 timeout 600 $(PYTHON) -m benchmarks.baseline \
		--parallel --scale paper --packets 2000000 --repeats 1

# Streaming-runtime smoke: a 3-epoch CLI stream with telemetry out.
# Fails if any packet is lost at a rotation or the span stream does
# not record the three runtime.rotate spans.
stream-smoke:
	PYTHONHASHSEED=0 $(PYTHON) -m repro.cli stream --packets 30000 \
		--epoch-packets 10000 --memory-kb 32 --change-threshold 200 \
		--telemetry-out /tmp/stream_smoke.ndjson | tee /tmp/stream_smoke.out
	grep -q "zero-gap ok" /tmp/stream_smoke.out
	test "$$(grep -c '"name":"runtime.rotate"' /tmp/stream_smoke.ndjson)" = 3

# Measurement-service smoke: concurrent sources through the bounded
# queues under a shedding policy, graceful drain, exact conservation
# ledger.  The `timeout` lid turns a hung event loop into a failure
# instead of a stuck CI job; the grep fails on a ledger leak.
serve-smoke:
	PYTHONHASHSEED=0 timeout 120 $(PYTHON) -m repro.cli serve \
		--packets 30000 --sources 4 --policy shed-oldest \
		--queue-packets 4096 --source-queue-packets 2048 \
		--epoch-packets 10000 --worker-batch 1024 --memory-kb 32 \
		--telemetry-out /tmp/serve_smoke.ndjson | tee /tmp/serve_smoke.out
	grep -q "\[conserved\]" /tmp/serve_smoke.out
	grep -q '"name":"service.drain"' /tmp/serve_smoke.ndjson

# Observability-plane smoke: a deterministic one-shot `repro obs`
# run on the logical clock.  Fails on a ledger leak, a firing SLO
# alert on the clean trace, an out-of-envelope accuracy audit, or an
# OpenMetrics exposition that does not strict-parse.  The `timeout`
# lid turns a hung drive loop into a failure instead of a stuck job.
obs-smoke:
	PYTHONHASHSEED=0 timeout 120 $(PYTHON) -m repro.cli obs --once \
		--packets 60000 --epoch-packets 20000 --memory-kb 32 \
		--openmetrics-out /tmp/obs_smoke.om.txt \
		--series-out /tmp/obs_smoke.ndjson | tee /tmp/obs_smoke.out
	grep -q "\[conserved\]" /tmp/obs_smoke.out
	grep -q "0 firing at exit" /tmp/obs_smoke.out
	! grep -q "MISCALIBRATED" /tmp/obs_smoke.out
	grep -q "# EOF" /tmp/obs_smoke.om.txt
	$(PYTHON) -c "from repro.telemetry.obsplane import parse_openmetrics; \
		parse_openmetrics(open('/tmp/obs_smoke.om.txt').read())"

# Repository benchmark check: perfbench's own suite (each output check
# catches a corrupted answer), then a one-second untraced run of every
# workload, which must exit 0 and report "correct": true (every sealed
# window's ledger, heavy hitters, counts and accuracy checked against
# exact counts).  pytest's testpaths hold only tests/, so nothing else
# runs perfbench.  Each step has a `timeout` lid.
PERFBENCH_WORKLOADS = caida_windows service_mice topk_windows

perfbench-check:
	timeout 600 $(PYTHON) -m pytest perfbench -q
	@for workload in $(PERFBENCH_WORKLOADS); do \
		echo "== perfbench $$workload =="; \
		timeout 300 $(PYTHON) perfbench/run.py --workload $$workload \
			--seed 1 --seconds 1 --trace 0 \
			> /tmp/perfbench_$$workload.out || exit 1; \
		tail -n 1 /tmp/perfbench_$$workload.out; \
		tail -n 1 /tmp/perfbench_$$workload.out \
			| grep -q '"correct": true' || exit 1; \
	done

report:
	$(PYTHON) -m benchmarks.report

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf benchmarks/results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
