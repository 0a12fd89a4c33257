GO ?= go

.PHONY: build test vet loc bench bench-baseline bench-check bench-check-allocs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Non-test .go line count per package directory, and the total.
loc:
	./scripts/loc.sh

# Quick benchmark pass (single count, with allocation stats).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Full measured run: count 5, results recorded to BENCH_baseline.json
# (override via BENCH_COUNT / BENCH_TIME / BENCH_OUT).
bench-baseline:
	./scripts/bench.sh

# Pairs gated against each other within the same run
# (hardware-independent): metrics may cost at most 2% wall and no
# extra allocations over the bare Step, and the binary trace sink must
# stay at least 5x faster (and leaner in allocations) than the ndjson
# sink on the same record stream.
OVERHEAD_GATE = --overhead-gate 'BenchmarkStepInstrumented/on:BenchmarkStepInstrumented/off:1.02' \
	--overhead-gate 'BenchmarkTraceSink/bin:BenchmarkTraceSink/ndjson:0.2'

# Regression gate: benchmark the working tree and diff against the
# committed baseline; fails on >1.3x wall or >1.5x allocs. Tune the
# sampling with BENCH_CHECK_COUNT (default 3).
bench-check:
	BENCH_OUT=/tmp/bench_current.json BENCH_COUNT=$${BENCH_CHECK_COUNT:-3} ./scripts/bench.sh
	python3 scripts/bench_compare.py $(OVERHEAD_GATE) BENCH_baseline.json /tmp/bench_current.json

# Hardware-safe regression gate for CI: allocation counts are
# deterministic per binary, so this gates allocs only (wall time is
# printed but never fails) and samples each benchmark once with a
# single iteration — fast enough for every push.
bench-check-allocs:
	BENCH_OUT=/tmp/bench_current.json BENCH_COUNT=1 BENCH_TIME=1x ./scripts/bench.sh
	python3 scripts/bench_compare.py --allocs-only $(OVERHEAD_GATE) BENCH_baseline.json /tmp/bench_current.json
