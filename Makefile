GO ?= go

.PHONY: build test race bench bench-mem bench-baseline bench-opt bench-wheel bench-shard bench-par bench-live vet check clean torture torture-shards fuzz smoke-live trace-demo profile-sim

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Everything concurrent goes under the race detector: the experiment
# fan-out, the wall-clock host (node runtimes + live clusters), the live
# torture scenarios, and the live-load stack (hardened transport, the
# open-loop generator, the multi-process orchestrator, the scrape
# parser). Equivalence tests prove the fan-out stays deterministic; this
# proves it stays data-race free.
race:
	$(GO) test -race ./internal/bench/... ./internal/host/... ./internal/node/... \
		./internal/core/... ./internal/torture/... ./internal/shard/... \
		./internal/transport/... ./internal/loadgen/... \
		./internal/orchestra/... ./internal/telemetry/... \
		./cmd/tokensim/... ./cmd/ringnode/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run XXX -bench . -benchmem ./internal/history/ ./internal/bench/
	$(GO) test -run XXX -bench . -benchmem .

# Memory-focused benchmarks plus the allocation- and throughput-regression
# gates: the engine micro-benchmarks (0 B/op budget on the typed event
# paths, wheel-vs-heap unit-delay comparison), the fig9 slice (B/op ÷
# events/op = bytes/event), the checked-in per-event budget of
# internal/bench/alloc_budget.json, and the sequential events/sec floor of
# internal/bench/perf_budget.json. See DESIGN.md §8/§10 and EXPERIMENTS.md
# ("Allocation metrics", "Throughput gate").
bench-mem:
	$(GO) test -run XXX -bench 'BenchmarkEngine' -benchmem ./internal/sim/
	$(GO) test -run XXX -bench 'BenchmarkFig9Slice' -benchmem ./internal/bench/
	$(GO) test -run 'TestAllocationBudget|TestThroughputBudget|TestEngineSteadyStateAllocFree|TestCompactToAllocFree' \
		-v ./internal/bench/ ./internal/sim/ ./internal/history/

# Regenerate BENCH_baseline.json: paper-scale Figure 9, sequential oracle
# vs the worker pool, with a byte-identity check between the two tables.
# See EXPERIMENTS.md ("Parallel runner") for what the fields mean.
bench-baseline: build
	$(GO) run ./cmd/tokensim -exp fig9 -paper -parallel 4 -baseline \
		-benchjson BENCH_baseline.json

# Regenerate BENCH_opt.json (same run as bench-baseline) and compare it
# against the checked-in pre-optimization record.
bench-opt: build
	$(GO) run ./cmd/tokensim -exp fig9 -paper -parallel 4 -baseline \
		-benchjson BENCH_opt.json
	$(GO) run ./scripts/benchcmp BENCH_baseline.json BENCH_opt.json

# Regenerate BENCH_wheel.json: the same paper-scale Figure 9 run as
# bench-baseline/bench-opt under the timing-wheel scheduler, plus the
# fig9big N=10^5 scaling sweep (-big). Compared against both checked-in
# records; the gated comparison against BENCH_opt.json fails on a >10%
# per-event allocation or events/sec regression.
bench-wheel: build
	$(GO) run ./cmd/tokensim -exp fig9 -paper -parallel 4 -baseline -big \
		-benchjson BENCH_wheel.json
	$(GO) run ./scripts/benchcmp BENCH_baseline.json BENCH_wheel.json
	$(GO) run ./scripts/benchcmp -gate 10 BENCH_opt.json BENCH_wheel.json

# Randomized fault-injection torture sweep: 9 seeds × 9 fault mixes ×
# 3 variants = 243 simulated scenarios (including the five churn families:
# join-storm, leave-storm, crash-regen, churn-mix, churn-lossy) plus the
# live sweep — 5 mixes × 1 variant × 9 seeds on real concurrent runtimes —
# each asserting single-token safety, liveness and (for the modeled
# configs) spec-trace conformance; churn scenarios machine-check per-epoch
# safety on every step and conformance via stutter windows + stable-epoch
# re-pins. Failures are shrunk to minimal counterexamples and written under
# artifacts/ for -replay. See EXPERIMENTS.md ("Torture harness",
# "Torturing churn").
torture: build
	$(GO) run ./cmd/tokensim -torture -artifact-dir artifacts

# Sharded torture families on the keyspace-sharded cluster: three
# independent BinarySearch rings behind the router, faults confined to
# chosen shards, the single-token census machine-checked per shard.
# Failures carry per-shard fault schedules and shrink shard by shard.
# See EXPERIMENTS.md ("Sharded fig9") and DESIGN.md §12.
torture-shards: build
	$(GO) run ./cmd/tokensim -torture \
		-torture-mix shard-clean,shard-lossy,shard-crash \
		-torture-variants binsearch -artifact-dir artifacts

# Regenerate BENCH_shard.json: the fixed-total-load sharded scaling pass
# (128 nodes, aggregate mean gap 10) at 1/2/4/8 shards, plus the 1-shard
# byte-parity gate against the unsharded driver (tables_identical).
bench-shard: build
	$(GO) run ./cmd/tokensim -shards 8 -requests 20000 -benchjson BENCH_shard.json

# Regenerate BENCH_par.json: every shard count of the fig9shard sweep run
# twice — once on the inline sequential path (Parallel=1, the oracle) and
# once across the full worker pool — with a DeepEqual tables-identical gate
# between the passes, then the fig9big scaling sweep pushed to N=10^6 with
# peak-heap recording (heap_peak / bytes_per_node). On a 1-CPU host the
# speedups sit at ~1.0×; GOMAXPROCS is recorded in the artifact so that is
# legible, and the perf gate keeps budgeting only the sequential floor.
bench-par: build
	$(GO) run ./cmd/tokensim -shards 8 -requests 20000 -baseline -big \
		-nodes 1000000 -benchjson BENCH_par.json

# Live TCP smoke: boot a 2-shard 6-process ringnode cluster through the
# orchestrator (cmd/ringload) under a short open-loop load window, probing
# /healthz, the shard-labeled /metrics series and a live CPU profile while
# traffic flows. Exercises the hardened transport end to end — the same
# host layer the simulator drives, but on wall clocks and sockets.
smoke-live: build
	./scripts/smoke-live.sh

# Regenerate BENCH_live.json: the live counterpart of the fig9
# responsiveness experiments — a real 50-process, 2-ring cluster under
# 20 s of synchronized open-loop Poisson load, every /metrics endpoint
# scraped and the fleet's histograms merged into one p50/p95/p99 table.
# Exit status is nonzero on guard violations, leaked timers or zero
# completed sessions. See EXPERIMENTS.md ("Live fig9 on a local cluster").
bench-live: build
	$(GO) run ./cmd/ringload -n 50 -shards 2 -rate 4 -duration 20s \
		-hold 1ms -out BENCH_live.json

# Trace one fig9-style run and write trace.json: Chrome trace_event JSON
# with request→grant spans, token hops and ready/in-flight counters. Open
# it in https://ui.perfetto.dev (or chrome://tracing). See EXPERIMENTS.md
# ("Tracing a run").
trace-demo: build
	$(GO) run ./cmd/tokensim -trace trace.json -requests 500 -seed 1

# "Which layer dominates": a sequential CPU profile of Figure 10 (n=100,
# load falling to mean gap 500 — over half its events are bare token hops,
# the rest search traffic), then its top entries. See EXPERIMENTS.md
# ("Which layer dominates"); cpu.pprof is git-ignored.
profile-sim:
	$(GO) run ./cmd/tokensim -exp fig10 -requests 10000 -parallel 1 \
		-cpuprofile cpu.pprof > /dev/null
	$(GO) tool pprof -top -nodecount=25 cpu.pprof

# Short native-fuzzing smoke over the protocol state machines, the CSV
# round-trip and the Prometheus text encoder; CI runs the same targets.
fuzz:
	$(GO) test -run XXX -fuzz FuzzDirectedSearch -fuzztime 10s ./internal/protocol/
	$(GO) test -run XXX -fuzz FuzzPushProbe -fuzztime 10s ./internal/protocol/
	$(GO) test -run XXX -fuzz FuzzChurnSchedule -fuzztime 10s ./internal/driver/
	$(GO) test -run XXX -fuzz FuzzParseCSV -fuzztime 10s ./internal/bench/
	$(GO) test -run XXX -fuzz FuzzEventHeap -fuzztime 10s ./internal/sim/
	$(GO) test -run XXX -fuzz FuzzTimingWheel -fuzztime 10s ./internal/sim/
	$(GO) test -run XXX -fuzz FuzzPromEncoder -fuzztime 10s ./internal/telemetry/
	$(GO) test -run XXX -fuzz FuzzShardRouter -fuzztime 10s ./internal/shard/
	$(GO) test -run XXX -fuzz FuzzFrameCodec -fuzztime 10s ./internal/transport/

check: build vet test race

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof
