GO ?= go

.PHONY: build test race bench bench-mem vet fmt loc check clean torture torture-shards fuzz smoke-live trace-demo profile-sim profile-sim-big

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every package goes under the race detector (~4 min), so no hand-kept
# list can miss a package that grows a goroutine. Equivalence tests prove
# the experiment fan-out stays deterministic; this proves it, the
# wall-clock host and the live-load stack stay data-race free.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Fails on any file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Non-test and test Go line counts of the root module (benchmark/ is its
# own module, .bench_build/ is its build output): the number ROADMAP's
# least-code target is read from.
loc:
	@git ls-files '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$$' | xargs cat | wc -l | xargs echo non-test
	@git ls-files '*_test.go' | grep -v '^benchmark/' | xargs cat | wc -l | xargs echo test

bench:
	$(GO) test -run XXX -bench . -benchmem ./internal/history/ ./internal/bench/
	$(GO) test -run XXX -bench . -benchmem .

# Memory-focused benchmarks plus the allocation-regression gates: the
# engine micro-benchmarks (0 B/op budget on the typed event paths, the
# unit-delay and same-timestamp batch paths), the fig9 slice (B/op ÷
# events/op = bytes/event) and the checked-in per-event budget of
# internal/bench/alloc_budget.json, then the live path's pins: a
# steady-state live grant (0 allocations under GCNone, at most 1 under
# GCRotation) and the host's StepInto scratch path (0). Throughput is
# BENCHMARK.json's grants_per_s, not a test. See DESIGN.md §8/§10 and
# EXPERIMENTS.md ("Allocation metrics", "Throughput").
bench-mem:
	$(GO) test -run XXX -bench 'BenchmarkEngine' -benchmem ./internal/sim/
	$(GO) test -run XXX -bench 'BenchmarkFig9Slice' -benchmem ./internal/bench/
	$(GO) test -run 'TestAllocationBudget|TestEngineSteadyStateAllocFree|TestCompactToAllocFree' \
		-v ./internal/bench/ ./internal/sim/ ./internal/history/
	$(GO) test -run 'TestLiveGrantAllocs|TestStepIntoZeroAlloc' -v ./internal/core/ ./internal/host/

# Randomized fault-injection torture sweep: 9 seeds × 9 fault mixes ×
# 3 variants = 243 simulated scenarios (including the five churn families:
# join-storm, leave-storm, crash-regen, churn-mix, churn-lossy) plus the
# live sweep — 5 mixes × 1 variant × 9 seeds on real concurrent runtimes —
# each asserting liveness and (for the modeled configs) spec-trace
# conformance. Every simulated scenario also runs the driver's token census
# (single-token safety per epoch) on every step; churn scenarios check
# conformance via stutter windows + stable-epoch re-pins. Ends
# "288 scenarios, 0 failures". Failures are shrunk to minimal
# counterexamples and written under artifacts/ for -replay. See
# EXPERIMENTS.md ("Torture harness", "Torturing churn").
torture: build
	$(GO) run ./cmd/tokensim -torture -artifact-dir artifacts

# Sharded torture families on the keyspace-sharded cluster: three
# independent BinarySearch rings behind the router, faults confined to
# chosen shards, each shard's driver running its own token census. Ends
# "27 scenarios, 0 failures". Failures carry per-shard fault schedules and
# shrink shard by shard. See EXPERIMENTS.md ("Sharded fig9") and DESIGN.md
# §12.
torture-shards: build
	$(GO) run ./cmd/tokensim -torture \
		-torture-mix shard-clean,shard-lossy,shard-crash \
		-torture-variants binsearch -artifact-dir artifacts

# Live TCP smoke: boot a 2-shard 6-process ringnode cluster through the
# orchestrator (cmd/ringload) under a short open-loop load window, probing
# /healthz, the shard-labeled /metrics series and a live CPU profile while
# traffic flows. Exercises the hardened transport end to end — the same
# host layer the simulator drives, but on wall clocks and sockets.
smoke-live: build
	./scripts/smoke-live.sh

# Trace one fig9-style run and write trace.json: Chrome trace_event JSON
# with request→grant spans, token hops and ready/in-flight counters. Open
# it in https://ui.perfetto.dev (or chrome://tracing). See EXPERIMENTS.md
# ("Tracing a run").
trace-demo: build
	$(GO) run ./cmd/tokensim -trace trace.json -requests 500 -seed 1

# "Which layer dominates": a sequential CPU profile of one experiment, then
# its top entries. The default is Figure 10 (n=100, load falling to mean gap
# 500 — over half its events are bare token hops, the rest search traffic);
# `make profile-sim EXP=fig9big NODES=1000000` profiles the whole scaling
# sweep up to a 10⁶-node ring (~70 s, LinearSearch-bound). See EXPERIMENTS.md
# ("Which layer dominates"), which also has the command for the benchmark's
# sim-big ring alone; cpu.pprof is git-ignored.
EXP ?= fig10
NODES ?= 0
profile-sim:
	$(GO) run ./cmd/tokensim -exp $(EXP) -nodes $(NODES) -requests 10000 -parallel 1 \
		-cpuprofile cpu.pprof > /dev/null
	$(GO) tool pprof -top -nodecount=25 cpu.pprof

# The benchmark's sim-big ring alone — one BinarySearch ring of 10⁶ nodes,
# 20,000 requests at gap 10, three passes — which `profile-sim EXP=fig9big`
# is not (that sweep caps its 10⁶ point at 20 requests). Ring construction
# is in the profile too; -focus=RunWorkload keeps to the timed part, by CPU
# and by bytes allocated. cpu.pprof and mem.pprof are git-ignored.
profile-sim-big:
	$(GO) test -run '^$$' -bench 'SimulatedGrant/n=1000000' -benchtime 60000x \
		-cpuprofile cpu.pprof -memprofile mem.pprof -o /dev/null .
	$(GO) tool pprof -focus=RunWorkload -top -nodecount=25 cpu.pprof
	$(GO) tool pprof -focus=RunWorkload -sample_index=alloc_space -top -nodecount=25 mem.pprof

# Short native-fuzzing smoke over the protocol state machines, the
# satisfaction record and the trap table against their reference models, the
# CSV round-trip and the Prometheus text encoder; CI runs the same targets.
fuzz:
	$(GO) test -run XXX -fuzz FuzzDirectedSearch -fuzztime 10s ./internal/protocol/
	$(GO) test -run XXX -fuzz FuzzPushProbe -fuzztime 10s ./internal/protocol/
	$(GO) test -run XXX -fuzz FuzzServedRecord -fuzztime 10s ./internal/protocol/
	$(GO) test -run XXX -fuzz FuzzTrapTable -fuzztime 10s ./internal/protocol/
	$(GO) test -run XXX -fuzz FuzzChurnSchedule -fuzztime 10s ./internal/driver/
	$(GO) test -run XXX -fuzz FuzzParseCSV -fuzztime 10s ./internal/bench/
	$(GO) test -run XXX -fuzz FuzzEventHeap -fuzztime 10s ./internal/sim/
	$(GO) test -run XXX -fuzz FuzzTimingWheel -fuzztime 10s ./internal/sim/
	$(GO) test -run XXX -fuzz FuzzPromEncoder -fuzztime 10s ./internal/telemetry/
	$(GO) test -run XXX -fuzz FuzzShardRouter -fuzztime 10s ./internal/shard/
	$(GO) test -run XXX -fuzz FuzzFrameCodec -fuzztime 10s ./internal/transport/

# The full torture sweep and the shard sweep ride along (~1 min; each exits
# 1 on any failing scenario), so a red fence is a red build locally too,
# not only in CI.
check: build vet fmt test race torture torture-shards

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof
