package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// perfBudget is the checked-in throughput budget (perf_budget.json): the
// sequential events-per-second of the same fixed fig9 slice the allocation
// gate runs. The gate fails when a measurement falls below the budget by
// more than the headroom — the CI throughput-regression check introduced
// with the timing-wheel scheduler (see EXPERIMENTS.md and `make bench-mem`).
// Regenerate deliberately with PERF_BUDGET_PRINT=1 after an accepted
// performance change, on hardware comparable to CI.
//
//go:embed perf_budget.json
var perfBudgetJSON []byte

type perfBudget struct {
	// EventsPerSec is the reference sequential throughput of the gate's
	// fixed fig9 slice on the recording machine.
	EventsPerSec float64 `json:"events_per_sec"`
	// Headroom is the tolerated relative slowdown (0.40 = a measurement
	// 40% below the reference still passes — CI machines vary far more in
	// clock speed than in allocation behaviour, so this gate is loose
	// where the alloc gate is tight; it exists to catch algorithmic
	// regressions of 2x+, not percent-level noise).
	Headroom float64 `json:"headroom"`
}

// timedSlice runs the gate's fixed workload once and returns (events,
// wall-clock duration).
func timedSlice(tb testing.TB) (int64, time.Duration) {
	tb.Helper()
	start := time.Now()
	events, _, _ := allocSlice(tb)
	return events, time.Since(start)
}

// throughputPasses bounds how many times the gate times the slice.
const throughputPasses = 10

// TestThroughputBudget is the throughput-regression gate: the fixed fig9
// slice, run sequentially, must sustain the budgeted events/sec minus
// headroom. The slice is timed until a pass meets the floor, at most
// throughputPasses times: a stall — other packages testing in parallel on a
// two-CPU host — only ever makes a pass slower, so the maximum is the
// machine's real capability, and code that cannot reach the floor fails
// every pass. Every pass's rate is logged.
func TestThroughputBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("throughput gate: wall-clock budget is meaningless under the race detector")
	}
	var budget perfBudget
	if err := json.Unmarshal(perfBudgetJSON, &budget); err != nil {
		t.Fatalf("perf_budget.json: %v", err)
	}
	if budget.EventsPerSec <= 0 || budget.Headroom <= 0 || budget.Headroom >= 1 {
		t.Fatalf("perf_budget.json not sane: %+v", budget)
	}
	floor := budget.EventsPerSec * (1 - budget.Headroom)
	// Printing a new budget wants the machine's best, not its first pass
	// over the old floor.
	printing := os.Getenv("PERF_BUDGET_PRINT") != ""

	var best float64
	for pass := 1; pass <= throughputPasses && (printing || best < floor); pass++ {
		events, elapsed := timedSlice(t)
		eps := float64(events) / elapsed.Seconds()
		t.Logf("pass %d: %.0f events/sec", pass, eps)
		best = max(best, eps)
	}

	if printing {
		out, _ := json.MarshalIndent(perfBudget{
			EventsPerSec: round2(best),
			Headroom:     budget.Headroom,
		}, "", "  ")
		fmt.Printf("measured budget:\n%s\n", out)
	}

	t.Logf("throughput %.0f events/sec (budget %.0f, floor %.0f)", best, budget.EventsPerSec, floor)
	if best < floor {
		t.Errorf("throughput regression: %.0f events/sec below floor %.0f (budget %.0f -%.0f%%)",
			best, floor, budget.EventsPerSec, budget.Headroom*100)
	}
}
