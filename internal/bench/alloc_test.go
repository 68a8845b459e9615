package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/workload"
)

// allocBudget is the checked-in allocation budget of the event core
// (alloc_budget.json): heap traffic per simulated event on a fixed
// fig9-shaped workload. The gate fails when a measurement exceeds the
// budget by more than 10% — the CI allocation-regression check (see
// EXPERIMENTS.md and `make bench-mem`). Regenerate deliberately with
// ALLOC_BUDGET_PRINT=1 after an accepted allocation change.
//
//go:embed alloc_budget.json
var allocBudgetJSON []byte

type allocBudget struct {
	// BytesPerEvent and MallocsPerEvent bound the per-event heap traffic
	// of a fig9 slice (ring + binsearch, N=64, rotation GC for binsearch).
	BytesPerEvent   float64 `json:"bytes_per_event"`
	MallocsPerEvent float64 `json:"mallocs_per_event"`
	// Headroom is the tolerated relative regression (0.10 = +10%).
	Headroom float64 `json:"headroom"`
}

// allocSlice runs the gate's fixed workload — one fig9-shaped slice per
// variant — and returns (events, bytes, mallocs). The workload is
// deterministic; only the measurement varies (by goroutine scheduling of
// the runtime itself), which the headroom absorbs.
func allocSlice(tb testing.TB) (events, bytes, mallocs int64) {
	tb.Helper()
	var stats RunStats
	opts := Options{Seed: 1, Requests: 1200, MaxTime: 5_000_000, Parallelism: 1, Stats: &stats}
	jobs := []Job{
		{Cfg: figureConfig(protocol.RingToken, 64), Gen: workload.Poisson{N: 64, MeanGap: 10}},
		{Cfg: figureConfig(protocol.BinarySearch, 64), Gen: workload.Poisson{N: 64, MeanGap: 10}},
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := runJobs(opts, jobs); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	snap := stats.Snapshot()
	if snap.SimEvents == 0 {
		tb.Fatal("alloc gate workload executed no events")
	}
	return snap.SimEvents,
		int64(after.TotalAlloc - before.TotalAlloc),
		int64(after.Mallocs - before.Mallocs)
}

// TestAllocationBudget is the allocation-regression gate: per-event heap
// traffic of the fixed slice must stay within the checked-in budget plus
// headroom.
func TestAllocationBudget(t *testing.T) {
	var budget allocBudget
	if err := json.Unmarshal(allocBudgetJSON, &budget); err != nil {
		t.Fatalf("alloc_budget.json: %v", err)
	}
	if budget.BytesPerEvent <= 0 || budget.MallocsPerEvent <= 0 || budget.Headroom <= 0 {
		t.Fatalf("alloc_budget.json not positive: %+v", budget)
	}

	// Best of three passes: TotalAlloc deltas include runtime background
	// noise (GC metadata, test framework); the minimum is the stable
	// per-workload cost.
	var bpe, mpe float64
	for i := 0; i < 3; i++ {
		events, bytes, mallocs := allocSlice(t)
		b := float64(bytes) / float64(events)
		m := float64(mallocs) / float64(events)
		if i == 0 || b < bpe {
			bpe = b
		}
		if i == 0 || m < mpe {
			mpe = m
		}
	}

	if os.Getenv("ALLOC_BUDGET_PRINT") != "" {
		out, _ := json.MarshalIndent(allocBudget{
			BytesPerEvent:   round2(bpe),
			MallocsPerEvent: round4(mpe),
			Headroom:        budget.Headroom,
		}, "", "  ")
		fmt.Printf("measured budget:\n%s\n", out)
	}

	maxBytes := budget.BytesPerEvent * (1 + budget.Headroom)
	maxMallocs := budget.MallocsPerEvent * (1 + budget.Headroom)
	t.Logf("bytes/event %.2f (budget %.2f, max %.2f), mallocs/event %.4f (budget %.4f, max %.4f)",
		bpe, budget.BytesPerEvent, maxBytes, mpe, budget.MallocsPerEvent, maxMallocs)
	if bpe > maxBytes {
		t.Errorf("allocation regression: %.2f bytes/event exceeds budget %.2f +%.0f%%",
			bpe, budget.BytesPerEvent, budget.Headroom*100)
	}
	if mpe > maxMallocs {
		t.Errorf("allocation regression: %.4f mallocs/event exceeds budget %.4f +%.0f%%",
			mpe, budget.MallocsPerEvent, budget.Headroom*100)
	}
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
func round4(v float64) float64 { return float64(int64(v*10000+0.5)) / 10000 }

// BenchmarkFig9Slice runs the gate's fig9 slice per iteration, reporting
// events/op so bytes/event = B/op ÷ events/op (what `make bench-mem`
// prints).
func BenchmarkFig9Slice(b *testing.B) {
	b.ReportAllocs()
	var totalEvents int64
	for i := 0; i < b.N; i++ {
		events, _, _ := allocSlice(b)
		totalEvents += events
	}
	b.ReportMetric(float64(totalEvents)/float64(b.N), "events/op")
}
