package driver

import (
	"reflect"
	"testing"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/workload"
)

// A recorded fault schedule replays to the identical run: the foundation of
// torture artifacts and shrinking.
func TestFaultScheduleReplayReproducesRun(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.LinearSearch, N: 8, ResearchTimeout: 400}
	gen := workload.Poisson{N: 8, MeanGap: 30}

	inj, err := faults.NewInjector(faults.Plan{
		Seed: 99, DropCheap: 0.25, DupCheap: 0.15, JitterProb: 0.2, JitterMax: 5})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := New(cfg, Options{Seed: 4, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	end1, err := r1.RunWorkload(gen, 250, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := r1.Summarize(end1)
	sched := r1.FaultSchedule()
	if len(sched.Actions) == 0 {
		t.Fatal("no fault actions recorded")
	}

	r2, err := New(cfg, Options{Seed: 4, Faults: faults.Replay(sched)})
	if err != nil {
		t.Fatal(err)
	}
	end2, err := r2.RunWorkload(gen, 250, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Summarize(end2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay diverges:\npolicy %+v\nreplay %+v", want, got)
	}
}

// An unsafe plan that duplicates a token-bearing message trips the driver's
// own single-token invariant — the planted-bug detector the torture harness
// relies on.
func TestUnsafeTokenDuplicationTripsInvariant(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 6}
	inj, err := faults.NewInjector(faults.Plan{Seed: 12, Unsafe: true, DupToken: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(cfg, Options{Seed: 3, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunWorkload(workload.Poisson{N: 6, MeanGap: 50}, 200, 1_000_000)
	if err == nil && r.InvariantErr() == nil {
		t.Fatal("duplicated token went unnoticed")
	}
	if r.InvariantErr() == nil {
		t.Fatalf("expected invariant violation, got run error %v", err)
	}
}
