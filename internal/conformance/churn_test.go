package conformance_test

import (
	"testing"

	"adaptivetoken/internal/conformance"
	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/workload"
)

// A join storm under the churn checker: each join opens a stutter window,
// each committed view re-pins, and rule-by-rule checking resumes over the
// widened ring. Finish proves the run ends in a stable epoch.
func TestChurnCheckerJoinRepins(t *testing.T) {
	// HoldIdle parks the token between hops: parked instants are the only
	// stable-epoch pin points (a token in flight is never "stably held").
	cfg := protocol.Config{Variant: protocol.RingToken, N: 8, HoldIdle: 3}
	chk, err := conformance.NewChurn(cfg, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.Plan{Churn: []faults.ChurnEvent{
		{Op: faults.ChurnJoin, Node: 4, At: 200},
		{Op: faults.ChurnJoin, Node: 5, At: 500},
		{Op: faults.ChurnJoin, Node: 6, At: 800},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := driver.New(cfg, driver.Options{
		Seed: 21, Observer: chk, Faults: inj, InitialMembers: []int{0, 1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	chk.Bind(r.ChurnSnapshot)
	if _, err := r.RunWorkload(workload.Poisson{N: cfg.N, MeanGap: 30}, 50, 60_000); err != nil {
		t.Fatal(err)
	}
	if err := chk.Finish(); err != nil {
		t.Fatalf("conformance across joins: %v", err)
	}
	if chk.Windows() < 3 || chk.Repins() < 3 {
		t.Fatalf("windows=%d repins=%d; every join must stutter and re-pin", chk.Windows(), chk.Repins())
	}
	if chk.Steps() == 0 || chk.SeenSteps() <= chk.Steps() {
		t.Fatalf("checked %d of %d steps; stuttering must skip only churn windows", chk.Steps(), chk.SeenSteps())
	}
}

// Graceful leaves under the churn checker: trap tables shed departed
// requesters, the spec ring contracts, and checking resumes over the
// shrunken view with live-ring routing mapping back onto spec positions.
func TestChurnCheckerLeaveRepins(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.LinearSearch, N: 6, HoldIdle: 3, ResearchTimeout: 150}
	chk, err := conformance.NewChurn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.Plan{Churn: []faults.ChurnEvent{
		{Op: faults.ChurnLeave, Node: 3, At: 300},
		{Op: faults.ChurnLeave, Node: 5, At: 700},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := driver.New(cfg, driver.Options{Seed: 4, Observer: chk, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	chk.Bind(r.ChurnSnapshot)
	if _, err := r.RunWorkload(workload.Poisson{N: cfg.N, MeanGap: 25}, 40, 60_000); err != nil {
		t.Fatal(err)
	}
	if err := chk.Finish(); err != nil {
		t.Fatalf("conformance across leaves: %v", err)
	}
	if chk.Repins() < 2 {
		t.Fatalf("repins=%d; both leaves must re-pin", chk.Repins())
	}
}

// Crash-then-regenerate under the churn checker: the kill opens a window
// that spans the whole §5 probe/election flow, the re-pin lands only once
// the regenerated token is stably held in the bumped epoch, and the steps
// checked AFTER the re-pin grow as post-regeneration traffic is validated
// rule-by-rule.
func TestChurnCheckerCrashRegeneration(t *testing.T) {
	cfg := protocol.Config{
		Variant:         protocol.LinearSearch,
		N:               6,
		HoldIdle:        3,
		ResearchTimeout: 150,
		RecoveryTimeout: 150,
	}
	chk, err := conformance.NewChurn(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := driver.New(cfg, driver.Options{Seed: 13, Observer: chk})
	if err != nil {
		t.Fatal(err)
	}
	chk.Bind(r.ChurnSnapshot)
	// Crash the bootstrap holder while it still parks the token: the token
	// dies with it, recovery elects the coordinator, and a fresh token is
	// minted under epoch 1.
	if err := r.Crash(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(10, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(10, 4); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(5_000)
	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	if chk.Repins() == 0 {
		t.Fatal("no re-pin after regeneration settled")
	}
	mid := chk.Steps()

	// Post-regeneration traffic must be checked, not stuttered.
	if err := r.Request(5_010, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(5_020, 3); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(10_000)
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved after regeneration", r.Waits.Outstanding())
	}
	if err := chk.Finish(); err != nil {
		t.Fatalf("conformance across regeneration: %v", err)
	}
	if chk.Steps() <= mid {
		t.Fatalf("steps stuck at %d after re-pin; post-regeneration trace was not checked", mid)
	}
	if chk.Windows() == 0 {
		t.Fatal("the crash never opened a stutter window")
	}
}

// Constructor guards.
func TestChurnCheckerValidation(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 4}
	if _, err := conformance.NewChurn(cfg, []int{1, 2}); err == nil {
		t.Fatal("initial view without node 0 accepted")
	}
	bad := cfg
	bad.TrapGC = protocol.GCRotation
	if _, err := conformance.NewChurn(bad, nil); err == nil {
		t.Fatal("trap GC accepted; the spec systems do not model it")
	}
}
