package conformance

import (
	"strings"
	"testing"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/spec"
	"adaptivetoken/internal/trs"
	"adaptivetoken/internal/workload"
)

// checkedConfigs are the spec-checkable protocol configurations: the three
// Figure 5–7 systems with GCNone and no recovery. HoldIdle slows rotation so
// ghost histories stay small enough for the quadratic invariant checks.
func checkedConfigs() map[string]protocol.Config {
	return map[string]protocol.Config{
		"ring":      {Variant: protocol.RingToken, N: 5, HoldIdle: 3},
		"linear":    {Variant: protocol.LinearSearch, N: 5, HoldIdle: 3, ResearchTimeout: 200},
		"binsearch": {Variant: protocol.BinarySearch, N: 8, HoldIdle: 3, ResearchTimeout: 150},
	}
}

// runChecked drives one traced simulation through a fresh checker and
// returns the checker plus the run error.
func runChecked(t *testing.T, cfg protocol.Config, plan faults.Plan, seed uint64) (*Checker, error) {
	t.Helper()
	chk, err := New(cfg)
	if err != nil {
		t.Fatalf("checker for %s: %v", cfg.Variant, err)
	}
	plan.Seed = seed ^ 0xc0ffee
	inj, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	r, err := driver.New(cfg, driver.Options{Seed: seed, Faults: inj, Observer: chk})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := r.RunWorkload(workload.Poisson{N: cfg.N, MeanGap: 25}, 30, 4_000)
	return chk, runErr
}

// Every fault-free run of the three modeled protocols is a trace of its spec
// system: each step maps to a rule and the ghost state stays safe.
func TestCleanRunsConform(t *testing.T) {
	for name, cfg := range checkedConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			chk, runErr := runChecked(t, cfg, faults.Plan{}, 42)
			if runErr != nil {
				t.Fatalf("run failed: %v", runErr)
			}
			if err := chk.Finish(); err != nil {
				t.Fatalf("conformance: %v", err)
			}
			if chk.Steps() == 0 {
				t.Fatal("checker saw no steps")
			}
		})
	}
}

// Heavy cheap-message loss, duplication and jitter stay within the lossy
// spec systems: drops map to rule L, duplicates to rule D, and every request
// is still served (the paper's fault-tolerance claim, checked per step).
func TestLossyRunsConform(t *testing.T) {
	plan := faults.Plan{DropCheap: 0.3, DupCheap: 0.25, JitterProb: 0.2, JitterMax: 4}
	for name, cfg := range checkedConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				chk, runErr := runChecked(t, cfg, plan, seed)
				if runErr != nil {
					t.Fatalf("seed %d: run failed: %v", seed, runErr)
				}
				if err := chk.Finish(); err != nil {
					t.Fatalf("seed %d: conformance: %v", seed, err)
				}
			}
		})
	}
}

// An unsafely duplicated token-bearing message has no spec rule: the checker
// flags it the moment the fault fires (independently of the driver's own
// token-count invariant).
func TestUnsafeTokenDuplicationFlagged(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 6}
	chk, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.Plan{Seed: 5, Unsafe: true, DupToken: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := driver.New(cfg, driver.Options{Seed: 9, Faults: inj, Observer: chk})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = r.RunWorkload(workload.Poisson{N: 6, MeanGap: 40}, 100, 100_000)
	if chk.Err() == nil {
		t.Fatal("duplicated token not flagged by the conformance checker")
	}
	if !strings.Contains(chk.Err().Error(), "duplicated") {
		t.Fatalf("unexpected violation: %v", chk.Err())
	}
}

// A forged trace step — a delivery of a message that was never sent — is
// rejected.
func TestForgedDeliveryRejected(t *testing.T) {
	chk, err := New(protocol.Config{Variant: protocol.RingToken, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := protocol.Message{Kind: protocol.MsgToken, From: 0, To: 1, Round: 1}
	chk.OnStep(host.Step{Kind: host.StepDeliver, Node: 1, Msg: &m})
	if chk.Err() == nil {
		t.Fatal("forged token delivery accepted")
	}
}

// Configurations outside the modeled Figure 5–7 systems are rejected up
// front rather than mis-checked.
func TestUnsupportedConfigsRejected(t *testing.T) {
	bad := []protocol.Config{
		{Variant: protocol.DirectedSearch, N: 6},
		{Variant: protocol.PushProbe, N: 6},
		{Variant: protocol.Combined, N: 6},
		{Variant: protocol.BinarySearch, N: 6, TrapGC: protocol.GCRotation},
		{Variant: protocol.BinarySearch, N: 6, TrapGC: protocol.GCInverse},
		{Variant: protocol.BinarySearch, N: 6, RecoveryTimeout: 100},
		{Variant: protocol.RingToken, N: 1},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// Every checker starts from bootstrapPin rather than from a spec system's
// Init, so the two must be one term: node 0 holding the token, every count
// zero, nothing ready and no trap set, over rings of 2 to 5 nodes.
func TestBootstrapPinIsSpecInit(t *testing.T) {
	for n := 2; n <= 5; n++ {
		p := spec.Params{N: n, MaxBroadcasts: unbounded, MaxPending: unbounded, MaxPasses: unbounded}
		for _, tc := range []struct {
			sys    trs.System
			pinned func(spec.Pin) (trs.Term, error)
		}{
			{spec.NewSystemSearchLossy(p, spec.CheckerBounds()), spec.PinnedSearchInit},
			{spec.NewSystemBinarySearchLossy(p, spec.CheckerBounds()), spec.PinnedBinarySearchInit},
		} {
			got, err := tc.pinned(bootstrapPin(n))
			if err != nil {
				t.Fatalf("%s n=%d: %v", tc.sys.Name, n, err)
			}
			if !trs.Equal(tc.sys.Init, got) {
				t.Errorf("%s n=%d: pinned bootstrap %v, spec init %v", tc.sys.Name, n, got, tc.sys.Init)
			}
		}
	}
}
