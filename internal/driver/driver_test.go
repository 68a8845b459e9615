package driver

import (
	"math"
	"reflect"
	"testing"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// seedSalt keeps the injector seeds of the loss/duplication tests at the
// values their goldens and thresholds were tuned on.
const seedSalt = 0x5bd1e995c3b7c0de

// mustInjector builds a policy-mode injector for an explicit fault plan,
// the one way to configure loss/duplication.
func mustInjector(t *testing.T, p faults.Plan) *faults.Injector {
	t.Helper()
	inj, err := faults.NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func run(t *testing.T, cfg protocol.Config, opts Options, gen workload.Generator, count int) (*Runner, Result) {
	t.Helper()
	r, err := New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	end, err := r.RunWorkload(gen, count, 10_000_000)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Variant, err)
	}
	return r, r.Summarize(end)
}

func allVariants(n int) []protocol.Config {
	return []protocol.Config{
		{Variant: protocol.RingToken, N: n},
		{Variant: protocol.LinearSearch, N: n},
		{Variant: protocol.BinarySearch, N: n},
		{Variant: protocol.DirectedSearch, N: n},
		{Variant: protocol.PushProbe, N: n, PushWait: 2},
		{Variant: protocol.Combined, N: n, PushWait: 2},
	}
}

// TestAllVariantsServeAllRequests is the core liveness check: every variant
// serves every request under a moderate Poisson load, and the single-token
// invariant holds throughout.
func TestAllVariantsServeAllRequests(t *testing.T) {
	for _, cfg := range allVariants(16) {
		cfg := cfg
		t.Run(cfg.Variant.String(), func(t *testing.T) {
			r, res := run(t, cfg, Options{Seed: 42},
				workload.Poisson{N: 16, MeanGap: 20}, 300)
			if res.Grants != res.Issued {
				t.Errorf("grants = %d, issued = %d", res.Grants, res.Issued)
			}
			if res.Grants+res.Coalesced != 300 {
				t.Errorf("grants+coalesced = %d, want 300", res.Grants+res.Coalesced)
			}
			if err := r.InvariantErr(); err != nil {
				t.Error(err)
			}
			if r.TokenCount() != 1 {
				t.Errorf("final token count = %d", r.TokenCount())
			}
		})
	}
}

// TestBinarySearchBeatsRingUnderLightLoad reproduces the headline claim in
// miniature: with rare requests on a 64-ring, the ring baseline waits ~N/2
// while binary search waits ~log N.
func TestBinarySearchBeatsRingUnderLightLoad(t *testing.T) {
	gen := workload.Poisson{N: 64, MeanGap: 2000} // effectively idle system
	_, ringRes := run(t, protocol.Config{Variant: protocol.RingToken, N: 64},
		Options{Seed: 7}, gen, 200)
	_, binRes := run(t, protocol.Config{Variant: protocol.BinarySearch, N: 64},
		Options{Seed: 7}, gen, 200)

	if ringRes.Waits.Mean < 20 {
		t.Errorf("ring mean wait = %.1f, expected ≈ N/2 = 32", ringRes.Waits.Mean)
	}
	logN := math.Log2(64)
	if binRes.Waits.Mean > 4*logN {
		t.Errorf("binsearch mean wait = %.1f, want ≲ 4·log₂N = %.1f", binRes.Waits.Mean, 4*logN)
	}
	if binRes.Waits.Mean >= ringRes.Waits.Mean/2 {
		t.Errorf("binsearch (%.1f) should clearly beat ring (%.1f)",
			binRes.Waits.Mean, ringRes.Waits.Mean)
	}
}

// TestSearchHopBound checks Lemma 6 operationally: the gimme of a single
// requester reaches the holder within O(log N) search messages.
func TestSearchHopBound(t *testing.T) {
	const n = 256
	gen := workload.Poisson{N: n, MeanGap: 5000}
	_, res := run(t, protocol.Config{Variant: protocol.BinarySearch, N: n},
		Options{Seed: 11}, gen, 100)
	searches := float64(res.Messages["search"])
	perRequest := searches / 100
	if perRequest > 2*math.Log2(n) {
		t.Errorf("search messages per request = %.1f, want ≤ 2·log₂N = %.1f",
			perRequest, 2*math.Log2(n))
	}
}

// TestSaturationThroughput: when every node is always ready, the hybrid
// must match the ring's rotation throughput (the paper's "maintains high
// throughput in busy systems").
func TestSaturationThroughput(t *testing.T) {
	for _, cfg := range []protocol.Config{
		{Variant: protocol.RingToken, N: 8},
		{Variant: protocol.BinarySearch, N: 8},
	} {
		gen := &workload.AllAtOnce{N: 8, At: 1}
		_, res := run(t, cfg, Options{Seed: 3}, gen, 8)
		// All eight grants happen within ~2 hops each (token travels
		// at one hop per time unit plus delivery detours).
		if res.Responsiveness.Max > 6 {
			t.Errorf("%s: saturated responsiveness max = %.0f", cfg.Variant, res.Responsiveness.Max)
		}
	}
}

// TestCheapMessageLossIsSafe drops half of all cheap messages; with the
// re-search timeout the system still serves everything (the paper's
// expensive/cheap message split).
func TestCheapMessageLossIsSafe(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.BinarySearch, N: 32, ResearchTimeout: 100}
	inj := mustInjector(t, faults.Plan{Seed: 13 ^ seedSalt, DropCheap: 0.5})
	r, res := run(t, cfg, Options{Seed: 13, Faults: inj},
		workload.Poisson{N: 32, MeanGap: 50}, 200)
	if res.Grants != res.Issued {
		t.Errorf("grants = %d, issued = %d", res.Grants, res.Issued)
	}
	if err := r.InvariantErr(); err != nil {
		t.Error(err)
	}
	if res.Messages["dropped"] == 0 {
		t.Error("fault injection did not drop anything")
	}
}

// TestCheapMessageDuplicationIsSafe duplicates a third of all cheap
// messages: duplicate searches re-trap idempotently and duplicate replies
// are ignored — cheap messages truly carry no delivery guarantees.
func TestCheapMessageDuplicationIsSafe(t *testing.T) {
	for _, v := range []protocol.Variant{protocol.BinarySearch, protocol.DirectedSearch} {
		cfg := protocol.Config{Variant: v, N: 24, TrapGC: protocol.GCRotation}
		inj := mustInjector(t, faults.Plan{Seed: 19 ^ seedSalt, DupCheap: 0.33})
		r, res := run(t, cfg, Options{Seed: 19, Faults: inj},
			workload.Poisson{N: 24, MeanGap: 15}, 250)
		if res.Grants != res.Issued {
			t.Errorf("%s: grants = %d, issued = %d", v, res.Grants, res.Issued)
		}
		if err := r.InvariantErr(); err != nil {
			t.Errorf("%s: %v", v, err)
		}
		if res.Messages["duplicated"] == 0 {
			t.Errorf("%s: fault injection did not duplicate anything", v)
		}
	}
}

// TestTotalCheapLossStillLive: even with EVERY cheap message dropped the
// rotating token alone serves all requests — the paper's "the system
// remains correct even if no cheap message is ever sent".
func TestTotalCheapLossStillLive(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.BinarySearch, N: 16}
	inj := mustInjector(t, faults.Plan{Seed: 17 ^ seedSalt, DropCheap: 1.0})
	_, res := run(t, cfg, Options{Seed: 17, Faults: inj},
		workload.Poisson{N: 16, MeanGap: 40}, 100)
	if res.Grants != res.Issued {
		t.Errorf("grants = %d, issued = %d", res.Grants, res.Issued)
	}
	// Without searches the waits degrade toward ring behavior — that's
	// the price, not a bug.
}

// TestDeterminism: identical seeds give identical runs; different seeds
// (almost surely) differ.
func TestDeterminism(t *testing.T) {
	mk := func(seed uint64) Result {
		cfg := protocol.Config{Variant: protocol.BinarySearch, N: 32}
		_, res := run(t, cfg, Options{Seed: seed},
			workload.Poisson{N: 32, MeanGap: 15}, 250)
		return res
	}
	a, b, c := mk(99), mk(99), mk(100)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ")
	}
}

// TestFairnessBound approximates Theorem 3: while a node waits under heavy
// contention, no single other node possesses the token a pathological
// number of times.
func TestFairnessBound(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.BinarySearch, N: 16}
	r, _ := run(t, cfg, Options{Seed: 23, TrackFairness: true, CSTime: 2},
		workload.Poisson{N: 16, MeanGap: 3}, 400)
	max := r.Fair.MaxSummary()
	if max.Count == 0 {
		t.Fatal("no fairness samples")
	}
	// Theorem 3 bound is log N possessions by any single node (FIFO
	// traps); allow slack for rotation possessions, which the theorem
	// counts separately.
	if max.Max > 3*math.Log2(16)+6 {
		t.Errorf("max possessions by one node while waiting = %.0f", max.Max)
	}
	// Total possessions while waiting: Theorem 3's N bound counts ring
	// possessions; decorated deliveries and their returns inflate the
	// operational count, so allow a constant factor.
	tot := r.Fair.TotalSummary()
	if tot.Max > 12*16 {
		t.Errorf("total possessions while waiting = %.0f", tot.Max)
	}
}

// TestAdaptiveSpeedQuiescesIdleSystem: with adaptive hold, an idle system's
// token settles into long holds (few token hops), yet requests still get
// served quickly via search.
func TestAdaptiveSpeedQuiescesIdleSystem(t *testing.T) {
	base := protocol.Config{Variant: protocol.BinarySearch, N: 32}
	adaptive := base
	adaptive.AdaptiveSpeed = true
	adaptive.MinHold = 1
	adaptive.MaxHold = 256

	gen := workload.Poisson{N: 32, MeanGap: 500}
	_, busy := run(t, base, Options{Seed: 31}, gen, 100)
	_, calm := run(t, adaptive, Options{Seed: 31}, gen, 100)

	if calm.Messages["token"] >= busy.Messages["token"]/2 {
		t.Errorf("adaptive speed should slash token hops: %d vs %d",
			calm.Messages["token"], busy.Messages["token"])
	}
	if calm.Waits.Mean > 6*math.Log2(32) {
		t.Errorf("adaptive waits degraded: mean = %.1f", calm.Waits.Mean)
	}
}

// TestTrapGCReducesBouncedDeliveries: rotation GC ages stale traps so fewer
// vacuous decorated deliveries happen than with no GC.
func TestTrapGCReducesBouncedDeliveries(t *testing.T) {
	gen := workload.Poisson{N: 32, MeanGap: 8}
	mk := func(gc protocol.GCMode) Result {
		cfg := protocol.Config{Variant: protocol.BinarySearch, N: 32, TrapGC: gc, TrapTTLRounds: 32}
		_, res := run(t, cfg, Options{Seed: 37}, gen, 500)
		return res
	}
	none := mk(protocol.GCNone)
	rot := mk(protocol.GCRotation)
	inv := mk(protocol.GCInverse)
	// Bounces show up as extra token-return messages beyond one per grant.
	if rot.Messages["token-return"] > none.Messages["token-return"] {
		t.Errorf("rotation GC should not increase deliveries: %d vs %d",
			rot.Messages["token-return"], none.Messages["token-return"])
	}
	for _, res := range []Result{none, rot, inv} {
		if res.Grants != res.Issued {
			t.Errorf("grants = %d, issued = %d", res.Grants, res.Issued)
		}
	}
}

// TestRunnerErrors exercises error paths.
func TestRunnerErrors(t *testing.T) {
	if _, err := New(protocol.Config{}, Options{}); err == nil {
		t.Error("invalid config must fail")
	}
	r, err := New(protocol.Config{Variant: protocol.BinarySearch, N: 4}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Empty workload is a no-op.
	end, err := r.RunWorkload(workload.Poisson{N: 4, MeanGap: 5}, 0, 1000)
	if err != nil || end != 0 {
		t.Errorf("empty workload: end=%d err=%v", end, err)
	}
	// Request in the past fails.
	r.Engine().RunUntil(10)
	if err := r.Request(1, 0); err == nil {
		t.Error("past request must fail")
	}
}

// TestHotspotAndBurstyWorkloads sanity-check the remaining generators end
// to end.
func TestHotspotAndBurstyWorkloads(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.BinarySearch, N: 16}
	_, res := run(t, cfg, Options{Seed: 41},
		Hotspot(16), 200)
	if res.Grants != res.Issued || res.Coalesced == 0 {
		t.Errorf("hotspot grants = %d issued = %d coalesced = %d", res.Grants, res.Issued, res.Coalesced)
	}
	_, res2 := run(t, cfg, Options{Seed: 43},
		&workload.Bursty{N: 16, BurstSize: 5, WithinGap: 1, IdleGap: 300}, 200)
	if res2.Grants != res2.Issued {
		t.Errorf("bursty grants = %d issued = %d", res2.Grants, res2.Issued)
	}
}

// Hotspot returns a hotspot generator for n nodes.
func Hotspot(n int) workload.Generator {
	return workload.Hotspot{N: n, MeanGap: 25, Hot: 3, HotFrac: 0.7}
}

// TestCSTimeDelaysRelease: a nonzero critical-section time shows up in the
// waits of contending requests.
func TestCSTimeDelaysRelease(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.BinarySearch, N: 8}
	// AllAtOnce is stateful: each run needs a fresh generator.
	_, fast := run(t, cfg, Options{Seed: 47}, &workload.AllAtOnce{N: 8, At: 1}, 8)
	_, slow := run(t, cfg, Options{Seed: 47, CSTime: 50}, &workload.AllAtOnce{N: 8, At: 1}, 8)
	if slow.Waits.Max <= fast.Waits.Max {
		t.Errorf("CS time must lengthen waits: %0.f vs %0.f", slow.Waits.Max, fast.Waits.Max)
	}
}

// TestVariableDelayModels: the protocols stay correct under jittery
// delivery delays.
func TestVariableDelayModels(t *testing.T) {
	for _, dm := range []sim.DelayModel{
		sim.UniformDelay{Min: 1, Max: 5},
		sim.ExponentialDelay{Mean: 2},
	} {
		cfg := protocol.Config{Variant: protocol.BinarySearch, N: 16, ResearchTimeout: 200}
		r, res := run(t, cfg, Options{Seed: 53, Delay: dm},
			workload.Poisson{N: 16, MeanGap: 30}, 150)
		if res.Grants != res.Issued {
			t.Errorf("grants = %d, issued = %d", res.Grants, res.Issued)
		}
		if err := r.InvariantErr(); err != nil {
			t.Error(err)
		}
	}
}
