package torture

import (
	"strings"
	"testing"
)

// A bounded live sweep — real concurrent runtimes over the channel
// transport, conformance-checked — finds no violation. Mirrors
// TestSweepSafeMixesClean for the live scenario family.
func TestLiveSweepSafeMixesClean(t *testing.T) {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	res, err := Sweep(SweepConfig{
		Mixes:    SweepLiveMixes(),
		Variants: SweepLiveVariants(),
		Seeds:    seeds,
		Requests: 8,
	}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	want := len(SweepLiveVariants()) * len(SweepLiveMixes()) * seeds
	if res.Scenarios != want {
		t.Fatalf("ran %d scenarios, want %d", res.Scenarios, want)
	}
	for _, f := range res.Failures {
		t.Errorf("%s/%s seed=%d: %s", f.Scenario.Variant, f.Scenario.Mix, f.Scenario.Seed, f.Err)
	}
}

// The planted live token-duplication bug is caught by the conformance
// checker attached to the live hosts, shrunk to the single duplicating
// action, and the written artifact replays — on real runtimes — to the
// same violation.
func TestPlantedLiveTokenDupCaughtShrunkReplayed(t *testing.T) {
	sc := Scenario{Variant: "linear", Mix: "live-token-dup-bug", Seed: 3, Requests: 6}
	rep := Run(sc, nil)
	if rep.Err == nil {
		t.Fatal("planted live token-duplication bug never tripped the checker")
	}
	if !strings.Contains(rep.Err.Error(), "duplicated") {
		t.Fatalf("unexpected violation: %v", rep.Err)
	}

	f := Failure{Scenario: rep.Scenario, Schedule: rep.Schedule, Err: rep.Err.Error()}
	shrunk := Shrink(f)
	// One duplicated token-bearing message is already outside the spec:
	// the minimal counterexample is a single action.
	if got := len(shrunk.Schedule.Actions); got != 1 {
		t.Fatalf("shrunk schedule has %d actions, want 1 (from %d)",
			got, len(f.Schedule.Actions))
	}

	path, err := WriteArtifact(t.TempDir(), shrunk)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	rerep := loaded.Reproduce()
	if rerep.Err == nil {
		t.Fatal("loaded live artifact does not reproduce the violation")
	}
	if !strings.Contains(rerep.Err.Error(), "duplicated") {
		t.Fatalf("replayed violation differs: %v", rerep.Err)
	}
}

// Replaying a recorded live-mix schedule reproduces a clean run: the
// dispatch sequence of the single-chain workload is deterministic even on
// wall clocks, so the recorded decisions land on the same messages.
func TestLiveReplayIsDeterministic(t *testing.T) {
	sc := Scenario{Variant: "linear", Mix: "live-lossy", N: 4, Seed: 9, Requests: 8}
	orig := Run(sc, nil)
	if orig.Err != nil {
		t.Fatalf("policy run failed: %v", orig.Err)
	}
	if len(orig.Schedule.Actions) == 0 {
		t.Fatal("lossy live run recorded no fault actions")
	}
	sched := orig.Schedule
	replayed := Run(sc, &sched)
	if replayed.Err != nil {
		t.Fatalf("replay failed: %v", replayed.Err)
	}
	if replayed.Grants != orig.Grants {
		t.Fatalf("replay diverged: grants %d vs %d", replayed.Grants, orig.Grants)
	}
}

// Live crash-regeneration end to end: the parked token holder fail-stops
// on real runtimes, the §5 suspicion timers, probe round and election run
// on real wall clocks, every surviving request is still served, and the
// post-repair chain is conformance-checked again (Steps > 0 proves the
// checker re-pinned after the stutter window instead of going dark).
func TestLiveCrashRegenerates(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock recovery timeout in -short mode")
	}
	rep := Run(Scenario{Variant: "linear", Mix: "live-crash-regen", Seed: 1, Requests: 8}, nil)
	if rep.Err != nil {
		t.Fatalf("live crash-regen failed: %v", rep.Err)
	}
	if rep.Grants != 8 {
		t.Fatalf("grants = %d, want 8 (every surviving request served across the repair)", rep.Grants)
	}
	if rep.Steps == 0 {
		t.Fatal("no conformance-checked steps; the checker never re-pinned after the crash")
	}
}

// Replaying a recorded live churn schedule reproduces the run: membership
// events key off chain positions (not wall-clock times), so the chain —
// and with it every grant — is deterministic on real runtimes too.
func TestLiveChurnReplayIsDeterministic(t *testing.T) {
	sc := Scenario{Variant: "linear", Mix: "live-leave", Seed: 3, Requests: 8}
	orig := Run(sc, nil)
	if orig.Err != nil {
		t.Fatalf("policy run failed: %v", orig.Err)
	}
	sched := orig.Schedule
	replayed := Run(sc, &sched)
	if replayed.Err != nil {
		t.Fatalf("replay failed: %v", replayed.Err)
	}
	if replayed.Grants != orig.Grants {
		t.Fatalf("replay diverged: grants %d vs %d", replayed.Grants, orig.Grants)
	}
}

// A live run is rule-checked, not only served: without churn one pinned
// segment checks the whole chain, with churn one segment per stable epoch.
// A runner that never pinned would pass every sweep with zero checked
// steps.
func TestLiveRunsCheckSteps(t *testing.T) {
	for _, mix := range []string{"live-clean", "live-leave"} {
		rep := Run(Scenario{Variant: "linear", Mix: mix, Seed: 1, Requests: 8}, nil)
		if rep.Err != nil {
			t.Fatalf("%s: %v", mix, rep.Err)
		}
		if rep.Steps == 0 {
			t.Fatalf("%s: no conformance-checked steps", mix)
		}
	}
}

// Live scenarios reject variants whose grants race the wall clock: ring
// (rotation-served) and binary search (trap-sprung by token movement).
func TestLiveRejectsNonDeterministicVariants(t *testing.T) {
	for _, v := range []string{"ring", "binsearch"} {
		if rep := Run(Scenario{Variant: v, Mix: "live-clean"}, nil); rep.Err == nil {
			t.Fatalf("live mix accepted the %s variant", v)
		}
	}
}
