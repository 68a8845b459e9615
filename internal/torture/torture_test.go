package torture

import (
	"strings"
	"testing"
)

// A bounded sweep across every variant and safe mix finds no safety,
// liveness or conformance violation. The full-width sweep (≥100 scenarios)
// runs via `make torture`; this smoke keeps the same coverage shape at unit
// cost.
func TestSweepSafeMixesClean(t *testing.T) {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	res, err := Sweep(SweepConfig{Seeds: seeds, Requests: 10}, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	want := len(SweepVariants()) * len(SweepMixes()) * seeds
	if res.Scenarios != want {
		t.Fatalf("ran %d scenarios, want %d", res.Scenarios, want)
	}
	for _, f := range res.Failures {
		t.Errorf("%s/%s seed=%d: %s", f.Scenario.Variant, f.Scenario.Mix, f.Scenario.Seed, f.Err)
	}
}

// The five churn scenarios the full-depth sweep failed until ChurnChecker
// counted a step's own undispatched sends as in flight: each re-pinned its
// ghost term between a handler and its effects, then met a search message
// that "was never sent (or already consumed)". The sweep above runs seeds
// 1–2 only and never reaches them.
func TestChurnRepinCountsOwnSends(t *testing.T) {
	for _, sc := range []Scenario{
		{Variant: "linear", Mix: "join-storm", Seed: 4},
		{Variant: "linear", Mix: "leave-storm", Seed: 3},
		{Variant: "linear", Mix: "leave-storm", Seed: 4},
		{Variant: "linear", Mix: "churn-mix", Seed: 8},
		{Variant: "binsearch", Mix: "crash-regen", Seed: 6},
	} {
		if rep := Run(sc, nil); rep.Err != nil {
			t.Errorf("%s/%s seed=%d: %v", sc.Variant, sc.Mix, sc.Seed, rep.Err)
		}
	}
}

// The planted token-duplication bug (an unsafe mix that duplicates
// token-bearing messages) is caught, shrunk to a minimal counterexample —
// a single duplication suffices to break the single-token invariant — and
// the written artifact replays to the same violation.
func TestPlantedTokenDupCaughtShrunkReplayed(t *testing.T) {
	var rep Report
	sc := Scenario{Variant: "ring", Mix: "token-dup-bug", Requests: 12}
	for seed := uint64(1); seed <= 10; seed++ {
		sc.Seed = seed
		if rep = Run(sc, nil); rep.Err != nil {
			break
		}
	}
	if rep.Err == nil {
		t.Fatal("planted token-duplication bug never tripped any checker")
	}
	if !strings.Contains(rep.Err.Error(), "token count") {
		t.Fatalf("unexpected violation: %v", rep.Err)
	}

	f := Failure{Scenario: rep.Scenario, Schedule: rep.Schedule, Err: rep.Err.Error()}
	shrunk := Shrink(f)
	// Every action in this mix duplicates a token-bearing message, and any
	// single one already yields two tokens: the minimum is exactly 1.
	if got := len(shrunk.Schedule.Actions); got != 1 {
		t.Fatalf("shrunk schedule has %d actions, want 1 (from %d)",
			got, len(f.Schedule.Actions))
	}
	if rerep := shrunk.Reproduce(); rerep.Err == nil {
		t.Fatal("shrunk counterexample no longer reproduces")
	}

	path, err := WriteArtifact(t.TempDir(), shrunk)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Scenario != shrunk.Scenario || len(loaded.Schedule.Actions) != 1 {
		t.Fatalf("artifact round-trip mismatch: %+v", loaded)
	}
	if rerep := loaded.Reproduce(); rerep.Err == nil {
		t.Fatal("loaded artifact does not reproduce the violation")
	}
}

// The planted regeneration bug: with BuggyElection every recovery decider
// mints locally, so two suspicion timers deciding in one window produce two
// tokens under the SAME epoch. The token census catches it on the very
// step the second mint applies; the counterexample shrinks to the single
// crash event that kills the parked token (the clean plan has no other
// fault actions), and the written artifact replays to the same violation.
func TestPlantedRegenBugCaughtShrunkReplayed(t *testing.T) {
	var rep Report
	// MeanGap 1 bunches the requests: several nodes go pending before the
	// RecoveryTimeout fires, so multiple deciders share one decide window
	// and the buggy election double-mints within a single epoch.
	sc := Scenario{Variant: "linear", Mix: "churn-regen-bug", Requests: 12, MeanGap: 1}
	for seed := uint64(1); seed <= 10; seed++ {
		sc.Seed = seed
		if rep = Run(sc, nil); rep.Err != nil {
			break
		}
	}
	if rep.Err == nil {
		t.Fatal("planted regeneration bug never tripped the token census")
	}
	if !strings.Contains(rep.Err.Error(), "tokens in epoch") {
		t.Fatalf("unexpected violation: %v", rep.Err)
	}

	f := Failure{Scenario: rep.Scenario, Schedule: rep.Schedule, Err: rep.Err.Error()}
	shrunk := Shrink(f)
	if got := len(shrunk.Schedule.Churn); got != 1 {
		t.Fatalf("shrunk schedule has %d churn events, want 1 (the crash that loses the token)", got)
	}
	if got := len(shrunk.Schedule.Actions); got != 0 {
		t.Fatalf("shrunk schedule kept %d fault actions; the double mint needs none", got)
	}
	rerep := shrunk.Reproduce()
	if rerep.Err == nil || !strings.Contains(rerep.Err.Error(), "tokens in epoch") {
		t.Fatalf("shrunk counterexample no longer reproduces the double mint: %v", rerep.Err)
	}

	path, err := WriteArtifact(t.TempDir(), shrunk)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Scenario != shrunk.Scenario || len(loaded.Schedule.Churn) != 1 {
		t.Fatalf("artifact round-trip mismatch: %+v", loaded)
	}
	if rerep := loaded.Reproduce(); rerep.Err == nil {
		t.Fatal("loaded artifact does not reproduce the violation")
	}
	// The identical schedule under the FIXED election (crash-regen shares
	// the config minus BuggyElection) regenerates exactly one token and
	// passes conformance: the bug is in the election, not the harness.
	fixed := loaded
	fixed.Scenario.Mix = "crash-regen"
	if rep := fixed.Reproduce(); rep.Err != nil {
		t.Fatalf("fixed election fails under the planted-bug schedule: %v", rep.Err)
	}
}

// Replaying a recorded churn-mix schedule reproduces the run exactly —
// grants and checked steps — the property churn artifacts stand on.
func TestChurnReplayIsDeterministic(t *testing.T) {
	sc := Scenario{Variant: "binsearch", Mix: "churn-lossy", Seed: 5}
	orig := Run(sc, nil)
	if orig.Err != nil {
		t.Fatalf("policy run failed: %v", orig.Err)
	}
	if len(orig.Schedule.Churn) == 0 {
		t.Fatal("no churn events recorded in the schedule")
	}
	sched := orig.Schedule
	replayed := Run(sc, &sched)
	if replayed.Err != nil {
		t.Fatalf("replay failed: %v", replayed.Err)
	}
	if replayed.Grants != orig.Grants || replayed.Steps != orig.Steps {
		t.Fatalf("replay diverged: grants %d vs %d, steps %d vs %d",
			replayed.Grants, orig.Grants, replayed.Steps, orig.Steps)
	}
}

// Replaying a recorded safe-mix schedule reproduces the run exactly: same
// grants, no violation.
func TestReplayIsDeterministic(t *testing.T) {
	sc := Scenario{Variant: "binsearch", Mix: "lossy", N: 8, Seed: 7}
	orig := Run(sc, nil)
	if orig.Err != nil {
		t.Fatalf("policy run failed: %v", orig.Err)
	}
	sched := orig.Schedule
	replayed := Run(sc, &sched)
	if replayed.Err != nil {
		t.Fatalf("replay failed: %v", replayed.Err)
	}
	if replayed.Grants != orig.Grants || replayed.Steps != orig.Steps {
		t.Fatalf("replay diverged: grants %d vs %d, steps %d vs %d",
			replayed.Grants, orig.Grants, replayed.Steps, orig.Steps)
	}
}

// Malformed scenarios and sweeps fail up front with a diagnostic: no
// panic, no endless loop, and a rejected sweep runs no scenario.
func TestBadScenariosRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"unknown mix", Scenario{Variant: "ring", Mix: "no-such-mix"}, "unknown mix"},
		{"unknown variant", Scenario{Variant: "no-such-variant", Mix: "clean"}, "unknown variant"},
		{"one node", Scenario{Variant: "ring", Mix: "crash", N: 1}, "at least 2 nodes"},
		{"negative n", Scenario{Variant: "ring", Mix: "clean", N: -4}, "at least 2 nodes"},
		{"two-node churn", Scenario{Variant: "ring", Mix: "leave-storm", N: 2}, "at least 3 nodes"},
		{"two-node live churn", Scenario{Variant: "linear", Mix: "live-join", N: 2}, "at least 3 nodes"},
		{"negative requests", Scenario{Variant: "ring", Mix: "crash", Requests: -5}, "negative"},
		{"negative mean gap", Scenario{Variant: "ring", Mix: "clean", MeanGap: -1}, "negative"},
		{"negative cs time", Scenario{Variant: "ring", Mix: "clean", CSTime: -1}, "negative"},
		{"negative max time", Scenario{Variant: "ring", Mix: "clean", MaxTime: -1}, "negative"},
	} {
		rep := Run(tc.sc, nil)
		if rep.Err == nil || !strings.Contains(rep.Err.Error(), tc.want) {
			t.Errorf("Run %s: err = %v, want %q", tc.name, rep.Err, tc.want)
		}
		if rep.Grants != 0 {
			t.Errorf("Run %s: %d grants from a rejected scenario", tc.name, rep.Grants)
		}
	}

	for _, tc := range []struct {
		name string
		cfg  SweepConfig
		want string
	}{
		{"unsafe mix", SweepConfig{Mixes: []string{"token-dup-bug"}, Seeds: 1}, "planted bug"},
		{"negative seeds", SweepConfig{Mixes: []string{"clean"}, Seeds: -1}, "negative seed count"},
		{"negative n", SweepConfig{Seeds: 1, N: -1}, "at least 2 nodes"},
		{"one node", SweepConfig{Mixes: []string{"crash"}, Seeds: 1, N: 1}, "at least 2 nodes"},
		{"two-node churn", SweepConfig{Seeds: 1, N: 2}, "at least 3 nodes"},
		{"negative requests", SweepConfig{Seeds: 1, Requests: -5}, "negative"},
		// The bad mix comes last: nothing runs before it is found.
		{"late bad mix", SweepConfig{Mixes: []string{"clean", "no-such-mix"}, Seeds: 1}, "unknown mix"},
	} {
		ran := 0
		res, err := Sweep(tc.cfg, func(string, ...any) { ran++ })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Sweep %s: err = %v, want %q", tc.name, err, tc.want)
		}
		if res.Scenarios != 0 || ran != 0 {
			t.Errorf("Sweep %s: ran %d scenarios before rejecting", tc.name, res.Scenarios)
		}
	}
}
