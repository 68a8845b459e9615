package driver

import (
	"testing"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
)

// traceRecorder is a minimal Observer collecting steps and fault events.
type traceRecorder struct {
	steps  []Step
	faults []FaultEvent
}

func (tr *traceRecorder) OnStep(s Step)        { tr.steps = append(tr.steps, s) }
func (tr *traceRecorder) OnFault(f FaultEvent) { tr.faults = append(tr.faults, f) }

// Pausing a node mid-token-handoff holds the token (still counted in
// flight) until resume; rotation then continues and every request is
// served. The token census stays clean throughout.
func TestPauseMidTokenHandoff(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 8}
	inj, err := faults.NewInjector(faults.Plan{
		Pauses: []faults.Pause{{Node: 4, At: 2, Dur: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &traceRecorder{}
	r, err := New(cfg, Options{Seed: 6, Faults: inj, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Token starts at node 0, one hop per unit: it reaches node 4 at t=4,
	// inside the pause window [2, 52).
	if err := r.Request(10, 6); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(5_000)

	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved after pause window", r.Waits.Outstanding())
	}
	if r.TokenCount() != 1 {
		t.Fatalf("token count = %d", r.TokenCount())
	}
	// The handoff to node 4 must have been held across the pause: no
	// delivery at node 4 before t=52, at least one after.
	var before, after bool
	for _, s := range rec.steps {
		if s.Kind == StepDeliver && s.Node == 4 {
			if s.At < 52 {
				before = true
			} else {
				after = true
			}
		}
	}
	if before || !after {
		t.Fatalf("pause did not hold deliveries (before=%v after=%v)", before, after)
	}
	var sawPause, sawResume bool
	for _, f := range rec.faults {
		sawPause = sawPause || f.Kind == FaultPause
		sawResume = sawResume || f.Kind == FaultResume
	}
	if !sawPause || !sawResume {
		t.Fatalf("pause/resume fault events missing: %+v", rec.faults)
	}
}

// Pausing the node the token is parked at long enough for the recovery
// timeout drives protocol/recovery.go: probes find no holder, a fresh token
// is minted (epoch bump), and the stale token is discarded after resume.
// The stale and the fresh token coexist under distinct epochs, which the
// census allows; two of one epoch it would not.
func TestPauseHolderTriggersRecovery(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.BinarySearch, N: 8, RecoveryTimeout: 100}
	inj, err := faults.NewInjector(faults.Plan{
		Pauses: []faults.Pause{{Node: 3, At: 2, Dur: 600}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(cfg, Options{Seed: 8, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	// The token is captured by node 3's pause at t=3; node 6's request
	// at t=10 times out and regenerates.
	if err := r.Request(10, 6); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(10_000)

	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved after recovery", r.Waits.Outstanding())
	}
	if got := r.Msgs.Snapshot()["recovery-probe"]; got == 0 {
		t.Fatal("no recovery probes sent while holder paused")
	}
	// The stale token dies on its first hop after resume (epoch check),
	// leaving exactly one.
	if c := r.TokenCount(); c != 1 {
		t.Fatalf("token count after recovery settled = %d, want 1", c)
	}
}

// Pausing a node on the search path mid-search holds gimmes (not loses
// them): they drain at resume and the request is still served, with
// research re-issues covering the gap.
func TestPauseMidSearch(t *testing.T) {
	cfg := protocol.Config{
		Variant:         protocol.BinarySearch,
		N:               8,
		ResearchTimeout: 60,
	}
	// Node 1's gimme goes across the ring to node 1+4=5; pause it so the
	// search stalls there.
	inj, err := faults.NewInjector(faults.Plan{
		Pauses: []faults.Pause{{Node: 5, At: 5, Dur: 300}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &traceRecorder{}
	r, err := New(cfg, Options{Seed: 2, Faults: inj, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Request(20, 1); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(5_000)

	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved after mid-search pause", r.Waits.Outstanding())
	}
	// The held gimmes must drain after resume.
	var heldSearch bool
	for _, s := range rec.steps {
		if s.Kind == StepDeliver && s.Node == 5 && s.Msg != nil &&
			s.Msg.Kind == protocol.MsgSearch && s.At >= 305 {
			heldSearch = true
		}
	}
	if !heldSearch {
		t.Fatal("no search delivery drained at node 5 after resume")
	}
}

// Crash (not pause) while a gimme is in flight toward the dying node: the
// search dies with it, but — because Kill routes through membership — the
// survivors' view heals immediately, rotation skips the corpse, and the
// token is never lost. The re-search timer covers the dead gimme; no §5
// recovery is ever needed. (Before the churn engine, the corpse stayed in
// everyone's ring view forever and the token black-holed there — the
// latent Kill gap this pins shut.)
func TestCrashWithGimmeInFlight(t *testing.T) {
	cfg := protocol.Config{
		Variant:         protocol.BinarySearch,
		N:               8,
		ResearchTimeout: 80,
		RecoveryTimeout: 150,
	}
	r, err := New(cfg, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 requests at t=18; its gimme heads for node 5 (one hop of
	// delay) and node 5 dies at t=19, exactly while the gimme is in
	// flight — the kill event was enqueued first, so it wins the tie.
	if err := r.Request(18, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Kill(19, 5); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(5_000)

	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved after crash with gimme in flight", r.Waits.Outstanding())
	}
	// The view healed before the token could rotate into the corpse, so
	// the original token survived: no probes, no regeneration, epoch 0.
	if got := r.Msgs.Snapshot()["recovery-probe"]; got != 0 {
		t.Fatalf("%d recovery probes sent; the healed view should have kept the token alive", got)
	}
	if c := r.TokenCount(); c != 1 {
		t.Fatalf("token count = %d, want 1", c)
	}
	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.N; i++ {
		if i != 5 && r.Node(i).Epoch() != 0 {
			t.Fatalf("node %d at epoch %d; no regeneration should have happened", i, r.Node(i).Epoch())
		}
	}
}

// Pause validation errors.
func TestPauseValidation(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 4}
	r, err := New(cfg, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Pause(1, 9, 10); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := r.Pause(1, 0, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}
