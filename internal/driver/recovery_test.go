package driver

import (
	"testing"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// TestRecoveryRegeneratesLostToken kills the token holder; a later request
// times out, probes the ring, regenerates the token, and service resumes.
func TestRecoveryRegeneratesLostToken(t *testing.T) {
	cfg := protocol.Config{
		Variant:         protocol.BinarySearch,
		N:               8,
		RecoveryTimeout: 100,
	}
	r, err := New(cfg, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The token starts at node 0 and moves one hop per time unit, so
	// node 3 holds it at t=3. Kill node 3 then: the token dies with it.
	if err := r.Kill(3, 3); err != nil {
		t.Fatal(err)
	}
	// Requests arrive after the crash.
	for i, node := range []int{5, 1, 6} {
		if err := r.Request(sim.Time(10+i*7), node); err != nil {
			t.Fatal(err)
		}
	}
	r.Engine().RunUntil(5_000)

	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d requests still unserved after recovery window", r.Waits.Outstanding())
	}
	if got := r.Msgs.Snapshot()["recovery-probe"]; got == 0 {
		t.Error("no recovery probes were sent")
	}
	// With the dead node still in the ring, rotation eventually hands the
	// token to it again and loses it — recovery only re-mints on demand,
	// so at quiescence the count is 0 or 1, never more. (Permanently
	// removing a crashed node is the membership layer's job.)
	if c := r.TokenCount(); c > 1 {
		t.Errorf("token count after recovery = %d, want at most 1", c)
	}
}

// TestRecoveryDoesNotFireWhileTokenAlive: with the token healthy but slow
// (long CS at another node), the probe round sees the holder and does not
// regenerate.
func TestRecoveryDoesNotFireWhileTokenAlive(t *testing.T) {
	cfg := protocol.Config{
		Variant:         protocol.BinarySearch,
		N:               8,
		RecoveryTimeout: 20, // shorter than the CS below
	}
	r, err := New(cfg, Options{Seed: 9, CSTime: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Node 4 grabs the token for a 200-unit critical section; node 6
	// requests meanwhile and gets suspicious at t≈+20.
	if err := r.Request(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(10, 6); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(2_000)

	if r.Waits.Outstanding() != 0 {
		t.Fatalf("unserved requests: %d", r.Waits.Outstanding())
	}
	if r.TokenCount() != 1 {
		t.Errorf("token duplicated: count = %d", r.TokenCount())
	}
	if err := r.InvariantErr(); err != nil {
		t.Error(err)
	}
}

// TestRecoveryUnderLoadAfterCrash: a full workload continues to completion
// across a holder crash.
func TestRecoveryUnderLoadAfterCrash(t *testing.T) {
	cfg := protocol.Config{
		Variant:         protocol.BinarySearch,
		N:               16,
		RecoveryTimeout: 150,
		ResearchTimeout: 300,
	}
	r, err := New(cfg, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Kill(5, 5); err != nil { // node 5 holds the token at t=5
		t.Fatal(err)
	}
	rng := sim.NewRNG(77)
	reqs := workload.Take(workload.Poisson{N: 16, MeanGap: 30}, rng, 150)
	issued := 0
	for _, req := range reqs {
		if req.Node == 5 {
			continue // dead node cannot request
		}
		if err := r.Request(req.At, req.Node); err != nil {
			t.Fatal(err)
		}
		issued++
	}
	r.Engine().RunUntil(reqs[len(reqs)-1].At + 20_000)

	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved after crash recovery", r.Waits.Outstanding())
	}
	if r.Grants() == 0 || r.Grants() != r.Issued() {
		t.Errorf("grants = %d, issued = %d", r.Grants(), r.Issued())
	}
}
