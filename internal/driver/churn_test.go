package driver

import (
	"strings"
	"testing"

	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
)

// A cluster started with a partial view admits a joiner mid-run: the view
// epoch bumps, every member applies the new ring as an observable StepView
// step, the joiner is seeded with the freshest circulation stamp, and its
// requests are served like anyone else's.
func TestJoinExpandsRing(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 6}
	rec := &traceRecorder{}
	r, err := New(cfg, Options{Seed: 3, Observer: rec, InitialMembers: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Outside the cluster, requests are no-ops (not issued, not counted).
	if err := r.Request(5, 4); err != nil {
		t.Fatal(err)
	}
	if err := r.Join(50, 4); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(60, 4); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(5_000)

	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	if r.Issued() != 1 {
		t.Fatalf("issued = %d; the pre-join request must be a no-op", r.Issued())
	}
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved after join", r.Waits.Outstanding())
	}
	if got := r.Members(); len(got) != 4 || got[3] != 4 {
		t.Fatalf("members after join = %v, want [0 1 2 4]", got)
	}
	if r.Node(4).LastSeen() == 0 {
		t.Fatal("joiner was not seeded with the cluster's circulation stamp")
	}
	var sawJoin, sawView bool
	for _, f := range rec.faults {
		if f.Kind == host.FaultJoin && f.Node == 4 {
			sawJoin = true
		}
	}
	for _, s := range rec.steps {
		if s.Kind == host.StepView {
			sawView = true
		}
	}
	if !sawJoin || !sawView {
		t.Fatalf("join must be observable (join fault=%v, view steps=%v)", sawJoin, sawView)
	}
	if c := r.TokenCount(); c != 1 {
		t.Fatalf("token count = %d after join", c)
	}
}

// A graceful leave of a node that is pending (or in its critical section)
// is deferred until the leaver is token-safe: the request is served first,
// then the node departs, and rotation continues over the shrunken ring.
func TestGracefulLeaveWaitsForSafety(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 4}
	rec := &traceRecorder{}
	r, err := New(cfg, Options{Seed: 5, Observer: rec, CSTime: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Request(10, 2); err != nil {
		t.Fatal(err)
	}
	// The leave lands while node 2 is still waiting for (or using) the
	// token: it must not take effect until after the release.
	if err := r.Leave(12, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(200, 1); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(5_000)

	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved around the graceful leave", r.Waits.Outstanding())
	}
	if r.Grants() != 2 {
		t.Fatalf("grants = %d, want 2 (the leaver's own request must be served first)", r.Grants())
	}
	if got := r.Members(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("members after leave = %v, want [0 1 3]", got)
	}
	var releaseAt, leaveAt int64 = -1, -1
	for _, s := range rec.steps {
		if s.Kind == host.StepRelease && s.Node == 2 {
			releaseAt = int64(s.At)
		}
	}
	for _, f := range rec.faults {
		if f.Kind == host.FaultLeave && f.Node == 2 {
			leaveAt = int64(f.At)
		}
	}
	if releaseAt < 0 || leaveAt < 0 {
		t.Fatalf("missing release (%d) or leave (%d) in the trace", releaseAt, leaveAt)
	}
	if leaveAt < releaseAt {
		t.Fatalf("leave committed at t=%d, before the release at t=%d", leaveAt, releaseAt)
	}
	if c := r.TokenCount(); c != 1 {
		t.Fatalf("token count = %d after leave", c)
	}
}

// Crash-during-token-hold regression (the grant is in progress when the
// holder dies): the token dies with the holder, §5 recovery regenerates it
// under a bumped epoch via the coordinator election, the surviving request
// is served — and no request is ever granted twice. The token census checks
// every step throughout.
func TestCrashDuringGrantNoDuplicate(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 6, RecoveryTimeout: 120}
	rec := &traceRecorder{}
	r, err := New(cfg, Options{Seed: 7, Observer: rec, CSTime: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Request(10, 3); err != nil {
		t.Fatal(err)
	}
	// Node 3 is granted around t=15 and holds until t≈65; the crash at
	// t=20 hits mid-critical-section, with the grant outstanding.
	if err := r.Crash(20, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(30, 5); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(10_000)

	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved after crash during grant", r.Waits.Outstanding())
	}
	if r.Grants() != 2 {
		t.Fatalf("grants = %d, want exactly 2 — a duplicate grant after regeneration is the bug this test pins", r.Grants())
	}
	if got := r.Msgs.Snapshot()["recovery-probe"]; got == 0 {
		t.Fatal("no recovery probes; the crash was supposed to lose the token")
	}
	if ep := r.Node(5).Epoch(); ep == 0 {
		t.Fatal("no epoch bump at the survivor; regeneration did not happen")
	}
	if c := r.TokenCount(); c != 1 {
		t.Fatalf("token count = %d after regeneration settled", c)
	}
	var sawCrash bool
	for _, f := range rec.faults {
		if f.Kind == host.FaultCrash && f.Node == 3 {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatal("crash fault event missing from the trace")
	}
}

// Leave-while-token-on-loan regression: a holder that serves a trap lends
// the token out as a decorated grant (ReturnTo = itself) and is immediately
// token-safe by every local measure — it holds nothing and no token-bearing
// message flies toward it — so its graceful leave commits while the loan is
// still out. The return must NOT be posted into the departed lender (the
// driver swallows traffic to non-members and the token would be lost, as a
// recorded churn-lossy torture run found): the grantee keeps the orphaned
// token and rotation resumes from it.
func TestLeaveWhileTokenOnLoan(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.LinearSearch, N: 6, HoldIdle: 200}
	r, err := New(cfg, Options{Seed: 17, CSTime: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 parks the bootstrap token; node 3's search traps there and is
	// served by a decorated grant around t≈15, putting the token on loan
	// with the return owed to node 0. Pausing the grantee parks the grant
	// en route, so the leave provably commits while the loan is in flight —
	// the exact window where the lender's departure can strand the token.
	if err := r.Request(10, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.Pause(12, 3, 30); err != nil {
		t.Fatal(err)
	}
	if err := r.Leave(20, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(500, 1); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(5_000)

	if err := r.InvariantErr(); err != nil {
		t.Fatalf("the loaned token was lost with the leaver: %v", err)
	}
	if got := r.Members(); len(got) != 5 || got[0] != 1 {
		t.Fatalf("members after leave = %v, want [1 2 3 4 5]", got)
	}
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved; the orphaned token never rejoined the rotation", r.Waits.Outstanding())
	}
	if c := r.TokenCount(); c != 1 {
		t.Fatalf("token count = %d after the lender departed mid-loan", c)
	}
}

// Crash routes through membership: the corpse leaves the view at once, so
// the survivors' rotation never forwards into it. This is the latent gap
// the churn engine closes — before, a killed node stayed in everyone's
// ring view forever and the (regenerated) token black-holed there.
func TestKillRemovesFromView(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 5}
	r, err := New(cfg, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// At t=10 the rotating token is arriving at node 0 (one hop per unit
	// from the bootstrap), safely away from the victim.
	if err := r.Crash(10, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(50, 3); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(2_000)

	if got := r.Members(); len(got) != 4 || got[2] != 3 {
		t.Fatalf("members after kill = %v, want [0 1 3 4]", got)
	}
	// No recovery was configured: the run survives ONLY because rotation
	// skips the corpse, i.e. the token was never lost.
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved; rotation forwarded into the corpse", r.Waits.Outstanding())
	}
	if c := r.TokenCount(); c != 1 {
		t.Fatalf("token count = %d; the token rotated into the dead node", c)
	}
	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
}

// The planted regeneration bug: with Config.BuggyElection every recovery
// decider mints locally (the pre-election race), so two requesters whose
// decision windows overlap mint two tokens under the SAME epoch. The token
// census catches it on the very step the second mint applies.
func TestBuggyElectionDoubleMintCaught(t *testing.T) {
	cfg := protocol.Config{
		Variant:         protocol.LinearSearch,
		N:               6,
		ResearchTimeout: 80,
		RecoveryTimeout: 100,
		BuggyElection:   true,
	}
	r, err := New(cfg, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Crash the bootstrap holder: the token is gone, nobody can answer the
	// probes, and both requesters' decide timers fire in the same window.
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

	err = r.InvariantErr()
	if err == nil {
		t.Fatal("double mint went uncaught: two same-epoch tokens must trip the census")
	}
	if !strings.Contains(err.Error(), "tokens in epoch") {
		t.Fatalf("unexpected census error: %v", err)
	}
}

// The fixed protocol under the identical schedule: both deciders funnel
// their evidence to the view coordinator, which mints exactly once; the
// duplicate elect is discarded as stale. No safety violation, and both
// requests are served by the regenerated token.
func TestElectionMintsExactlyOnce(t *testing.T) {
	cfg := protocol.Config{
		Variant:         protocol.LinearSearch,
		N:               6,
		ResearchTimeout: 80,
		RecoveryTimeout: 100,
	}
	r, err := New(cfg, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(10, 2); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(10, 4); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(10_000)

	if err := r.InvariantErr(); err != nil {
		t.Fatal(err)
	}
	if r.Waits.Outstanding() != 0 {
		t.Fatalf("%d unserved after election", r.Waits.Outstanding())
	}
	if c := r.TokenCount(); c != 1 {
		t.Fatalf("token count = %d after election settled", c)
	}
}

// Churn-mode configuration errors.
func TestChurnValidation(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 4}
	if _, err := New(cfg, Options{Seed: 1, InitialMembers: []int{1, 2}}); err == nil {
		t.Fatal("initial view without node 0 accepted")
	}
	if _, err := New(cfg, Options{Seed: 1, InitialMembers: []int{0, 9}}); err == nil {
		t.Fatal("out-of-range initial member accepted")
	}
	r, err := New(cfg, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Join(1, 9); err == nil {
		t.Fatal("out-of-range join target accepted")
	}
	if err := r.Leave(1, -1); err == nil {
		t.Fatal("negative leave target accepted")
	}
}

// ChurnSnapshot reflects the cluster: membership, holder, and epoch state.
func TestChurnSnapshot(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.RingToken, N: 4}
	r, err := New(cfg, Options{Seed: 2, InitialMembers: []int{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(10, 3); err != nil {
		t.Fatal(err)
	}
	r.Engine().RunUntil(100)

	s := r.ChurnSnapshot()
	if len(s.Members) != 3 {
		t.Fatalf("snapshot members = %v", s.Members)
	}
	if s.ViewEpoch == 0 {
		t.Fatal("view epoch did not advance on crash")
	}
	if !s.Nodes[3].Dead || s.Nodes[3].Member {
		t.Fatalf("snapshot of the corpse: %+v", s.Nodes[3])
	}
	holders := 0
	for _, ns := range s.Nodes {
		if ns.Member && ns.HasToken {
			holders++
		}
	}
	if holders+s.InFlight != 1 {
		t.Fatalf("snapshot token census = %d holders + %d in flight", holders, s.InFlight)
	}
}
