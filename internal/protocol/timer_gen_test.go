package protocol

import "testing"

// genTracker checks the protocol.Timer invariant on every Effects it is
// shown: per kind, armed generations never decrease.
type genTracker struct {
	t     *testing.T
	last  map[TimerKind]uint64
	armed map[TimerKind]int
}

// see records e's timers and returns the generation e armed for each of
// the wanted kinds, failing the test if one is missing.
func (g *genTracker) see(step string, e Effects, want ...TimerKind) []uint64 {
	g.t.Helper()
	in := map[TimerKind]uint64{}
	for _, tm := range e.Timers {
		if tm.Gen < g.last[tm.Kind] {
			g.t.Fatalf("%s: %s generation fell from %d to %d", step, tm.Kind, g.last[tm.Kind], tm.Gen)
		}
		g.last[tm.Kind] = tm.Gen
		g.armed[tm.Kind]++
		in[tm.Kind] = tm.Gen
	}
	gens := make([]uint64, len(want))
	for i, k := range want {
		gen, ok := in[k]
		if !ok {
			g.t.Fatalf("%s: no %s timer armed; effects %+v", step, k, e)
		}
		gens[i] = gen
	}
	return gens
}

// TestTimerGenerationsNeverDecrease walks one node through request,
// re-search, token-loss suspicion, a probe round, grant, release and idle
// holds, twice over, and checks every armed (Kind, Gen) against the
// previous one of its kind — the invariant host.WallClock's cancellation
// of superseded timers rests on.
func TestTimerGenerationsNeverDecrease(t *testing.T) {
	g := &genTracker{t: t, last: map[TimerKind]uint64{}, armed: map[TimerKind]int{}}
	n := newNode(t, 2, Config{
		Variant: BinarySearch, N: 4, HoldIdle: 5, TrapGC: GCRotation,
		ResearchTimeout: 50, RecoveryTimeout: 100,
	})
	token := func(round uint64) Message {
		return Message{Kind: MsgToken, From: 1, To: 2, Round: round}
	}
	var firstReq uint64
	for cycle := 0; cycle < 2; cycle++ {
		now := Time(1000 * (cycle + 1))
		gens := g.see("request", n.Request(now), TimerResearch, TimerRecovery)
		research, recovery := gens[0], gens[1]
		if cycle == 0 {
			firstReq = research
		} else if research <= firstReq || recovery <= firstReq {
			t.Fatalf("second request armed research %d / recovery %d, not above the first request's %d", research, recovery, firstReq)
		}
		// The search is lost: the research timer re-issues it at the same
		// generation.
		if again := g.see("research", n.HandleTimer(now+50, TimerResearch, research), TimerResearch)[0]; again != research {
			t.Fatalf("re-armed research timer changed generation %d -> %d", research, again)
		}
		// Suspicion: a probe round that finds the holder alive re-arms the
		// recovery timer, again at the same generation.
		decide := g.see("recovery", n.HandleTimer(now+100, TimerRecovery, recovery), TimerRecoveryDecide)[0]
		n.HandleMessage(now+110, Message{Kind: MsgRecoveryReply, From: 0, To: 2, HasToken: true})
		if again := g.see("decide", n.HandleTimer(now+150, TimerRecoveryDecide, decide), TimerRecovery)[0]; again != recovery {
			t.Fatalf("re-armed recovery timer changed generation %d -> %d", recovery, again)
		}
		// Grant, use, release; the token then comes round twice while the
		// node is idle, and each visit arms a fresh hold.
		if e := n.HandleMessage(now+200, token(uint64(10*cycle+1))); !e.Granted {
			t.Fatalf("token did not grant the pending request: %+v", e)
		}
		g.see("release", n.Release(now+210))
		if n.HasToken() {
			g.see("hold after release", n.HandleTimer(now+215, TimerHold, g.last[TimerHold]))
		}
		for visit := 0; visit < 2; visit++ {
			at := now + 300 + Time(100*visit)
			hold := g.see("idle token", n.HandleMessage(at, token(uint64(10*cycle+5+visit))), TimerHold)[0]
			g.see("hold", n.HandleTimer(at+5, TimerHold, hold))
			if n.HasToken() {
				t.Fatal("the idle hold did not pass the token on")
			}
		}
	}
	for _, k := range []TimerKind{TimerHold, TimerResearch, TimerRecovery, TimerRecoveryDecide} {
		if g.armed[k] < 2 {
			t.Errorf("%s armed %d times; the walk must arm every kind repeatedly", k, g.armed[k])
		}
	}

	// The push round's generation is its own counter: every idle visit of
	// the token to a probing holder starts a round above the last.
	p := newNode(t, 0, Config{Variant: Combined, N: 4})
	first := g.see("push bootstrap", p.GiveToken(0), TimerPushRound)[0]
	g.see("push round", p.HandleTimer(3, TimerPushRound, first))
	second := g.see("push second visit", p.HandleMessage(50, Message{Kind: MsgToken, From: 3, To: 0, Round: 9}), TimerPushRound)[0]
	if second <= first {
		t.Fatalf("second push round generation %d not above the first %d", second, first)
	}
}
