package protocol

import "testing"

// fuzzScript interprets an operation script against one node of the given
// variant: each byte pair is an (op, arg) — request, release, a timer
// firing, or a message delivery with fields derived from the argument.
// Sequence-level fuzzing reaches interleavings single-shot delivery cannot
// (a push probe answered mid-search, a recovery decide racing a grant). The
// machine must never panic, never emit off-ring destinations or a forged
// From, never arm negative timers, and never arm a kind at a lower
// generation than it armed before (the protocol.Timer invariant).
func fuzzScript(t *testing.T, v Variant, script []byte) {
	const n = 6
	cfg := Config{
		Variant: v, N: n,
		ResearchTimeout: 50, RecoveryTimeout: 40,
		TrapGC: GCRotation,
	}
	nd, err := New(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	timers := []TimerKind{TimerHold, TimerResearch, TimerPushRound, TimerRecovery, TimerRecoveryDecide}
	kinds := []MsgKind{
		MsgToken, MsgTokenReturn, MsgSearch, MsgWantQuery, MsgWantReply,
		MsgRecoveryProbe, MsgRecoveryReply,
	}
	armed := map[TimerKind]uint64{} // highest generation armed so far, by kind
	now := Time(1)
	if len(script) > 0 && script[0]%2 == 0 {
		nd.GiveToken(now)
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		now += Time(op%3) + 1
		var eff Effects
		switch op % 4 {
		case 0:
			eff = nd.Request(now)
		case 1:
			eff = nd.Release(now)
		case 2:
			eff = nd.HandleTimer(now, timers[int(arg)%len(timers)], uint64(arg>>3))
		case 3:
			eff = nd.HandleMessage(now, Message{
				Kind:        kinds[int(arg)%len(kinds)],
				From:        int(arg>>1) % n,
				To:          2,
				Round:       uint64(arg >> 2),
				ReturnTo:    int(op>>2)%n - 1, // may be None (-1)
				Requester:   int(arg>>3) % n,
				ReqSeq:      uint64(op >> 4),
				Window:      int(arg>>4) - 2, // may be negative or oversized
				OriginStamp: uint64(op >> 5),
				HasToken:    arg&1 == 1,
				Want:        arg&2 == 2,
				Epoch:       uint64(arg >> 6),
			})
		}
		for _, m := range eff.Msgs {
			if m.To < 0 || m.To >= n {
				t.Fatalf("variant %s op %d: off-ring destination %d", v, i, m.To)
			}
			if m.From != 2 {
				t.Fatalf("variant %s op %d: forged From %d", v, i, m.From)
			}
		}
		for _, tm := range eff.Timers {
			if tm.Delay < 0 {
				t.Fatalf("variant %s op %d: negative timer %+v", v, i, tm)
			}
			if tm.Gen < armed[tm.Kind] {
				t.Fatalf("variant %s op %d: %s generation fell from %d to %d", v, i, tm.Kind, armed[tm.Kind], tm.Gen)
			}
			armed[tm.Kind] = tm.Gen
		}
	}
}

// fuzzSeeds are operation scripts covering each op class and some known
// interesting interleavings (request-then-stale-token, probe-then-grant).
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x00, 0x00, 0x03, 0x0e, 0x01, 0x00})
	f.Add([]byte{0x01, 0x05, 0x02, 0x11, 0x03, 0x42, 0x03, 0x43})
	f.Add([]byte{0x03, 0x00, 0x03, 0x01, 0x02, 0x03, 0x00, 0x00, 0x03, 0xff})
	f.Add([]byte{0x02, 0x18, 0x02, 0x19, 0x03, 0x83, 0x01, 0x00, 0x00, 0x00})
}

// FuzzDirectedSearch sequence-fuzzes the DirectedSearch state machine (the
// §4.4 directed-probe ablation), whose probe cursor has state the other
// variants lack.
func FuzzDirectedSearch(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		fuzzScript(t, DirectedSearch, script)
	})
}

// FuzzPushProbe sequence-fuzzes the PushProbe state machine, whose
// want-query/want-reply round trip and push-round timer interleave with
// grants in ways a single delivery cannot exercise.
func FuzzPushProbe(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		fuzzScript(t, PushProbe, script)
	})
}

// FuzzHandleMessage feeds arbitrary message fields to a node under every
// variant. The state machine must never panic, never emit off-ring
// destinations, and never forge a From other than itself. Run with
// `go test -fuzz=FuzzHandleMessage ./internal/protocol` for open-ended
// fuzzing; the seed corpus runs as part of the normal test suite.
func FuzzHandleMessage(f *testing.F) {
	f.Add(uint8(1), 0, 1, uint64(3), 2, 1, uint64(1), 4, uint64(2), true, false, uint64(0))
	f.Add(uint8(2), 3, 0, uint64(9), -1, 0, uint64(2), 1, uint64(7), false, true, uint64(1))
	f.Add(uint8(3), 7, 7, uint64(0), 9, 12, uint64(0), -5, uint64(0), false, false, uint64(9))
	f.Add(uint8(101), 2, 4, uint64(5), 3, 2, uint64(1), 2, uint64(3), true, true, uint64(2))

	const n = 8
	variants := []Variant{RingToken, LinearSearch, BinarySearch, DirectedSearch, PushProbe, Combined}

	f.Fuzz(func(t *testing.T, kind uint8, from, to int, round uint64,
		returnTo, requester int, reqSeq uint64, window int, origin uint64,
		hasToken, want bool, epoch uint64) {
		for _, v := range variants {
			nd, err := New(3, Config{Variant: v, N: n, RecoveryTimeout: 10, TrapGC: GCRotation})
			if err != nil {
				t.Fatal(err)
			}
			nd.GiveToken(0)
			m := Message{
				Kind: MsgKind(kind), From: from, To: to, Round: round,
				ReturnTo: returnTo, Requester: requester, ReqSeq: reqSeq,
				Window: window, OriginStamp: origin,
				HasToken: hasToken, Want: want, Epoch: epoch,
			}
			eff := nd.HandleMessage(1, m)
			for _, out := range eff.Msgs {
				if out.To < 0 || out.To >= n {
					t.Fatalf("variant %s: off-ring destination %d from %+v", v, out.To, m)
				}
				if out.From != 3 {
					t.Fatalf("variant %s: forged From %d", v, out.From)
				}
			}
			for _, tm := range eff.Timers {
				if tm.Delay < 0 {
					t.Fatalf("variant %s: negative timer %+v", v, tm)
				}
			}
		}
	})
}
