package protocol

import (
	"math"
	"math/rand"
	"testing"
)

// pump delivers queued messages between nodes until quiet, returning counts
// by kind. maxSteps guards against livelock.
func pump(t *testing.T, nodes []*Node, queue []Message, maxSteps int) map[MsgKind]int {
	t.Helper()
	counts := map[MsgKind]int{}
	now := Time(0)
	for steps := 0; len(queue) > 0; steps++ {
		if steps > maxSteps {
			t.Fatalf("message pump did not quiesce after %d steps", maxSteps)
		}
		m := queue[0]
		queue = queue[1:]
		counts[m.Kind]++
		now++
		eff := nodes[m.To].HandleMessage(now, m)
		queue = append(queue, eff.Msgs...)
	}
	return counts
}

// TestLemma6SearchForwardBound verifies Lemma 6 operationally: with the
// token parked at a holder (long critical section) after a full rotation,
// a search from ANY requester reaches the holder within ⌈log₂N⌉ + 1 search
// messages, for every holder/requester pair sampled across the ring.
func TestLemma6SearchForwardBound(t *testing.T) {
	const n = 64
	bound := int(math.Ceil(math.Log2(n))) + 1
	cfg := Config{Variant: BinarySearch, N: n, HoldIdle: 1 << 20}

	for h := 0; h < n; h += 7 {
		for r := 0; r < n; r += 5 {
			if r == h {
				continue
			}
			nodes := make([]*Node, n)
			for i := range nodes {
				nd, err := New(i, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Emulate a full rotation that ended at h: stamps
				// increase in ring order, freshest at the holder.
				nd.lastSeen = uint64(1000 - (h-i+n)%n)
				nodes[i] = nd
			}
			// Park the token at h inside a critical section.
			nodes[h].Request(0)
			nodes[h].GiveToken(0)
			if !nodes[h].InCS() {
				t.Fatal("setup: holder must be in CS")
			}

			req := nodes[r].Request(1)
			counts := pump(t, nodes, req.Msgs, 10*n)

			if counts[MsgSearch] > bound {
				t.Errorf("h=%d r=%d: %d search messages, Lemma 6 bound %d",
					h, r, counts[MsgSearch], bound)
			}
			// The search must end in a trap at the holder, so
			// releasing delivers the decorated token to r.
			rel := nodes[h].Release(100)
			delivered := false
			for _, m := range rel.Msgs {
				if m.Kind == MsgTokenReturn && m.Requester == r {
					delivered = true
				}
			}
			if !delivered {
				t.Errorf("h=%d r=%d: search never trapped the holder", h, r)
			}
		}
	}
}

// TestLemma6LinearComparison: the same setup under LinearSearch needs up to
// N-1 forwards — the gap Lemma 6 closes.
func TestLemma6LinearComparison(t *testing.T) {
	const n = 64
	cfg := Config{Variant: LinearSearch, N: n, HoldIdle: 1 << 20}
	nodes := make([]*Node, n)
	for i := range nodes {
		nd, err := New(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	h, r := 1, 2 // worst case: holder just behind the requester
	nodes[h].Request(0)
	nodes[h].GiveToken(0)
	req := nodes[r].Request(1)
	counts := pump(t, nodes, req.Msgs, 10*n)
	if counts[MsgSearch] < n-2 {
		t.Errorf("linear search took %d messages, expected ≈ N-1 = %d", counts[MsgSearch], n-1)
	}
}

// TestFuzzMessagesNeverPanic throws random (including nonsensical) message
// sequences at a small cluster: the state machines must stay structurally
// sane — no panics, all destinations on the ring — under arbitrary
// adversarial cheap traffic.
func TestFuzzMessagesNeverPanic(t *testing.T) {
	const n = 9
	rng := rand.New(rand.NewSource(12345))
	kinds := []MsgKind{
		MsgToken, MsgTokenReturn, MsgSearch, MsgProbe, MsgProbeReply,
		MsgWantQuery, MsgWantReply, MsgRecoveryProbe, MsgRecoveryReply,
		MsgKind(77), // unknown kind: must be ignored
	}
	for trial := 0; trial < 30; trial++ {
		cfg := Config{
			Variant:         []Variant{RingToken, LinearSearch, BinarySearch, DirectedSearch, PushProbe, Combined}[trial%6],
			N:               n,
			TrapGC:          []GCMode{GCNone, GCRotation, GCInverse}[trial%3],
			RecoveryTimeout: 50,
			ResearchTimeout: 30,
		}
		nodes := make([]*Node, n)
		for i := range nodes {
			nd, err := New(i, cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes[i] = nd
		}
		nodes[0].GiveToken(0)
		for step := 0; step < 400; step++ {
			to := rng.Intn(n)
			m := Message{
				Kind:        kinds[rng.Intn(len(kinds))],
				From:        rng.Intn(n),
				To:          to,
				Round:       uint64(rng.Intn(50)),
				ReturnTo:    rng.Intn(n+2) - 1,
				Requester:   rng.Intn(n + 2), // sometimes out of range
				ReqSeq:      uint64(rng.Intn(5)),
				Window:      rng.Intn(2*n) - 2,
				OriginStamp: uint64(rng.Intn(50)),
				HasToken:    rng.Intn(2) == 0,
				Want:        rng.Intn(2) == 0,
				Epoch:       uint64(rng.Intn(3)),
			}
			eff := nodes[to].HandleMessage(Time(step), m)
			for _, out := range eff.Msgs {
				if out.To < 0 || out.To >= n {
					t.Fatalf("trial %d: message to off-ring node %d: %+v", trial, out.To, out)
				}
				if out.From != to {
					t.Fatalf("trial %d: forged From %d (node %d)", trial, out.From, to)
				}
			}
			// Random local events too.
			switch rng.Intn(5) {
			case 0:
				nodes[rng.Intn(n)].Request(Time(step))
			case 1:
				nd := nodes[rng.Intn(n)]
				if nd.InCS() {
					nd.Release(Time(step))
				}
			case 2:
				kindsT := []TimerKind{TimerHold, TimerResearch, TimerPushRound, TimerRecovery, TimerRecoveryDecide, TimerKind(9)}
				nodes[rng.Intn(n)].HandleTimer(Time(step), kindsT[rng.Intn(len(kindsT))], uint64(rng.Intn(4)))
			}
		}
	}
}
