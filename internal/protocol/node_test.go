package protocol

import (
	"strings"
	"testing"
)

func binConfig(n int) Config {
	return Config{Variant: BinarySearch, N: n}
}

func newNode(t *testing.T, id int, cfg Config) *Node {
	t.Helper()
	n, err := New(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config must fail")
	}
	if err := (Config{Variant: BinarySearch, N: 0}).Validate(); err == nil {
		t.Error("zero ring must fail")
	}
	if err := (Config{Variant: BinarySearch, N: 3, HoldIdle: -1}).Validate(); err == nil {
		t.Error("negative hold must fail")
	}
	if err := (Config{Variant: BinarySearch, N: 3, AdaptiveSpeed: true, MinHold: 5, MaxHold: 1}).Validate(); err == nil {
		t.Error("MaxHold < MinHold must fail")
	}
	if err := binConfig(3).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{Variant: BinarySearch, N: 3, TrapTTLRounds: -2}).Validate(); err == nil {
		t.Error("negative bound must fail")
	}
}

func TestNewRejectsBadID(t *testing.T) {
	if _, err := New(5, binConfig(3)); err == nil {
		t.Error("id outside ring must fail")
	}
	if _, err := New(-1, binConfig(3)); err == nil {
		t.Error("negative id must fail")
	}
}

func TestGiveTokenIdlePassesToSuccessor(t *testing.T) {
	n := newNode(t, 0, binConfig(4))
	e := n.GiveToken(0)
	if e.Granted {
		t.Error("no pending request: no grant")
	}
	if len(e.Msgs) != 1 || e.Msgs[0].Kind != MsgToken || e.Msgs[0].To != 1 {
		t.Fatalf("msgs = %+v", e.Msgs)
	}
	if e.Msgs[0].Round != 1 {
		t.Errorf("first hop round = %d, want 1", e.Msgs[0].Round)
	}
	if n.HasToken() {
		t.Error("token passed on")
	}
	// Idempotent.
	if e2 := n.GiveToken(0); len(e2.Msgs) != 0 {
		t.Error("second GiveToken should be a no-op")
	}
}

func TestGiveTokenWithPendingGrants(t *testing.T) {
	n := newNode(t, 0, binConfig(4))
	// Request first (sends a search), then token arrives.
	e1 := n.Request(0)
	if e1.Granted {
		t.Fatal("no token yet")
	}
	e2 := n.HandleMessage(1, Message{Kind: MsgToken, From: 3, To: 0, Round: 7})
	if !e2.Granted {
		t.Fatal("token arrival must grant the pending request")
	}
	if !n.InCS() || !n.HasToken() || n.Pending() {
		t.Error("state after grant")
	}
	if n.LastSeen() != 7 {
		t.Errorf("lastSeen = %d", n.LastSeen())
	}
	// Release continues rotation.
	e3 := n.Release(2)
	if len(e3.Msgs) != 1 || e3.Msgs[0].Kind != MsgToken || e3.Msgs[0].To != 1 || e3.Msgs[0].Round != 8 {
		t.Fatalf("release msgs = %+v", e3.Msgs)
	}
}

func TestRequestWhenHoldingGrantsImmediately(t *testing.T) {
	n := newNode(t, 2, Config{Variant: BinarySearch, N: 4, HoldIdle: 100})
	e := n.GiveToken(0)
	// With a hold, the token stays here waiting.
	if len(e.Msgs) != 0 || len(e.Timers) != 1 || e.Timers[0].Kind != TimerHold {
		t.Fatalf("expected hold timer, got %+v", e)
	}
	e2 := n.Request(5)
	if !e2.Granted {
		t.Fatal("holder's own request must grant immediately")
	}
	// The stale hold timer must be ignored.
	e3 := n.HandleTimer(100, TimerHold, e.Timers[0].Gen)
	if len(e3.Msgs) != 0 {
		t.Error("stale hold timer must be a no-op")
	}
}

func TestDuplicateRequestIsNoop(t *testing.T) {
	n := newNode(t, 0, binConfig(8))
	e1 := n.Request(0)
	if len(e1.Msgs) != 1 {
		t.Fatalf("first request should search: %+v", e1.Msgs)
	}
	e2 := n.Request(1)
	if len(e2.Msgs) != 0 && !e2.Granted {
		t.Error("duplicate request must not re-search")
	}
}

func TestBinarySearchRequestTargetsAcross(t *testing.T) {
	n := newNode(t, 1, binConfig(8))
	e := n.Request(0)
	if len(e.Msgs) != 1 {
		t.Fatalf("msgs = %+v", e.Msgs)
	}
	m := e.Msgs[0]
	if m.Kind != MsgSearch || m.To != 5 || m.Window != 4 || m.Requester != 1 {
		t.Fatalf("search = %+v", m)
	}
}

func TestSearchAtIdleHolderDelivers(t *testing.T) {
	holder := newNode(t, 3, Config{Variant: BinarySearch, N: 8, HoldIdle: 50})
	holder.GiveToken(0)
	e := holder.HandleMessage(1, Message{
		Kind: MsgSearch, From: 7, To: 3, Window: 4, Requester: 7, ReqSeq: 1, OriginStamp: 0,
	})
	if len(e.Msgs) != 1 || e.Msgs[0].Kind != MsgTokenReturn {
		t.Fatalf("msgs = %+v", e.Msgs)
	}
	m := e.Msgs[0]
	if m.To != 7 || m.Requester != 7 || m.ReturnTo != 3 {
		t.Fatalf("delivery = %+v", m)
	}
	if holder.HasToken() {
		t.Error("token left with the decorated delivery")
	}
}

func TestSearchAtBusyHolderTrapsOnly(t *testing.T) {
	holder := newNode(t, 3, binConfig(8))
	holder.Request(0) // pending, then the token arrives and grants
	holder.GiveToken(0)
	if !holder.InCS() {
		t.Fatal("setup: holder should be in CS")
	}
	e := holder.HandleMessage(1, Message{Kind: MsgSearch, From: 7, To: 3, Window: 4, Requester: 7, ReqSeq: 1})
	if len(e.Msgs) != 0 {
		t.Fatalf("busy holder must not deliver: %+v", e.Msgs)
	}
	if holder.TrapCount() != 1 {
		t.Errorf("traps = %d", holder.TrapCount())
	}
	// Release serves the trap.
	e2 := holder.Release(2)
	if len(e2.Msgs) != 1 || e2.Msgs[0].Kind != MsgTokenReturn || e2.Msgs[0].Requester != 7 {
		t.Fatalf("release should deliver: %+v", e2.Msgs)
	}
}

func TestDecoratedTokenRoundTrip(t *testing.T) {
	requester := newNode(t, 7, binConfig(8))
	requester.Request(0)
	e := requester.HandleMessage(5, Message{
		Kind: MsgTokenReturn, From: 3, To: 7, Round: 12, ReturnTo: 3, Requester: 7, ReqSeq: 1,
	})
	if !e.Granted || !requester.InCS() {
		t.Fatal("decorated delivery must grant")
	}
	if requester.LastSeen() != 12 {
		t.Errorf("lastSeen = %d", requester.LastSeen())
	}
	rel := requester.Release(6)
	if len(rel.Msgs) != 1 {
		t.Fatalf("release msgs = %+v", rel.Msgs)
	}
	back := rel.Msgs[0]
	if back.Kind != MsgToken || back.To != 3 || back.Round != 12 {
		t.Fatalf("return = %+v (round must not increment on the detour)", back)
	}
	if requester.HasToken() {
		t.Error("token returned")
	}
}

func TestStaleDecoratedTokenBounces(t *testing.T) {
	n := newNode(t, 7, binConfig(8))
	// Not pending: a stale trap delivery must bounce straight back.
	e := n.HandleMessage(5, Message{
		Kind: MsgTokenReturn, From: 3, To: 7, Round: 12, ReturnTo: 3, Requester: 7,
	})
	if e.Granted {
		t.Fatal("must not grant")
	}
	if len(e.Msgs) != 1 || e.Msgs[0].Kind != MsgToken || e.Msgs[0].To != 3 || e.Msgs[0].Round != 12 {
		t.Fatalf("bounce = %+v", e.Msgs)
	}
	if n.HasToken() {
		t.Error("bounced token is not retained")
	}
}

func TestSearchForwardDirectionByStamp(t *testing.T) {
	// Node 4 in an 8-ring, not holding; search from node 0 with window 4.
	mk := func(lastSeen uint64) *Node {
		n := newNode(t, 4, binConfig(8))
		n.lastSeen = lastSeen
		return n
	}
	// My view is fresher (or equal): clockwise (+2 → node 6).
	n := mk(10)
	e := n.HandleMessage(0, Message{Kind: MsgSearch, From: 0, To: 4, Window: 4, OriginStamp: 3, Requester: 0, ReqSeq: 1})
	if len(e.Msgs) != 1 || e.Msgs[0].To != 6 || e.Msgs[0].Window != 2 {
		t.Fatalf("clockwise forward = %+v", e.Msgs)
	}
	// The requester's view is strictly fresher: counter-clockwise (−2 → node 2).
	n = mk(3)
	e = n.HandleMessage(0, Message{Kind: MsgSearch, From: 0, To: 4, Window: 4, OriginStamp: 10, Requester: 0, ReqSeq: 1})
	if len(e.Msgs) != 1 || e.Msgs[0].To != 2 || e.Msgs[0].Window != 2 {
		t.Fatalf("counter-clockwise forward = %+v", e.Msgs)
	}
	// Window exhausted: trap only, no forward.
	n = mk(3)
	e = n.HandleMessage(0, Message{Kind: MsgSearch, From: 0, To: 4, Window: 1, OriginStamp: 10, Requester: 0, ReqSeq: 1})
	if len(e.Msgs) != 0 {
		t.Fatalf("window 1 must not forward: %+v", e.Msgs)
	}
	if n.TrapCount() != 1 {
		t.Error("trap must still be set")
	}
}

func TestLinearSearchCrawls(t *testing.T) {
	n := newNode(t, 2, Config{Variant: LinearSearch, N: 5})
	req := n.Request(0)
	if len(req.Msgs) != 1 || req.Msgs[0].To != 3 || req.Msgs[0].Window != 4 {
		t.Fatalf("linear request = %+v", req.Msgs)
	}
	fw := newNode(t, 3, Config{Variant: LinearSearch, N: 5})
	e := fw.HandleMessage(1, req.Msgs[0])
	if len(e.Msgs) != 1 || e.Msgs[0].To != 4 || e.Msgs[0].Window != 3 {
		t.Fatalf("linear forward = %+v", e.Msgs)
	}
	// Expiry at window 1.
	last := newNode(t, 1, Config{Variant: LinearSearch, N: 5})
	e2 := last.HandleMessage(2, Message{Kind: MsgSearch, From: 0, To: 1, Window: 1, Requester: 2})
	if len(e2.Msgs) != 0 {
		t.Error("expired linear search must stop")
	}
	// Never forward back to the requester.
	stop := newNode(t, 1, Config{Variant: LinearSearch, N: 5})
	e3 := stop.HandleMessage(2, Message{Kind: MsgSearch, From: 0, To: 1, Window: 3, Requester: 2})
	if len(e3.Msgs) != 0 {
		t.Errorf("search must stop before the requester: %+v", e3.Msgs)
	}
}

func TestTrapFIFOAndDedup(t *testing.T) {
	n := newNode(t, 0, binConfig(8))
	n.HandleMessage(0, Message{Kind: MsgSearch, From: 2, To: 0, Window: 1, Requester: 2, ReqSeq: 1})
	n.HandleMessage(1, Message{Kind: MsgSearch, From: 5, To: 0, Window: 1, Requester: 5, ReqSeq: 1})
	n.HandleMessage(2, Message{Kind: MsgSearch, From: 2, To: 0, Window: 1, Requester: 2, ReqSeq: 2}) // dedup
	if n.TrapCount() != 2 {
		t.Fatalf("traps = %d, want 2", n.TrapCount())
	}
	// Token arrives: FIFO delivery to 2 first.
	e := n.HandleMessage(3, Message{Kind: MsgToken, From: 7, To: 0, Round: 4})
	if len(e.Msgs) != 1 || e.Msgs[0].Requester != 2 {
		t.Fatalf("first delivery = %+v", e.Msgs)
	}
	// Return comes back; next trap is served.
	e2 := n.HandleMessage(5, Message{Kind: MsgToken, From: 2, To: 0, Round: 4})
	if len(e2.Msgs) != 1 || e2.Msgs[0].Requester != 5 {
		t.Fatalf("second delivery = %+v", e2.Msgs)
	}
}

func TestRotationGCAgesTraps(t *testing.T) {
	n := newNode(t, 0, Config{Variant: BinarySearch, N: 4, TrapGC: GCRotation, TrapTTLRounds: 3})
	n.HandleMessage(0, Message{Kind: MsgSearch, From: 2, To: 0, Window: 1, Requester: 2, ReqSeq: 1, OriginStamp: 0})
	if n.TrapCount() != 1 {
		t.Fatal("trap set")
	}
	// Token arrives much later: the trap is aged out, token just grants
	// rotation onward (no trap delivery).
	e := n.HandleMessage(50, Message{Kind: MsgToken, From: 3, To: 0, Round: 10})
	if n.TrapCount() != 0 {
		t.Errorf("aged trap remains: %d", n.TrapCount())
	}
	if len(e.Msgs) != 1 || e.Msgs[0].Kind != MsgToken {
		t.Fatalf("expected plain rotation, got %+v", e.Msgs)
	}
}

func TestInverseGCRoutesAlongTrail(t *testing.T) {
	cfg := Config{Variant: BinarySearch, N: 8, TrapGC: GCInverse, HoldIdle: 50}
	holder := newNode(t, 6, cfg)
	holder.GiveToken(0)
	// Search from 0 arrived via node 4 (trail 0 → 4 → 6).
	e := holder.HandleMessage(1, Message{Kind: MsgSearch, From: 4, To: 6, Window: 2, Requester: 0, ReqSeq: 1})
	if len(e.Msgs) != 1 {
		t.Fatalf("msgs = %+v", e.Msgs)
	}
	hop := e.Msgs[0]
	if hop.Kind != MsgTokenReturn || hop.To != 4 || hop.Requester != 0 || hop.ReturnTo != 6 {
		t.Fatalf("inverse hop = %+v", hop)
	}
	// Node 4 holds the trail trap (search came from 0 directly).
	mid := newNode(t, 4, cfg)
	mid.addTrap(0, 1, 0, 0)
	e2 := mid.HandleMessage(2, hop)
	if mid.TrapCount() != 0 {
		t.Error("inverse hop must clear the trap")
	}
	if len(e2.Msgs) != 1 || e2.Msgs[0].To != 0 || e2.Msgs[0].Kind != MsgTokenReturn {
		t.Fatalf("final hop = %+v", e2.Msgs)
	}
	// The requester gets granted and returns to the interceptor 6.
	req := newNode(t, 0, cfg)
	req.Request(0)
	e3 := req.HandleMessage(3, e2.Msgs[0])
	if !e3.Granted {
		t.Fatal("requester must be granted")
	}
	rel := req.Release(4)
	if len(rel.Msgs) != 1 || rel.Msgs[0].To != 6 {
		t.Fatalf("return = %+v", rel.Msgs)
	}
}

func TestResearchTimerReissues(t *testing.T) {
	n := newNode(t, 0, Config{Variant: BinarySearch, N: 8, ResearchTimeout: 10})
	e := n.Request(0)
	if len(e.Timers) != 1 || e.Timers[0].Kind != TimerResearch {
		t.Fatalf("timers = %+v", e.Timers)
	}
	// Timer fires while still pending: re-issue (and re-arm).
	e2 := n.HandleTimer(10, TimerResearch, e.Timers[0].Gen)
	if len(e2.Msgs) != 1 || e2.Msgs[0].Kind != MsgSearch {
		t.Fatalf("re-search = %+v", e2.Msgs)
	}
	if len(e2.Timers) != 1 {
		t.Error("re-search must re-arm")
	}
	// After a grant the stale timer is ignored.
	n.HandleMessage(11, Message{Kind: MsgToken, From: 7, To: 0, Round: 3})
	e3 := n.HandleTimer(20, TimerResearch, e2.Timers[0].Gen)
	if len(e3.Msgs) != 0 {
		t.Error("stale research timer must be a no-op")
	}
}

func TestAdaptiveHoldBacksOffAndSnapsBack(t *testing.T) {
	n := newNode(t, 0, Config{
		Variant: BinarySearch, N: 4,
		AdaptiveSpeed: true, MinHold: 1, MaxHold: 8,
	})
	h1 := n.nextHold()
	h2 := n.nextHold()
	h3 := n.nextHold()
	h4 := n.nextHold()
	h5 := n.nextHold()
	if h1 != 1 || h2 != 2 || h3 != 4 || h4 != 8 || h5 != 8 {
		t.Fatalf("backoff = %d %d %d %d %d", h1, h2, h3, h4, h5)
	}
	n.sawDemand = true
	if got := n.nextHold(); got != 1 {
		t.Errorf("demand must snap hold back to MinHold, got %d", got)
	}
}

func TestHoldTimerPassesWhenIdle(t *testing.T) {
	n := newNode(t, 0, Config{Variant: BinarySearch, N: 4, HoldIdle: 5})
	e := n.GiveToken(0)
	if len(e.Timers) != 1 {
		t.Fatalf("expected hold timer: %+v", e)
	}
	e2 := n.HandleTimer(5, TimerHold, e.Timers[0].Gen)
	if len(e2.Msgs) != 1 || e2.Msgs[0].Kind != MsgToken || e2.Msgs[0].To != 1 {
		t.Fatalf("hold expiry must pass: %+v", e2.Msgs)
	}
}

func TestReleaseWithoutGrantIsNoop(t *testing.T) {
	n := newNode(t, 0, binConfig(4))
	if e := n.Release(0); len(e.Msgs) != 0 || e.Granted {
		t.Error("release without CS must be a no-op")
	}
}

func TestVariantAndKindStrings(t *testing.T) {
	for _, v := range []Variant{RingToken, LinearSearch, BinarySearch, DirectedSearch, PushProbe, Variant(99)} {
		if v.String() == "" {
			t.Error("empty variant string")
		}
	}
	for _, k := range []MsgKind{MsgToken, MsgTokenReturn, MsgSearch, MsgProbe, MsgProbeReply, MsgWantQuery, MsgWantReply, MsgKind(99)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
	for _, k := range []TimerKind{TimerHold, TimerResearch, TimerPushRound, TimerKind(99)} {
		if k.String() == "" {
			t.Error("empty timer string")
		}
	}
	for _, g := range []GCMode{GCNone, GCRotation, GCInverse, GCMode(99)} {
		if g.String() == "" {
			t.Error("empty gc string")
		}
	}
	if !MsgToken.Expensive() || !MsgTokenReturn.Expensive() || MsgSearch.Expensive() || MsgProbe.Expensive() {
		t.Error("Expensive classification")
	}
}

func TestStatsSnapshot(t *testing.T) {
	n := newNode(t, 2, Config{Variant: BinarySearch, N: 4, HoldIdle: 50, TrapGC: GCRotation})
	s := n.Stats()
	if s.ID != 2 || s.HasToken || s.Variant != "binsearch" {
		t.Errorf("initial stats = %+v", s)
	}
	if got := s.String(); !strings.Contains(got, "idle") {
		t.Errorf("idle stats string = %q", got)
	}
	n.Request(0)
	if got := n.Stats().String(); !strings.Contains(got, "waiting") {
		t.Errorf("waiting stats string = %q", got)
	}
	n.GiveToken(0)
	s = n.Stats()
	if !s.InCS || !s.HasToken {
		t.Errorf("granted stats = %+v", s)
	}
	if got := s.String(); !strings.Contains(got, "in-CS") {
		t.Errorf("cs stats string = %q", got)
	}
	n.Release(1)
	if got := n.Stats().String(); !strings.Contains(got, "holding") {
		t.Errorf("holding stats string = %q", got)
	}
}
