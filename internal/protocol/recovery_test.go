package protocol

import (
	"slices"
	"testing"
)

func recConfig(n int) Config {
	return Config{Variant: BinarySearch, N: n, RecoveryTimeout: 100}
}

// requestAndSuspect drives a node to the point where its recovery timer
// fired and probes went out.
func requestAndSuspect(t *testing.T, n *Node) Effects {
	t.Helper()
	req := n.Request(0)
	var recGen uint64
	found := false
	for _, tm := range req.Timers {
		if tm.Kind == TimerRecovery {
			recGen = tm.Gen
			found = true
		}
	}
	if !found {
		t.Fatal("request must arm the recovery timer")
	}
	return n.HandleTimer(100, TimerRecovery, recGen)
}

func TestRecoveryProbesAllPeers(t *testing.T) {
	n := newNode(t, 2, recConfig(5))
	e := requestAndSuspect(t, n)
	probes := 0
	var decide *Timer
	for _, m := range e.Msgs {
		if m.Kind == MsgRecoveryProbe {
			probes++
			if m.To == 2 {
				t.Error("must not probe self")
			}
		}
	}
	for i := range e.Timers {
		if e.Timers[i].Kind == TimerRecoveryDecide {
			decide = &e.Timers[i]
		}
	}
	if probes != 4 {
		t.Errorf("probes = %d, want 4", probes)
	}
	if decide == nil {
		t.Fatal("no decision timer armed")
	}
}

// decideNoHolder drives node n through a probe round in which no reply
// claims the token, and returns the decision's effects.
func decideNoHolder(t *testing.T, n *Node) Effects {
	t.Helper()
	e := requestAndSuspect(t, n)
	var decideGen uint64
	for _, tm := range e.Timers {
		if tm.Kind == TimerRecoveryDecide {
			decideGen = tm.Gen
		}
	}
	// Replies from two peers, none holding, stamps up to 9.
	n.HandleMessage(110, Message{Kind: MsgRecoveryReply, From: 0, To: n.ID(), Round: 9, Epoch: 0})
	n.HandleMessage(111, Message{Kind: MsgRecoveryReply, From: 1, To: n.ID(), Round: 4, Epoch: 0})
	return n.HandleTimer(150, TimerRecoveryDecide, decideGen)
}

func TestRecoveryElectsCoordinator(t *testing.T) {
	// A non-coordinator decider hands the evidence to the view's lowest
	// live member instead of minting locally.
	n := newNode(t, 2, recConfig(4))
	e2 := decideNoHolder(t, n)
	if n.HasToken() || e2.Granted {
		t.Fatal("a non-coordinator must not mint locally")
	}
	var elect *Message
	for i := range e2.Msgs {
		if e2.Msgs[i].Kind == MsgElect {
			elect = &e2.Msgs[i]
		}
	}
	if elect == nil {
		t.Fatal("decide must send MsgElect to the coordinator")
	}
	if elect.To != 0 || elect.Round != 9 || elect.Epoch != 0 {
		t.Errorf("elect = %+v, want to=0 round=9 epoch=0", elect)
	}
	rearmed := false
	for _, tm := range e2.Timers {
		if tm.Kind == TimerRecovery {
			rearmed = true
		}
	}
	if !rearmed {
		t.Error("suspicion must re-arm while the election is in flight")
	}

	// The coordinator mints once from the evidence (round 10 = maxStamp+1,
	// epoch 1) and, being idle with no hold configured, passes it onward
	// at once (round 11).
	coordCfg := recConfig(4)
	coordCfg.HoldIdle = 50
	coord := newNode(t, 0, coordCfg)
	em := coord.HandleMessage(160, *elect)
	if !coord.HasToken() || coord.Round() != 10 || coord.epoch != 1 {
		t.Fatalf("coordinator after elect: hasToken=%v round=%d epoch=%d, want true/10/1",
			coord.HasToken(), coord.Round(), coord.epoch)
	}
	if len(em.Msgs) == 0 && len(em.Timers) == 0 {
		t.Error("the minted token must start circulating (pass or hold)")
	}
	// ...and a duplicate elect from the same failure is stale.
	before := coord.Round()
	coord.HandleMessage(170, *elect)
	if coord.Round() != before || coord.epoch != 1 {
		t.Error("duplicate elect must be discarded as stale")
	}
}

func TestRecoveryCoordinatorMintsLocally(t *testing.T) {
	// When the decider IS the coordinator, it regenerates on the spot and
	// the pending request is granted.
	n := newNode(t, 0, recConfig(4))
	e2 := decideNoHolder(t, n)
	if !e2.Granted {
		t.Fatal("regeneration at the coordinator must grant the pending request")
	}
	if !n.HasToken() || n.Round() != 10 {
		t.Errorf("hasToken=%v round=%d, want round 10 (= maxStamp+1)", n.HasToken(), n.Round())
	}
	if n.epoch != 1 {
		t.Errorf("epoch = %d, want 1", n.epoch)
	}
}

func TestRecoveryBuggyElectionMintsAtRequester(t *testing.T) {
	// The planted pre-election race: with BuggyElection every decider
	// mints locally, even off-coordinator.
	cfg := recConfig(4)
	cfg.BuggyElection = true
	n := newNode(t, 2, cfg)
	e2 := decideNoHolder(t, n)
	if !e2.Granted || !n.HasToken() || n.epoch != 1 {
		t.Fatalf("buggy election must mint at the requester: granted=%v hasToken=%v epoch=%d",
			e2.Granted, n.HasToken(), n.epoch)
	}
}

func TestElectIgnoredByCurrentHolder(t *testing.T) {
	cfg := recConfig(3)
	cfg.HoldIdle = 50 // keep the token parked here
	holder := newNode(t, 0, cfg)
	holder.GiveToken(0)
	round := holder.Round()
	holder.HandleMessage(5, Message{Kind: MsgElect, From: 2, To: 0, Requester: 2, Round: 7, Epoch: 0})
	if holder.Round() != round || holder.epoch != 0 {
		t.Error("a live holder must ignore elect messages")
	}
}

func TestRecoveryAbortsWhenHolderAlive(t *testing.T) {
	n := newNode(t, 2, recConfig(4))
	e := requestAndSuspect(t, n)
	var decideGen uint64
	for _, tm := range e.Timers {
		if tm.Kind == TimerRecoveryDecide {
			decideGen = tm.Gen
		}
	}
	n.HandleMessage(110, Message{Kind: MsgRecoveryReply, From: 0, To: 2, Round: 9, HasToken: true})
	e2 := n.HandleTimer(150, TimerRecoveryDecide, decideGen)
	if e2.Granted || n.HasToken() {
		t.Fatal("must not regenerate while a holder is alive")
	}
	// The suspicion timer re-arms instead.
	rearmed := false
	for _, tm := range e2.Timers {
		if tm.Kind == TimerRecovery {
			rearmed = true
		}
	}
	if !rearmed {
		t.Error("recovery timer must re-arm")
	}
}

func TestRecoveryProbeReplyCarriesState(t *testing.T) {
	holder := newNode(t, 1, recConfig(3))
	holder.Request(0)
	holder.GiveToken(0)
	e := holder.HandleMessage(5, Message{Kind: MsgRecoveryProbe, From: 2, To: 1, Epoch: 0})
	if len(e.Msgs) != 1 || e.Msgs[0].Kind != MsgRecoveryReply {
		t.Fatalf("reply = %+v", e.Msgs)
	}
	if !e.Msgs[0].HasToken {
		t.Error("holder must report possession")
	}
}

func TestStaleEpochTokenDiscarded(t *testing.T) {
	n := newNode(t, 1, recConfig(3))
	n.epoch = 2
	e := n.HandleMessage(5, Message{Kind: MsgToken, From: 0, To: 1, Round: 7, Epoch: 1})
	if n.HasToken() || len(e.Msgs) != 0 {
		t.Fatal("stale-epoch token must vanish")
	}
	// Same for decorated tokens.
	e2 := n.HandleMessage(6, Message{Kind: MsgTokenReturn, From: 0, To: 1, Round: 7, Epoch: 1, Requester: 1, ReturnTo: 0})
	if n.HasToken() || len(e2.Msgs) != 0 {
		t.Fatal("stale-epoch decorated token must vanish")
	}
	// A fresher epoch is adopted and travels on the onward pass.
	e3 := n.HandleMessage(7, Message{Kind: MsgToken, From: 0, To: 1, Round: 8, Epoch: 5})
	if n.epoch != 5 {
		t.Errorf("epoch = %d, want 5", n.epoch)
	}
	if len(e3.Msgs) != 1 || e3.Msgs[0].Epoch != 5 {
		t.Errorf("onward pass = %+v, want epoch 5", e3.Msgs)
	}
}

func TestRecoveryDecideStaleGenIgnored(t *testing.T) {
	n := newNode(t, 2, recConfig(4))
	requestAndSuspect(t, n)
	// Wrong generation: nothing happens.
	e := n.HandleTimer(150, TimerRecoveryDecide, 999)
	if e.Granted || n.HasToken() {
		t.Fatal("stale decide must be ignored")
	}
	// Replies outside an active round are ignored too.
	n2 := newNode(t, 2, recConfig(4))
	n2.HandleMessage(1, Message{Kind: MsgRecoveryReply, From: 0, To: 2, Round: 3})
	if n2.RecoveryActive() {
		t.Error("reply must not start a round")
	}
}

func TestRecoveryTimerNoopWhenServed(t *testing.T) {
	n := newNode(t, 2, recConfig(4))
	req := n.Request(0)
	var recGen uint64
	for _, tm := range req.Timers {
		if tm.Kind == TimerRecovery {
			recGen = tm.Gen
		}
	}
	// Token arrives before the timer fires.
	n.HandleMessage(10, Message{Kind: MsgToken, From: 1, To: 2, Round: 3})
	e := n.HandleTimer(100, TimerRecovery, recGen)
	if len(e.Msgs) != 0 {
		t.Fatal("recovery must not fire after the grant")
	}
}

func TestServedRecordSuppressesStaleDelivery(t *testing.T) {
	cfg := Config{Variant: BinarySearch, N: 8, TrapGC: GCRotation, HoldIdle: 50}
	holder := newNode(t, 0, cfg)
	holder.GiveToken(0)
	// Trap for node 3's request #2.
	holder.addTrap(3, 2, 3, 0)
	// The token already knows request #2 of node 3 completed.
	holder.served[3] = 2
	var e Effects
	if holder.deliverNext(0, &e) {
		t.Fatal("served trap must be skipped, not delivered")
	}
	if holder.TrapCount() != 0 {
		t.Error("served trap must be discarded")
	}
	// A newer request from the same node still delivers.
	holder.addTrap(3, 3, 3, 0)
	var e2 Effects
	if !holder.deliverNext(0, &e2) {
		t.Fatal("fresh trap must deliver")
	}
}

func TestServedRecordTravelsAndSweeps(t *testing.T) {
	cfg := Config{Variant: BinarySearch, N: 8, TrapGC: GCRotation}
	a := newNode(t, 0, cfg)
	// Node 0 served its own request #1 and passes the token on
	// (no idle hold: Release passes immediately).
	a.Request(0)
	a.GiveToken(0)
	rel := a.Release(1)
	// Find the pass message; its served record must name node 0.
	var pass *Message
	for i := range rel.Msgs {
		if rel.Msgs[i].Kind == MsgToken {
			pass = &rel.Msgs[i]
		}
	}
	if pass == nil {
		t.Fatal("release must pass the token")
	}
	if want := []uint64{1, 0, 0, 0, 0, 0, 0, 0}; !slices.Equal(pass.Served, want) {
		t.Fatalf("served record = %v, want %v", pass.Served, want)
	}
	if a.served != nil {
		t.Fatalf("node 0 kept the record it passed on: %v", a.served)
	}
	// Node 1 holds a stale trap for node 0's request #1; receiving the
	// token sweeps it.
	b := newNode(t, 1, cfg)
	b.addTrap(0, 1, 0, 0)
	b.HandleMessage(2, *pass)
	if b.TrapCount() != 0 {
		t.Errorf("stale trap survived the sweep: %d", b.TrapCount())
	}
}

func TestServedIgnoredOutsideRotationGC(t *testing.T) {
	n := newNode(t, 0, Config{Variant: BinarySearch, N: 4})
	n.recordServed(1, 1)
	if len(n.served) != 0 {
		t.Error("recordServed must be a no-op without rotation GC")
	}
	n.adoptServed([]uint64{0, 1, 0, 0})
	if len(n.served) != 0 {
		t.Error("adoptServed must be a no-op without rotation GC")
	}
}
