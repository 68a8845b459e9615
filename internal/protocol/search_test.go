package protocol

import "testing"

func TestDirectedProbeAndSteer(t *testing.T) {
	cfg := Config{Variant: DirectedSearch, N: 8}
	req := newNode(t, 0, cfg)
	e := req.Request(0)
	if len(e.Msgs) != 1 || e.Msgs[0].Kind != MsgProbe || e.Msgs[0].To != 4 {
		t.Fatalf("initial probe = %+v", e.Msgs)
	}

	// Probed node without token replies with its stamp and traps.
	target := newNode(t, 4, cfg)
	target.lastSeen = 9
	e2 := target.HandleMessage(1, e.Msgs[0])
	if len(e2.Msgs) != 1 || e2.Msgs[0].Kind != MsgProbeReply || e2.Msgs[0].HasToken {
		t.Fatalf("reply = %+v", e2.Msgs)
	}
	if target.TrapCount() != 1 {
		t.Error("probed node must trap")
	}

	// Reply steers the requester: target stamp 9 > requester stamp 0 →
	// clockwise from 4 by window/2 = 2 → probe 6.
	e3 := req.HandleMessage(2, e2.Msgs[0])
	if len(e3.Msgs) != 1 || e3.Msgs[0].Kind != MsgProbe || e3.Msgs[0].To != 6 {
		t.Fatalf("steered probe = %+v", e3.Msgs)
	}

	// Counter-clockwise case: fresh requester, stale target.
	req2 := newNode(t, 0, cfg)
	req2.lastSeen = 20
	req2.Request(0)
	reply := Message{Kind: MsgProbeReply, From: 4, To: 0, Requester: 0, ReqSeq: 1, Round: 3}
	e4 := req2.HandleMessage(3, reply)
	if len(e4.Msgs) != 1 || e4.Msgs[0].To != 2 {
		t.Fatalf("ccw probe = %+v", e4.Msgs)
	}
}

func TestDirectedProbeAtHolderDelivers(t *testing.T) {
	cfg := Config{Variant: DirectedSearch, N: 8, HoldIdle: 50}
	holder := newNode(t, 4, cfg)
	holder.GiveToken(0)
	e := holder.HandleMessage(1, Message{Kind: MsgProbe, From: 0, To: 4, Requester: 0, ReqSeq: 1})
	// Found-reply plus decorated delivery.
	var reply, delivery *Message
	for i := range e.Msgs {
		switch e.Msgs[i].Kind {
		case MsgProbeReply:
			reply = &e.Msgs[i]
		case MsgTokenReturn:
			delivery = &e.Msgs[i]
		}
	}
	if reply == nil || !reply.HasToken {
		t.Fatalf("missing found-reply: %+v", e.Msgs)
	}
	if delivery == nil || delivery.Requester != 0 {
		t.Fatalf("missing delivery: %+v", e.Msgs)
	}
}

func TestDirectedProbeReplyStaleOrServed(t *testing.T) {
	cfg := Config{Variant: DirectedSearch, N: 8}
	n := newNode(t, 0, cfg)
	n.Request(0)
	// HasToken reply: stop probing.
	e := n.HandleMessage(1, Message{Kind: MsgProbeReply, From: 4, To: 0, Requester: 0, ReqSeq: 1, HasToken: true})
	if len(e.Msgs) != 0 {
		t.Error("found reply must stop probing")
	}
	// Stale ReqSeq ignored.
	e2 := n.HandleMessage(2, Message{Kind: MsgProbeReply, From: 4, To: 0, Requester: 0, ReqSeq: 99, Round: 5})
	if len(e2.Msgs) != 0 {
		t.Error("stale reply must be ignored")
	}
	// Probing exhausts: window shrinks 4→2→1, then stops.
	e3 := n.HandleMessage(3, Message{Kind: MsgProbeReply, From: 4, To: 0, Requester: 0, ReqSeq: 1, Round: 5})
	if len(e3.Msgs) != 1 {
		t.Fatalf("first steer: %+v", e3.Msgs)
	}
	e4 := n.HandleMessage(4, Message{Kind: MsgProbeReply, From: 6, To: 0, Requester: 0, ReqSeq: 1, Round: 5})
	if len(e4.Msgs) != 1 {
		t.Fatalf("second steer: %+v", e4.Msgs)
	}
	e5 := n.HandleMessage(5, Message{Kind: MsgProbeReply, From: 7, To: 0, Requester: 0, ReqSeq: 1, Round: 5})
	if len(e5.Msgs) != 0 {
		t.Errorf("window exhausted, must stop: %+v", e5.Msgs)
	}
}

func TestPushRoundProbesCascade(t *testing.T) {
	cfg := Config{Variant: PushProbe, N: 8}
	holder := newNode(t, 0, cfg)
	e := holder.GiveToken(0)
	// Idle holder starts a push round instead of passing.
	var queries []Message
	for _, m := range e.Msgs {
		if m.Kind == MsgWantQuery {
			queries = append(queries, m)
		}
	}
	if len(queries) != 3 { // distances 4, 2, 1 → nodes 4, 2, 1
		t.Fatalf("queries = %+v", queries)
	}
	dests := map[int]bool{}
	for _, q := range queries {
		dests[q.To] = true
	}
	if !dests[4] || !dests[2] || !dests[1] {
		t.Errorf("cascade targets = %v", dests)
	}
	if len(e.Timers) != 1 || e.Timers[0].Kind != TimerPushRound || e.Timers[0].Delay != pushWait {
		t.Fatalf("timers = %+v", e.Timers)
	}
	if !holder.HasToken() {
		t.Error("holder keeps token during the round")
	}

	// No wants: round expiry passes the token.
	e2 := holder.HandleTimer(3, TimerPushRound, e.Timers[0].Gen)
	if len(e2.Msgs) != 1 || e2.Msgs[0].Kind != MsgToken || e2.Msgs[0].To != 1 {
		t.Fatalf("push expiry = %+v", e2.Msgs)
	}
}

func TestPushWantReplyDelivers(t *testing.T) {
	cfg := Config{Variant: PushProbe, N: 8}
	holder := newNode(t, 0, cfg)
	e := holder.GiveToken(0)

	// A queried node that wants the token.
	wanter := newNode(t, 4, cfg)
	wanter.Request(0) // push variant sends no search
	var query Message
	for _, m := range e.Msgs {
		if m.Kind == MsgWantQuery && m.To == 4 {
			query = m
		}
	}
	e2 := wanter.HandleMessage(1, query)
	if len(e2.Msgs) != 1 || !e2.Msgs[0].Want {
		t.Fatalf("want reply = %+v", e2.Msgs)
	}

	// The holder delivers upon the want reply.
	e3 := holder.HandleMessage(2, e2.Msgs[0])
	if len(e3.Msgs) != 1 || e3.Msgs[0].Kind != MsgTokenReturn || e3.Msgs[0].Requester != 4 {
		t.Fatalf("push delivery = %+v", e3.Msgs)
	}
	// The round timer is now stale.
	e4 := holder.HandleTimer(3, TimerPushRound, e.Timers[0].Gen)
	if len(e4.Msgs) != 0 {
		t.Error("stale push timer must be a no-op")
	}
	// Uninterested reply is ignored.
	e5 := holder.HandleMessage(3, Message{Kind: MsgWantReply, From: 2, To: 0, Requester: 2, Want: false})
	if len(e5.Msgs) != 0 {
		t.Error("no-want reply must be ignored")
	}
}

func TestRingVariantNeverSearches(t *testing.T) {
	n := newNode(t, 0, Config{Variant: RingToken, N: 8, ResearchTimeout: 5})
	e := n.Request(0)
	if len(e.Msgs) != 0 || len(e.Timers) != 0 {
		t.Fatalf("ring request must be silent: %+v", e)
	}
}
