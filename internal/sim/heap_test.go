package sim

import (
	"sort"
	"testing"

	"adaptivetoken/internal/protocol"
)

// recordingHandler captures typed events in dispatch order.
type recordingHandler struct {
	msgs   []protocol.Message
	timers []struct {
		node int
		tm   protocol.Timer
	}
}

func (h *recordingHandler) Arrive(m protocol.Message) { h.msgs = append(h.msgs, m) }
func (h *recordingHandler) FireTimer(node int, tm protocol.Timer) {
	h.timers = append(h.timers, struct {
		node int
		tm   protocol.Timer
	}{node, tm})
}

// Typed events at equal times must dispatch in scheduling order (FIFO),
// interleaved correctly with closure events — the determinism contract every
// golden trace depends on.
func TestTypedEventsEqualTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	h := &recordingHandler{}
	e.SetHandler(h)

	var order []int
	// Interleave the three event kinds at the same timestamp.
	_ = e.At(5, func() { order = append(order, 0) })
	_ = e.AtMessage(5, protocol.Message{Kind: protocol.MsgToken, From: 1, To: 2})
	_ = e.AtTimer(5, 3, protocol.Timer{Kind: protocol.TimerHold, Gen: 7})
	_ = e.AtMessage(5, protocol.Message{Kind: protocol.MsgSearch, From: 4, To: 5})
	_ = e.At(5, func() { order = append(order, 1) })

	e.Drain(100)

	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("closure order: %v", order)
	}
	if len(h.msgs) != 2 || h.msgs[0].Kind != protocol.MsgToken || h.msgs[1].Kind != protocol.MsgSearch {
		t.Fatalf("message order: %+v", h.msgs)
	}
	if len(h.timers) != 1 || h.timers[0].node != 3 || h.timers[0].tm.Gen != 7 {
		t.Fatalf("timer dispatch: %+v", h.timers)
	}
	if e.Now() != 5 || e.Events() != 5 || e.Pending() != 0 {
		t.Fatalf("now=%d events=%d pending=%d", e.Now(), e.Events(), e.Pending())
	}
}

// Recycled slab slots must not retain the previous occupant's pointer-bearing
// payload (closure, attachment string, served records).
func TestSlabSlotsClearedOnRecycle(t *testing.T) {
	e := NewEngine(1)
	h := &recordingHandler{}
	e.SetHandler(h)

	_ = e.AtMessage(1, protocol.Message{
		Kind:   protocol.MsgToken,
		Attach: "attachment",
		Served: []protocol.ServedRec{{Requester: 1, ReqSeq: 2}},
	})
	e.Drain(1)
	if len(e.free) != 1 {
		t.Fatalf("free list: %v", e.free)
	}
	slot := e.recs[e.free[0]]
	if slot.fn != nil || slot.msg.Attach != "" || slot.msg.Served != nil {
		t.Fatalf("recycled slot retains payload: %+v", slot)
	}

	// The recycled slot is reused and dispatches the new payload, not the old.
	_ = e.AtTimer(2, 9, protocol.Timer{Kind: protocol.TimerResearch, Gen: 3})
	e.Drain(1)
	if len(h.timers) != 1 || h.timers[0].node != 9 {
		t.Fatalf("reuse dispatch: %+v", h.timers)
	}
}

// fanOutHandler schedules burst messages from inside the Arrive of the first
// one it sees (Hops 0), which grows the slab under the event being
// dispatched.
type fanOutHandler struct {
	e     *Engine
	burst int
	got   []protocol.Message
}

func (h *fanOutHandler) Arrive(m protocol.Message) {
	h.got = append(h.got, m)
	if m.Hops != 0 {
		return
	}
	for i := 1; i <= h.burst; i++ {
		h.e.AfterMessage(1, protocol.Message{
			Kind:   protocol.MsgToken,
			Hops:   i,
			Attach: "child",
			Served: []protocol.ServedRec{{Requester: i}},
		})
	}
}

func (h *fanOutHandler) FireTimer(int, protocol.Timer) {}

// An event is dispatched in its slab slot and the slot is recycled only
// after the handler returns, by index. So a handler that grows the slab still
// gets its message intact, nothing it schedules lands in the slot being
// dispatched (the clearing afterwards would wipe it), and the slot ends up on
// the free-list once, cleared.
func TestDispatchInPlaceAcrossSlabGrowth(t *testing.T) {
	for _, sched := range []Scheduler{SchedulerWheel, SchedulerHeap} {
		t.Run(sched.String(), func(t *testing.T) {
			e := NewEngineScheduler(1, sched)
			h := &fanOutHandler{e: e, burst: 100}
			e.SetHandler(h)
			_ = e.AtMessage(1, protocol.Message{
				Kind:   protocol.MsgToken,
				Attach: "root",
				Served: []protocol.ServedRec{{Requester: 7, ReqSeq: 9}},
			})
			before := &e.recs[0]
			if !e.Step() {
				t.Fatal("no event")
			}
			if len(e.recs) != 1+h.burst || &e.recs[0] == before {
				t.Fatalf("slab has %d slots (moved: %v), want %d in a new array: the burst must not reuse the slot in flight",
					len(e.recs), &e.recs[0] != before, 1+h.burst)
			}
			if root := h.got[0]; root.Attach != "root" || len(root.Served) != 1 || root.Served[0].ReqSeq != 9 {
				t.Fatalf("handler saw %+v", root)
			}
			if len(e.free) != 1 || e.free[0] != 0 {
				t.Fatalf("free list %v, want the dispatched slot alone", e.free)
			}
			if slot := e.recs[0]; slot.fn != nil || slot.msg.Attach != "" || slot.msg.Served != nil || slot.next != 0 {
				t.Fatalf("recycled slot retains payload: %+v", slot)
			}
			e.Drain(1 << 20)
			if len(h.got) != 1+h.burst {
				t.Fatalf("%d messages arrived, want %d", len(h.got), 1+h.burst)
			}
			for i, m := range h.got[1:] {
				if m.Hops != i+1 || m.Attach != "child" || len(m.Served) != 1 || m.Served[0].Requester != i+1 {
					t.Fatalf("message %d arrived as %+v", i+1, m)
				}
			}
		})
	}
}

// Steady-state scheduling through recycled slots must not allocate: one
// warmed-up schedule+dispatch cycle is zero allocations per event.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine(1)
	h := &recordingHandler{}
	e.SetHandler(h)
	m := protocol.Message{Kind: protocol.MsgToken, From: 0, To: 1}
	tm := protocol.Timer{Kind: protocol.TimerHold, Gen: 1}

	// Warm the slab, heap and handler slices.
	for i := 0; i < 64; i++ {
		e.AfterMessage(1, m)
		e.AfterTimer(1, 0, tm)
	}
	e.Drain(1 << 20)
	h.msgs, h.timers = h.msgs[:0], h.timers[:0]

	allocs := testing.AllocsPerRun(200, func() {
		e.AfterMessage(1, m)
		e.AfterTimer(2, 0, tm)
		e.Drain(2)
		h.msgs, h.timers = h.msgs[:0], h.timers[:0]
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+dispatch allocated %.1f/run, want 0", allocs)
	}
}

// FuzzEventHeap drives random schedule/pop interleavings and checks the
// dispatch order against a reference stable sort on (time, scheduling seq).
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{1, 0, 3, 2, 0, 0, 5, 1, 9})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{7, 3, 7, 3, 200, 1, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		e := NewEngine(1)
		h := &recordingHandler{}
		e.SetHandler(h)

		type ref struct {
			at  Time
			seq int // scheduling order
		}
		var want []ref
		next := 0

		for i := 0; i < len(script); i++ {
			b := script[i]
			if b%5 == 4 {
				// Pop one event if any is pending.
				e.Step()
				continue
			}
			// Schedule a message at now + small offset; encode the
			// reference identity in the Hops field.
			at := e.Now() + Time(b%7)
			_ = e.AtMessage(at, protocol.Message{Kind: protocol.MsgToken, Hops: next})
			want = append(want, ref{at: at, seq: next})
			next++
		}
		e.Drain(1 << 20)

		// Reference order: stable sort by time keeps scheduling order at
		// equal times — exactly the engine's (at, seq) contract. Events
		// already popped mid-script fired at their then-minimum, which the
		// same global sort predicts because scheduling offsets are
		// non-negative (no later event can be scheduled before 'now').
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })

		if len(h.msgs) != len(want) {
			t.Fatalf("dispatched %d of %d events", len(h.msgs), len(want))
		}
		for i, m := range h.msgs {
			if m.Hops != want[i].seq {
				t.Fatalf("position %d: got event %d, want %d (script %v)", i, m.Hops, want[i].seq, script)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("pending %d after drain", e.Pending())
		}
	})
}
