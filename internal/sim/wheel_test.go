package sim

import (
	"sort"
	"testing"

	"adaptivetoken/internal/protocol"
)

// Scheduling at now+wheelSize-1 must land in a wheel bucket; now+wheelSize is
// the first time outside the horizon and must go to the overflow heap.
func TestWheelHorizonBoundary(t *testing.T) {
	e := NewEngine(1)
	h := &recordingHandler{}
	e.SetHandler(h)

	_ = e.AtMessage(wheelSize-1, protocol.Message{Kind: protocol.MsgToken, Hops: 0})
	if e.wheelLen != 1 || len(e.overflow) != 0 {
		t.Fatalf("t=wheelSize-1: wheelLen=%d overflow=%d, want wheel", e.wheelLen, len(e.overflow))
	}
	_ = e.AtMessage(wheelSize, protocol.Message{Kind: protocol.MsgToken, Hops: 1})
	if e.wheelLen != 1 || len(e.overflow) != 1 {
		t.Fatalf("t=wheelSize: wheelLen=%d overflow=%d, want overflow", e.wheelLen, len(e.overflow))
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending()=%d, want 2 (wheel + overflow)", e.Pending())
	}

	e.Drain(10)
	if len(h.msgs) != 2 || h.msgs[0].Hops != 0 || h.msgs[1].Hops != 1 {
		t.Fatalf("dispatch order: %+v", h.msgs)
	}
	if e.Now() != wheelSize || e.Pending() != 0 {
		t.Fatalf("now=%d pending=%d", e.Now(), e.Pending())
	}
}

// The nasty FIFO case the cascade-on-advance invariant exists for: an event
// scheduled early lands in the overflow heap, the clock advances so it
// cascades into a bucket, and a handler then schedules a second event at the
// exact same timestamp directly into that bucket. The cascaded (smaller seq)
// event must dispatch first.
func TestWheelCascadeFIFOOrder(t *testing.T) {
	e := NewEngine(1)
	h := &recordingHandler{}
	e.SetHandler(h)

	const target = wheelSize + 10

	// A is beyond the horizon of now=0, so it waits in overflow.
	_ = e.AtMessage(target, protocol.Message{Kind: protocol.MsgToken, Hops: 0})
	if len(e.overflow) != 1 {
		t.Fatalf("overflow=%d, want 1", len(e.overflow))
	}

	// Advancing to t=20 pulls target=wheelSize+10 inside the new horizon
	// [20, 20+wheelSize), cascading A into its bucket.
	_ = e.At(20, func() {})
	e.Step()
	if len(e.overflow) != 0 || e.wheelLen != 1 {
		t.Fatalf("after advance: overflow=%d wheelLen=%d, want cascaded", len(e.overflow), e.wheelLen)
	}

	// B shares A's timestamp but is a direct bucket append with a larger seq.
	_ = e.AtMessage(target, protocol.Message{Kind: protocol.MsgToken, Hops: 1})

	e.Drain(10)
	if len(h.msgs) != 2 || h.msgs[0].Hops != 0 || h.msgs[1].Hops != 1 {
		t.Fatalf("cascade FIFO violated: %+v", h.msgs)
	}
}

// A queue holding only far-future events must jump the clock straight to
// them, cascading in (at, seq) order across multiple wheel horizons.
func TestWheelFarFutureJump(t *testing.T) {
	e := NewEngine(1)
	h := &recordingHandler{}
	e.SetHandler(h)

	// Three events, each several horizons out, scheduled out of time order.
	times := []Time{5 * wheelSize, 3*wheelSize + 1, 9*wheelSize + 7}
	for i, at := range times {
		_ = e.AtMessage(at, protocol.Message{Kind: protocol.MsgToken, Hops: i})
	}
	e.Drain(10)

	if len(h.msgs) != 3 || h.msgs[0].Hops != 1 || h.msgs[1].Hops != 0 || h.msgs[2].Hops != 2 {
		t.Fatalf("far-future order: %+v", h.msgs)
	}
	if e.Now() != 9*wheelSize+7 {
		t.Fatalf("now=%d, want %d", e.Now(), Time(9*wheelSize+7))
	}
}

// RunUntil's batch path drains a same-timestamp bucket back-to-back, and
// events a handler schedules at the current time must join the tail of the
// in-flight sweep rather than wait for the next scheduler consultation.
func TestWheelBatchDispatchSameTimeAppend(t *testing.T) {
	e := NewEngine(1)
	var order []int
	_ = e.At(5, func() {
		order = append(order, 0)
		// Scheduled mid-sweep at the current time: appends behind C.
		e.After(0, func() { order = append(order, 2) })
	})
	_ = e.At(5, func() { order = append(order, 1) })

	if n := e.RunUntil(5); n != 3 {
		t.Fatalf("RunUntil dispatched %d, want 3 (same-time append joins the sweep)", n)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("batch order: %v", order)
	}
	if e.Now() != 5 {
		t.Fatalf("now=%d, want 5", e.Now())
	}
}

// The heap scheduler must hold the same steady-state zero-allocation bar as
// the wheel (which TestEngineSteadyStateAllocFree covers via the default).
func TestEngineSteadyStateAllocFreeHeap(t *testing.T) {
	e := NewEngineScheduler(1, SchedulerHeap)
	h := &recordingHandler{}
	e.SetHandler(h)
	m := protocol.Message{Kind: protocol.MsgToken, From: 0, To: 1}
	tm := protocol.Timer{Kind: protocol.TimerHold, Gen: 1}

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
		t.Fatalf("heap steady-state schedule+dispatch allocated %.1f/run, want 0", allocs)
	}
}

// FuzzTimingWheel drives random schedule/Step/RunUntil interleavings through
// both schedulers and checks the dispatch order against the reference stable
// sort on (time, scheduling seq). Offsets span 0 (same-time FIFO) through
// several multiples of wheelSize, so scripts cross the horizon boundary and
// exercise overflow scheduling and cascade-on-advance.
func FuzzTimingWheel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 100, 3, 255, 4, 250, 5, 6, 0})
	f.Add([]byte{4, 255, 4, 254, 4, 253, 6, 6, 6, 6})
	f.Add([]byte{3, 64, 0, 5, 3, 64, 6, 0, 4, 0, 6})
	f.Fuzz(func(t *testing.T, script []byte) {
		type ref struct {
			at  Time
			seq int
		}
		run := func(sched Scheduler) ([]protocol.Message, []ref, Time) {
			e := NewEngineScheduler(1, sched)
			h := &recordingHandler{}
			e.SetHandler(h)

			var want []ref
			next := 0
			for i := 0; i < len(script); i++ {
				switch b := script[i]; b % 7 {
				case 5:
					e.Step()
				case 6:
					// A bounded time jump exercises advance + batch drain.
					e.RunUntil(e.Now() + Time(b/7))
				default:
					// Offset class: 0/1 dense unit delays, 2 mid-range,
					// 3 spans the horizon, 4 straddles it exactly.
					var c byte
					if i+1 < len(script) {
						i++
						c = script[i]
					}
					var off Time
					switch b % 7 {
					case 0, 1:
						off = Time(b % 7)
					case 2:
						off = Time(c)
					case 3:
						off = Time(int(c) << 6)
					default:
						off = wheelSize - 2 + Time(int(c)%5)
					}
					at := e.Now() + off
					_ = e.AtMessage(at, protocol.Message{Kind: protocol.MsgToken, Hops: next})
					want = append(want, ref{at: at, seq: next})
					next++
				}
			}
			e.Drain(1 << 20)
			if e.Pending() != 0 {
				t.Fatalf("%v: pending %d after drain", sched, e.Pending())
			}
			return h.msgs, want, e.Now()
		}

		wheelMsgs, want, wheelNow := run(SchedulerWheel)
		heapMsgs, _, heapNow := run(SchedulerHeap)

		// Reference order: stable sort by time keeps scheduling order at
		// equal times. Events popped mid-script fired at their then-minimum,
		// which the same global sort predicts because offsets are
		// non-negative (no later event can be scheduled before 'now').
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })

		if len(wheelMsgs) != len(want) {
			t.Fatalf("wheel dispatched %d of %d events", len(wheelMsgs), len(want))
		}
		for i, m := range wheelMsgs {
			if m.Hops != want[i].seq {
				t.Fatalf("wheel position %d: got event %d, want %d (script %v)", i, m.Hops, want[i].seq, script)
			}
		}

		// The two schedulers must be indistinguishable: same dispatch
		// sequence, same final clock.
		if len(heapMsgs) != len(wheelMsgs) || heapNow != wheelNow {
			t.Fatalf("scheduler divergence: wheel %d events now=%d, heap %d events now=%d",
				len(wheelMsgs), wheelNow, len(heapMsgs), heapNow)
		}
		for i := range wheelMsgs {
			if wheelMsgs[i].Hops != heapMsgs[i].Hops {
				t.Fatalf("scheduler divergence at %d: wheel event %d, heap event %d (script %v)",
					i, wheelMsgs[i].Hops, heapMsgs[i].Hops, script)
			}
		}
	})
}
