package sim

import (
	"testing"

	"adaptivetoken/internal/protocol"
)

// nullHandler consumes typed events without retaining them, isolating the
// engine's own costs.
type nullHandler struct{ msgs, timers int }

func (h *nullHandler) Arrive(protocol.Message)       { h.msgs++ }
func (h *nullHandler) FireTimer(int, protocol.Timer) { h.timers++ }

// BenchmarkEngineMessageEvent measures one schedule+dispatch cycle of a
// typed message event through a warmed slab: the steady-state hot path of
// every simulated delivery. Run with -benchmem; the budget is 0 B/op.
func BenchmarkEngineMessageEvent(b *testing.B) {
	e := NewEngine(1)
	h := &nullHandler{}
	e.SetHandler(h)
	m := protocol.Message{Kind: protocol.MsgToken, From: 0, To: 1, Round: 3}
	for i := 0; i < 64; i++ {
		e.AfterMessage(1, m)
	}
	e.Drain(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterMessage(1, m)
		e.Step()
	}
}

// BenchmarkEngineTimerEvent is the same cycle for typed timer events.
func BenchmarkEngineTimerEvent(b *testing.B) {
	e := NewEngine(1)
	h := &nullHandler{}
	e.SetHandler(h)
	tm := protocol.Timer{Kind: protocol.TimerHold, Gen: 1}
	for i := 0; i < 64; i++ {
		e.AfterTimer(1, 0, tm)
	}
	e.Drain(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterTimer(1, 0, tm)
		e.Step()
	}
}

// BenchmarkEngineClosureEvent is the closure escape hatch for comparison:
// each event allocates its captured closure.
func BenchmarkEngineClosureEvent(b *testing.B) {
	e := NewEngine(1)
	sink := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() { sink++ })
		e.Step()
	}
}

// BenchmarkEngineUnitDelay models the paper's cost model distribution: a
// deep backlog (1024 pending events) where every new event lands at now+1 —
// unit message delay, the case the timing wheel turns from an O(log n) sift
// into an O(1) bucket append. Run with -benchmem (budget 0 B/op).
func BenchmarkEngineUnitDelay(b *testing.B) {
	e := NewEngine(1)
	h := &nullHandler{}
	e.SetHandler(h)
	m := protocol.Message{Kind: protocol.MsgToken, From: 0, To: 1}
	for i := 0; i < 1024; i++ {
		e.AfterMessage(1, m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterMessage(1, m)
		e.Step()
	}
}

// BenchmarkEngineSameTimestampBatch measures the batch-dispatch path: 1024
// events at one timestamp drained by a single RunUntil sweep, the shape a
// broadcast round produces. Reported time is per 1024-event batch.
func BenchmarkEngineSameTimestampBatch(b *testing.B) {
	const batch = 1024
	e := NewEngine(1)
	h := &nullHandler{}
	e.SetHandler(h)
	m := protocol.Message{Kind: protocol.MsgSearch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			e.AfterMessage(1, m)
		}
		e.RunUntil(e.Now() + 1)
	}
	b.ReportMetric(batch, "events/op")
}

// BenchmarkEngineHeapChurn keeps a deep heap (1024 pending events) while
// scheduling and popping, exercising the 4-ary sift paths.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine(1)
	h := &nullHandler{}
	e.SetHandler(h)
	m := protocol.Message{Kind: protocol.MsgSearch}
	for i := 0; i < 1024; i++ {
		e.AfterMessage(Time(e.RNG().Intn(1000)+1), m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterMessage(Time(e.RNG().Intn(1000)+1), m)
		e.Step()
	}
}
