package host

import (
	"testing"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
)

// stubClock is a manual clock with the typed-timer fast path; armed timers
// are discarded (the alloc test drives the host by hand).
type stubClock struct{ now sim.Time }

func (c *stubClock) Now() sim.Time                                      { return c.now }
func (c *stubClock) AfterFunc(d sim.Time, fn func())                    {}
func (c *stubClock) AfterTimer(d sim.Time, node int, tm protocol.Timer) {}

// captureNet records the last dispatched message so the test can feed the
// token around the ring by hand.
type captureNet struct {
	last protocol.Message
	ok   bool
}

func (n *captureNet) Deliver(m protocol.Message, extra sim.Time) {
	n.last, n.ok = m, true
}

// TestArriveFastPathZeroAlloc pins the observer-off contract the telemetry
// subsystem must not regress: with a nil Observer (no tracer attached),
// steady-state token circulation through Host.Arrive allocates nothing —
// bare, and with every hook set, which is how the driver runs it. The hooks
// are func values, so a message handed to one by address would escape to the
// heap on every arrival; only the hooked case can see that.
func TestArriveFastPathZeroAlloc(t *testing.T) {
	calls := 0
	for _, tc := range []struct {
		name  string
		hooks Hooks
	}{
		{"bare", Hooks{}},
		{"every hook", Hooks{
			Granted:     func(int) { calls++ },
			TimerGate:   func(int, protocol.Timer) bool { calls++; return true },
			DeliverGate: func(m protocol.Message) bool { calls++; return m.Kind == protocol.MsgToken },
			Applied:     func(int) { calls++ },
			Condemned:   func() bool { calls++; return false },
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { arriveZeroAlloc(t, tc.hooks) })
	}
	if calls == 0 {
		t.Fatal("no hook ran")
	}
}

func arriveZeroAlloc(t *testing.T, hooks Hooks) {
	const n = 4
	cfg := protocol.Config{Variant: protocol.RingToken, N: n}
	nodes := make([]*protocol.Node, n)
	for i := range nodes {
		nd, err := protocol.New(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
	}
	clk := &stubClock{}
	net := &captureNet{}
	h, err := New(Config{
		Clock:   clk,
		Network: net,
		Machine: func(id int) *protocol.Node { return nodes[id] },
		Hooks:   hooks,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Bootstrap node 0 and let the scratch buffer reach steady capacity.
	h.Apply(0, nodes[0].GiveToken(0))
	if !net.ok {
		t.Fatal("bootstrap produced no token pass")
	}
	hop := func() {
		m := net.last
		net.ok = false
		clk.now++
		h.Arrive(m)
		if !net.ok {
			t.Fatal("token circulation stalled")
		}
	}
	for i := 0; i < 2*n; i++ {
		hop()
	}

	allocs := testing.AllocsPerRun(200, func() { hop() })
	if allocs != 0 {
		t.Fatalf("observer-off Arrive fast path allocates %.1f/op, want 0", allocs)
	}
}
