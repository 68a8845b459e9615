// Package host is the transport- and clock-agnostic interpreter of
// protocol.Effects: the single implementation of "apply an effect" — send a
// message through the fault injector, arm a timer, report a grant, notify
// the observer and the metrics pipeline — parameterized by a Clock (virtual
// simulation time or the wall clock) and a Network (simulated delivery or a
// live transport.Endpoint).
//
// Both hosting environments are thin adapters over this package:
// internal/driver runs a Host per cluster on the discrete-event engine, and
// internal/node runs a Host per live runtime on wall-clock timers. Because
// the interpretation is shared, everything that hooks into it — the
// deterministic fault injector of internal/faults, the driver.Observer
// trace (and with it the internal/conformance checker), the message
// counters of internal/metrics — works identically on simulated and live
// runs.
package host

import (
	"errors"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
)

// Clock abstracts time for the host: the simulation engine's virtual clock
// or a wall clock scaled by a protocol time unit.
type Clock interface {
	// Now returns the current time in host units.
	Now() sim.Time
	// AfterFunc schedules fn after d host time units. Implementations
	// must eventually run fn on the host's execution context (the sim
	// event loop, or under the live runtime's lock) — or drop it if the
	// host has shut down.
	AfterFunc(d sim.Time, fn func())
}

// Network abstracts physical message delivery. Deliver ships one copy of m
// with extra fault-injected delay on top of the network's own delivery
// cost; the host calls it once per physical copy (twice for a duplicated
// message).
type Network interface {
	Deliver(m protocol.Message, extra sim.Time)
}

// TimerScheduler is the typed timer path: a Clock that also implements it
// receives armed timers as (node, protocol.Timer) records instead of
// closures. SimClock implements it over the engine's typed event scheduler
// (allocation-free); WallClock implements it to see each timer's kind and
// generation, which lets it cancel the ones a later arming made useless.
type TimerScheduler interface {
	AfterTimer(d sim.Time, node int, tm protocol.Timer)
}

// FaultSource decides the fate of dispatched messages. *faults.Injector
// implements it for single-threaded hosts; faults.Shared serializes one
// injector across the concurrent hosts of a live cluster.
type FaultSource interface {
	OnMessage(expensive bool) faults.Verdict
}

// Hooks are the host-environment extension points; any may be nil.
type Hooks struct {
	// Granted runs when a step's effects grant the token to node id,
	// before the step's messages dispatch (metrics, waking an Acquire,
	// scheduling the release after the critical section).
	Granted func(id int)
	// TimerGate runs before a fired timer reaches the state machine.
	// Returning false swallows the firing; a gate that wants to retry
	// later (paused nodes) records (id, tm) itself and re-enters via
	// Host.FireTimer — typed records instead of captured closures, so the
	// gate costs nothing on the hot path.
	TimerGate func(id int, tm protocol.Timer) bool
	// DeliverGate runs before an arrived message reaches the state
	// machine, with the same swallow/record-and-retry contract as
	// TimerGate (re-enter via Host.Arrive).
	DeliverGate func(m protocol.Message) bool
	// Applied runs after a step's effects are fully interpreted
	// (invariant checking).
	Applied func(id int)
	// Condemned, when it reports true, stops all dispatching: the run is
	// already known bad and feeding the network would only compound the
	// damage (e.g. multiply a duplicated token without bound).
	Condemned func() bool
}

// Config assembles a Host.
type Config struct {
	Clock   Clock
	Network Network
	// Faults decides drop/dup/delay per dispatched message; nil means a
	// fault-free injector.
	Faults FaultSource
	// Observer, if set, receives every step and injected fault.
	Observer Observer
	// Msgs counts dispatched messages by kind; nil allocates a private
	// counter set.
	Msgs *metrics.Messages
	// Machine resolves a node id to its protocol state machine.
	Machine func(id int) *protocol.Node
	Hooks   Hooks
}

// Host interprets the effects of protocol state machines over a clock and a
// network. It is not safe for concurrent use; callers serialize (the sim
// event loop is single-threaded, live runtimes hold their lock).
type Host struct {
	clock      Clock
	timerSched TimerScheduler // non-nil when clock supports typed timers
	net        Network
	faults     FaultSource
	obs        Observer
	msgs       *metrics.Messages
	machine    func(id int) *protocol.Node
	hooks      Hooks

	// scratch is the reusable per-step effects buffer of the observer-off
	// fast path; applying guards against reentrant steps (e.g. a network
	// that delivers synchronously), which fall back to a fresh buffer.
	scratch  protocol.Effects
	applying bool
}

// New validates cfg and builds a Host.
func New(cfg Config) (*Host, error) {
	if cfg.Clock == nil || cfg.Network == nil || cfg.Machine == nil {
		return nil, errors.New("host: Clock, Network and Machine are required")
	}
	if cfg.Faults == nil {
		inj, err := faults.NewInjector(faults.Plan{})
		if err != nil {
			return nil, err
		}
		cfg.Faults = inj
	}
	if cfg.Msgs == nil {
		cfg.Msgs = metrics.NewMessages()
	}
	h := &Host{
		clock:   cfg.Clock,
		net:     cfg.Network,
		faults:  cfg.Faults,
		obs:     cfg.Observer,
		msgs:    cfg.Msgs,
		machine: cfg.Machine,
		hooks:   cfg.Hooks,
	}
	if ts, ok := cfg.Clock.(TimerScheduler); ok {
		h.timerSched = ts
	}
	return h, nil
}

// Msgs returns the host's message counters.
func (h *Host) Msgs() *metrics.Messages { return h.msgs }

// Step reports one state-machine step to the observer, then applies its
// effects (so fault events for the produced messages follow their step).
// With no observer attached the step record is never materialized.
func (h *Host) Step(s Step, e protocol.Effects) {
	if h.obs == nil {
		h.Apply(s.Node, e)
		return
	}
	s.Effects = e
	h.obs.OnStep(s)
	h.Apply(s.Node, e)
}

// EmitFault reports one injected fault to the observer (the host emits
// drop/dup/delay itself; environments emit pause/resume).
func (h *Host) EmitFault(f FaultEvent) {
	if h.obs != nil {
		h.obs.OnFault(f)
	}
}

// Apply interprets the effects of one state-machine step at node id: grant
// first, then message dispatch, then timer arming.
func (h *Host) Apply(id int, e protocol.Effects) {
	if e.Granted && h.hooks.Granted != nil {
		h.hooks.Granted(id)
	}
	for i := range e.Msgs {
		h.Dispatch(&e.Msgs[i])
	}
	for _, tm := range e.Timers {
		if h.timerSched != nil {
			h.timerSched.AfterTimer(sim.Time(tm.Delay), id, tm)
		} else {
			id, tm := id, tm
			h.clock.AfterFunc(sim.Time(tm.Delay), func() {
				h.FireTimer(id, tm)
			})
		}
	}
	if h.hooks.Applied != nil {
		h.hooks.Applied(id)
	}
}

// Dispatch sends one message through the fault injector and on to the
// network. All loss/duplication/jitter decisions go through the injector,
// one code path for simulated and live runs alike. It reads m where it lies
// (Apply points it into the step's Effects.Msgs) and keeps no reference:
// the message is first copied at Network.Deliver, once per physical copy.
func (h *Host) Dispatch(m *protocol.Message) {
	if h.hooks.Condemned != nil && h.hooks.Condemned() {
		return
	}
	h.msgs.IncSlot(metrics.KindSlot(int(m.Kind)))
	v := h.faults.OnMessage(m.Kind.Expensive())
	if v.Drop {
		h.msgs.IncDropped()
		h.EmitFault(FaultEvent{At: h.clock.Now(), Kind: FaultDrop, Msg: *m})
		return
	}
	if v.Dup {
		h.msgs.IncDuplicated()
		h.EmitFault(FaultEvent{At: h.clock.Now(), Kind: FaultDup, Msg: *m, Delay: v.DupDelay})
		h.net.Deliver(*m, v.DupDelay)
	}
	if v.Delay > 0 {
		h.msgs.IncDelayed()
		h.EmitFault(FaultEvent{At: h.clock.Now(), Kind: FaultDelay, Msg: *m, Delay: v.Delay})
	}
	h.net.Deliver(*m, v.Delay)
}

// Arrive processes one physical delivery: it runs the deliver gate, hands
// the message to the destination state machine, and steps the result. With
// no observer attached it runs the zero-allocation fast path: the state
// machine appends into the host's reset-and-reused scratch buffer and no
// Step record is built.
//
// m stays a by-value parameter all the way into the gate and the state
// machine. Handing &m to the func-valued DeliverGate (or to any interface
// method) would make m escape — one heap allocation per event — so the two
// copies Arrive makes, one for the gate and one for HandleMessageInto, are
// the price of keeping it on the stack.
func (h *Host) Arrive(m protocol.Message) {
	if h.hooks.DeliverGate != nil && !h.hooks.DeliverGate(m) {
		return
	}
	now := h.clock.Now()
	if h.obs == nil && !h.applying {
		h.applying = true
		h.scratch.Reset()
		h.machine(m.To).HandleMessageInto(protocol.Time(now), m, &h.scratch)
		h.Apply(m.To, h.scratch)
		h.applying = false
		return
	}
	eff := h.machine(m.To).HandleMessage(protocol.Time(now), m)
	mc := m
	h.Step(Step{At: now, Kind: StepDeliver, Node: m.To, Msg: &mc}, eff)
}

// FireTimer runs one armed timer at node id through the timer gate and the
// state machine, and steps the result. Like Arrive, the observer-off path
// reuses the scratch effects buffer.
func (h *Host) FireTimer(id int, tm protocol.Timer) {
	if h.hooks.TimerGate != nil && !h.hooks.TimerGate(id, tm) {
		return
	}
	now := h.clock.Now()
	if h.obs == nil && !h.applying {
		h.applying = true
		h.scratch.Reset()
		h.machine(id).HandleTimerInto(protocol.Time(now), tm.Kind, tm.Gen, &h.scratch)
		h.Apply(id, h.scratch)
		h.applying = false
		return
	}
	eff := h.machine(id).HandleTimer(protocol.Time(now), tm.Kind, tm.Gen)
	h.Step(Step{At: now, Kind: StepTimer, Node: id, Timer: tm.Kind}, eff)
}
