// Package node hosts a protocol state machine on a live transport: the
// shared effects interpreter of internal/host runs over wall-clock timers
// (host.WallClock) and a transport.Endpoint (host.EndpointNetwork), with a
// blocking Acquire/Release API for applications. The mutual-exclusion and
// total-order-broadcast services are built on top of this runtime.
//
// Because the live path goes through the same host as the simulation
// driver, the full instrumentation stack attaches to real runs: an
// Observer (WithObserver) receives every step and fault — the conformance
// checker plugs in here — and a fault source (WithFaults) injects
// deterministic, dispatch-sequence-keyed loss/duplication/jitter whose
// recorded schedules replay exactly like simulated ones.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adaptivetoken/internal/host"
	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/transport"
)

// ErrStopped is returned by operations on a stopped runtime.
var ErrStopped = errors.New("node: runtime stopped")

// Option customizes a Runtime.
type Option func(*config)

type config struct {
	faults   host.FaultSource
	observer host.Observer
}

// WithFaults routes every dispatched message through f (policy or replay
// mode). Share one faults.Shared across a cluster's runtimes to record a
// single global-sequence schedule.
func WithFaults(f host.FaultSource) Option {
	return func(c *config) { c.faults = f }
}

// WithObserver attaches o to the runtime's host: it receives every
// state-machine step and injected fault. Use host.NewSyncObserver to share
// one observer (e.g. a conformance checker) across a cluster's runtimes.
func WithObserver(o host.Observer) Option {
	return func(c *config) { c.observer = o }
}

// Runtime drives one protocol node over an endpoint.
type Runtime struct {
	mu      sync.Mutex
	proto   *protocol.Node
	ep      transport.Endpoint
	host    *host.Host
	clock   *host.WallClock
	stopped bool
	// waiting is set while an Acquire waits for a grant; the grant hook
	// clears it and signals grant, whose one slot is free by then (see
	// Acquire), so the send never blocks.
	waiting bool
	grant   chan struct{}
	onApp   func(transport.AppData)

	loopDone chan struct{}
}

// NewRuntime wraps proto on ep. unit is the wall-clock length of one
// protocol time unit (timers scale by it); it defaults to one millisecond.
func NewRuntime(proto *protocol.Node, ep transport.Endpoint, unit time.Duration, opts ...Option) (*Runtime, error) {
	if proto == nil || ep == nil {
		return nil, errors.New("node: nil protocol node or endpoint")
	}
	if proto.ID() != ep.ID() {
		return nil, fmt.Errorf("node: protocol id %d != endpoint id %d", proto.ID(), ep.ID())
	}
	if unit <= 0 {
		unit = time.Millisecond
	}
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	r := &Runtime{proto: proto, ep: ep, grant: make(chan struct{}, 1)}
	r.clock = host.NewWallClock(unit, r.runLocked)
	h, err := host.New(host.Config{
		Clock:    r.clock,
		Network:  host.NewEndpointNetwork(ep, r.clock),
		Faults:   cfg.faults,
		Observer: cfg.observer,
		Machine:  func(int) *protocol.Node { return r.proto },
		Hooks:    host.Hooks{Granted: r.onGranted},
	})
	if err != nil {
		return nil, err
	}
	r.host = h
	r.clock.SetTimerSink(h.FireTimer)
	return r, nil
}

// runLocked is the clock's serializer: timer callbacks execute under the
// runtime lock and are dropped after Stop.
func (r *Runtime) runLocked(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	fn()
}

// onGranted wakes the waiting Acquire; with nobody waiting (canceled
// acquire, or a stale trap grant) it hands the token straight back so it
// keeps moving.
func (r *Runtime) onGranted(int) {
	if r.waiting {
		r.waiting = false
		r.grant <- struct{}{}
		return
	}
	r.release()
}

// ID returns the node's ring position.
func (r *Runtime) ID() int { return r.proto.ID() }

// Proto exposes the underlying state machine for inspection (tests,
// diagnostics). Hold no assumptions about concurrent mutation; snapshot
// methods on protocol.Node are single values.
func (r *Runtime) Proto() *protocol.Node { return r.proto }

// Start launches the receive loop.
func (r *Runtime) Start() {
	r.loopDone = make(chan struct{})
	go r.recvLoop()
}

// Stop shuts the runtime down: the endpoint closes, pending timers are
// canceled, and the receive loop exits. Safe to call concurrently with
// in-flight timer fires and Acquire.
//
// The endpoint closes before the runtime lock is taken: a dispatch
// blocked inside Send by transport backpressure (a full bounded lane to
// an unreachable peer) holds the lock, and only closing the endpoint
// unblocks it — taking the lock first would deadlock the shutdown.
func (r *Runtime) Stop() {
	r.ep.Close()
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	r.clock.Stop()
	if r.loopDone != nil {
		<-r.loopDone
	}
}

// PendingTimers returns the number of armed, unfired wall-clock timers —
// 0 after Stop (the shutdown leak check).
func (r *Runtime) PendingTimers() int { return r.clock.Outstanding() }

// MsgStats returns a snapshot of the per-kind dispatch counters, including
// the fault counters ("dropped", "duplicated", "delayed").
func (r *Runtime) MsgStats() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.host.Msgs().Snapshot()
}

// MsgStatsSorted returns the per-kind dispatch counters as a sorted slice:
// the deterministic, allocation-bounded form diffed output and the /metrics
// exporter consume.
func (r *Runtime) MsgStatsSorted() []metrics.KindCount {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.host.Msgs().SnapshotSorted()
}

// Stats returns a diagnostic snapshot of the protocol state, taken under
// the runtime lock.
func (r *Runtime) Stats() protocol.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proto.Stats()
}

// Bootstrap makes this node the initial token holder. Call on exactly one
// node per ring.
func (r *Runtime) Bootstrap() {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.clock.Now()
	r.host.StepInto(host.Step{At: now, Kind: host.StepBootstrap, Node: r.ID()},
		func(e *protocol.Effects) { r.proto.GiveTokenInto(protocol.Time(now), e) })
}

// Acquire blocks until the token is granted to this node or ctx is done.
// It returns nil exactly when the token is held — also when the grant
// raced the cancellation and won — and the caller must then call Release.
func (r *Runtime) Acquire(ctx context.Context) error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return ErrStopped
	}
	if r.waiting {
		r.mu.Unlock()
		return errors.New("node: concurrent Acquire on one runtime")
	}
	// Wait before stepping: an immediate self-grant signals through the
	// Granted hook, the same path a remote grant takes.
	r.waiting = true
	now := r.clock.Now()
	r.host.StepInto(host.Step{At: now, Kind: host.StepRequest, Node: r.ID()},
		func(e *protocol.Effects) { r.proto.RequestInto(protocol.Time(now), e) })
	r.mu.Unlock()

	select {
	case <-r.grant:
		return nil
	case <-ctx.Done():
		r.mu.Lock()
		defer r.mu.Unlock()
		if !r.waiting {
			// The grant came first and its signal is in the slot: keep the
			// token, and drain the slot for the next Acquire.
			<-r.grant
			return nil
		}
		// A grant arriving from now on finds nobody waiting and is
		// released at once by the grant hook, keeping the token moving.
		r.waiting = false
		return ctx.Err()
	}
}

// Release returns the token after a successful Acquire.
func (r *Runtime) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.release()
}

// release steps the protocol's critical-section exit; r.mu is held.
func (r *Runtime) release() {
	now := r.clock.Now()
	r.host.StepInto(host.Step{At: now, Kind: host.StepRelease, Node: r.ID()},
		func(e *protocol.Effects) { r.proto.ReleaseInto(protocol.Time(now), e) })
}

// TryAttachment returns the token's application attachment; valid while the
// token is held (between Acquire and Release).
func (r *Runtime) TryAttachment() (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.proto.InCS() {
		return "", false
	}
	return r.proto.Attachment(), true
}

// SetAttachment replaces the token attachment; only valid while held.
func (r *Runtime) SetAttachment(s string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.proto.SetAttachment(s)
}

// ApplyView installs a membership view on the live node, reported to the
// observer as a StepView step — the control plane of the live churn
// scenarios, mirroring the simulation driver's view propagation.
func (r *Runtime) ApplyView(u protocol.ViewUpdate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	now := r.clock.Now()
	r.host.StepInto(host.Step{At: now, Kind: host.StepView, Node: r.ID()},
		func(e *protocol.Effects) { r.proto.ApplyViewInto(protocol.Time(now), u, e) })
}

// Inspect runs fn on the protocol node under the runtime lock. The live
// churn harness reads settle-point state (holder, stamps, traps) through
// this; fn must not call back into the runtime.
func (r *Runtime) Inspect(fn func(*protocol.Node)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.proto)
}

// OnApp registers the handler for application data envelopes. Must be set
// before Start.
func (r *Runtime) OnApp(fn func(transport.AppData)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onApp = fn
}

// BroadcastApp sends application data to every node, including this one.
func (r *Runtime) BroadcastApp(n int, d transport.AppData) error {
	for i := 0; i < n; i++ {
		if err := r.ep.Send(transport.Envelope{To: i, App: &d}); err != nil {
			return err
		}
	}
	return nil
}

// recvLoop pumps the endpoint into the host.
func (r *Runtime) recvLoop() {
	defer close(r.loopDone)
	for env := range r.ep.Recv() {
		switch {
		case env.Proto != nil:
			r.mu.Lock()
			if r.stopped {
				r.mu.Unlock()
				return
			}
			r.host.Arrive(*env.Proto)
			r.mu.Unlock()
			// Arrive copied the message out; the box is ours to recycle.
			transport.FreeProto(env.Proto)
		case env.App != nil:
			r.mu.Lock()
			fn := r.onApp
			r.mu.Unlock()
			if fn != nil {
				fn(*env.App)
			}
		}
	}
}
