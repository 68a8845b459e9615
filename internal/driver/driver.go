// Package driver runs the protocol state machines of internal/protocol over
// the discrete-event kernel of internal/sim, reproducing the paper's
// simulation study (§4.3): it injects workloads, delivers messages under a
// delay model, gathers responsiveness/wait/message/fairness metrics, and
// checks single-token safety after every step (the token census).
//
// Effect interpretation — dispatching messages through the fault injector,
// arming timers, granting, notifying the observer — lives in internal/host;
// the driver is the host-over-sim-clock adapter. It contributes what is
// specific to simulation: the delay model, pause/kill windows, workload
// scheduling, metrics collection and the token census.
//
// Fault injection — cheap-message loss and duplication, delivery jitter,
// node pause/resume — goes through internal/faults: a single code path with
// its own deterministic RNG, so recorded fault schedules replay exactly.
// The paper's claim that cheap-message faults affect only performance,
// never safety, is exercised by tests that run with heavy loss and verify
// every request is still served.
package driver

import (
	"fmt"

	"adaptivetoken/internal/bitset"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// Options configures a simulation run.
type Options struct {
	// Seed drives all randomness (workload and delays).
	Seed uint64
	// Delay is the message delay model; nil means the paper's constant
	// one-time-unit-per-message cost.
	Delay sim.DelayModel
	// CSTime is how long a grantee holds the token before releasing.
	CSTime sim.Time
	// Faults is the fault injector for this run (policy or replay mode);
	// nil means no faults. The injector's pause windows are scheduled
	// automatically.
	Faults *faults.Injector
	// Observer, if set, receives every state-machine step and injected
	// fault (the conformance checker plugs in here).
	Observer Observer
	// TrackFairness enables the Theorem 3 possession accounting.
	TrackFairness bool
	// InitialMembers, when non-nil, starts the run with a partial view:
	// only the listed ring positions participate (node 0, the bootstrap
	// holder, must be among them). The remaining positions sit outside the
	// cluster until a Join admits them. Setting this enables churn mode.
	InitialMembers []int
}

// Runner hosts one simulated cluster.
type Runner struct {
	cfg  protocol.Config
	opts Options

	eng *sim.Engine
	// nodes is one contiguous slab sharing a single Config (protocol.Init):
	// a 10⁶-node ring is one allocation, not 10⁶, and carries one Config
	// copy instead of one per node.
	nodes []protocol.Node
	host  *host.Host

	// Metrics.
	Resp  metrics.Responsiveness
	Waits *metrics.Waits
	Msgs  *metrics.Messages
	Fair  *metrics.Fairness

	grants    int
	issued    int // requests actually issued (not coalesced)
	coalesced int // requests skipped because the node was already pending or in CS
	census    census
	// dead and paused are bitsets: 1 bit per node per flag instead of 1
	// byte, and heldWork is an O(1) popcount read.
	dead   bitset.Set
	paused bitset.Set
	// held maps a paused node to its queued work. Lazily allocated: runs
	// without pauses (every benchmark sweep) never pay the per-node
	// slice headers an array of queues cost at 10⁶ nodes. heldN is the
	// total parked item count across all nodes.
	held   map[int][]heldItem
	heldN  int
	faults *faults.Injector
	churn  *churnState // nil until a run uses membership churn
}

// heldItem is one unit of work parked at a paused node: a typed record
// instead of a captured closure, so pausing costs no allocation per retried
// delivery. Resume re-enters the original code path, which re-runs the gate
// (exactly as the old retry closures did).
type heldItem struct {
	kind heldKind
	node int
	msg  protocol.Message
	tm   protocol.Timer
}

type heldKind uint8

const (
	heldArrive heldKind = iota + 1
	heldTimer
	heldRelease
	heldRequest
)

// New builds a cluster of cfg.N nodes and bootstraps the token at node 0.
func New(cfg protocol.Config, opts Options) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:    cfg,
		opts:   opts,
		eng:    sim.NewEngine(opts.Seed),
		Waits:  metrics.NewWaits(),
		Msgs:   metrics.NewMessages(),
		Fair:   metrics.NewFairness(),
		census: newCensus(),
	}
	if r.opts.Delay == nil {
		r.opts.Delay = sim.ConstantDelay{D: 1}
	}
	r.faults = opts.Faults
	if r.faults == nil {
		// The zero plan injects nothing and never draws from its RNG.
		inj, err := faults.NewInjector(faults.Plan{})
		if err != nil {
			return nil, err
		}
		r.faults = inj
	}
	r.dead = bitset.New(cfg.N)
	r.paused = bitset.New(cfg.N)
	r.nodes = make([]protocol.Node, cfg.N)
	for i := range r.nodes {
		if err := r.nodes[i].Init(i, &r.cfg); err != nil {
			return nil, err
		}
	}
	h, err := host.New(host.Config{
		Clock:    host.SimClock{Eng: r.eng},
		Network:  simNetwork{r},
		Faults:   r.faults,
		Observer: opts.Observer,
		Msgs:     r.Msgs,
		Machine:  func(id int) *protocol.Node { return &r.nodes[id] },
		Hooks: host.Hooks{
			Granted:     r.onGranted,
			TimerGate:   r.timerGate,
			DeliverGate: r.deliverGate,
			Applied:     r.onApplied,
			Condemned:   func() bool { return r.census.err != nil },
		},
	})
	if err != nil {
		return nil, err
	}
	r.host = h
	// Physical deliveries and armed timers land back in the host as typed
	// event records, no closure per event.
	r.eng.SetHandler(r.host)
	// Bootstrap: node 0 starts with the token at time zero.
	if err := r.eng.At(0, func() {
		r.host.Step(Step{At: 0, Kind: StepBootstrap, Node: 0}, r.nodes[0].GiveToken(0))
	}); err != nil {
		return nil, err
	}
	// The injector's pause windows.
	for _, p := range r.faults.Pauses() {
		if err := r.Pause(sim.Time(p.At), p.Node, sim.Time(p.Dur)); err != nil {
			return nil, err
		}
	}
	// Membership churn: a partial initial view or injector churn events
	// switch the runner into churn mode up front, so the in-flight epoch
	// accounting starts exact.
	churnEvents := r.faults.Churn()
	if opts.InitialMembers != nil || len(churnEvents) > 0 {
		if err := r.enableChurn(opts.InitialMembers); err != nil {
			return nil, err
		}
		if err := r.scheduleChurn(churnEvents); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// simNetwork is the driver's Network: deliveries cost the delay model plus
// fault jitter and land back in the host via the event queue. Each physical
// delivery of a token-bearing message counts in the census — so an (unsafe)
// duplicated token drives TokenCount to 2 and trips the census, and an
// (unsafe) dropped token never enters it and trips the census at 0.
type simNetwork struct{ r *Runner }

// Deliver implements host.Network.
func (n simNetwork) Deliver(m protocol.Message, extra sim.Time) {
	r := n.r
	r.countInFlight(&m, 1)
	delay := r.opts.Delay.Delay(r.eng.RNG(), m.From, m.To) + extra
	if delay < 1 {
		delay = 1
	}
	r.eng.AfterMessage(delay, m)
}

// countInFlight adds d to the in-flight accounting for one physical copy of
// m: +1 when it is put on the wire, -1 when it arrives or is swallowed.
func (r *Runner) countInFlight(m *protocol.Message, d int) {
	expensive := m.Kind.Expensive()
	if expensive {
		r.census.flight(m.Epoch, d)
	}
	if ch := r.churn; ch != nil {
		ch.inflight += d
		if expensive {
			ch.tokenTo[m.To] += d
		}
	}
}

// deliverGate queues the whole arrival — including the in-flight
// accounting — if the destination is paused, so a token stuck at a paused
// node keeps counting as in flight. Crashed endpoints swallow traffic.
func (r *Runner) deliverGate(m protocol.Message) bool {
	if r.paused.Get(m.To) && !r.dead.Get(m.To) {
		r.park(m.To, heldItem{kind: heldArrive, msg: m})
		return false
	}
	r.countInFlight(&m, -1)
	if ch := r.churn; ch != nil {
		// A departed destination swallows traffic; the sender side stays
		// open so a token passed by a node mid-leave is not lost.
		if !ch.member.Get(m.To) {
			return false
		}
	}
	if r.dead.Get(m.To) || r.dead.Get(m.From) {
		return false
	}
	if m.Kind == protocol.MsgToken && r.opts.TrackFairness {
		r.Fair.Possessed(m.To)
	}
	return true
}

// timerGate drops timers at dead nodes and queues them at paused ones.
func (r *Runner) timerGate(id int, tm protocol.Timer) bool {
	if r.dead.Get(id) {
		return false
	}
	if r.churn != nil && !r.churn.member.Get(id) {
		return false
	}
	if r.paused.Get(id) {
		r.park(id, heldItem{kind: heldTimer, node: id, tm: tm})
		return false
	}
	return true
}

// park queues one unit of work at a paused node, allocating the held map on
// first use.
func (r *Runner) park(node int, it heldItem) {
	if r.held == nil {
		r.held = make(map[int][]heldItem)
	}
	r.held[node] = append(r.held[node], it)
	r.heldN++
}

// Engine exposes the simulation engine (for tests and custom schedules).
func (r *Runner) Engine() *sim.Engine { return r.eng }

// Node returns the i-th protocol node.
func (r *Runner) Node(i int) *protocol.Node { return &r.nodes[i] }

// Grants returns the number of grants so far.
func (r *Runner) Grants() int { return r.grants }

// Issued returns the number of requests actually issued; requests arriving
// at a node that is already waiting or in its critical section coalesce
// into the outstanding one (§4.4's one-outstanding-request rule).
func (r *Runner) Issued() int { return r.issued }

// Coalesced returns the number of requests absorbed by an outstanding one.
func (r *Runner) Coalesced() int { return r.coalesced }

// InvariantErr returns the token census's first violation, if any.
func (r *Runner) InvariantErr() error { return r.census.err }

// FaultSchedule returns the replayable record of every fault decision the
// run's injector has taken so far.
func (r *Runner) FaultSchedule() faults.Schedule { return r.faults.Schedule() }

// Holder returns the ring position of the current token holder (the lowest
// one, should several hold), or -1 while the token is in flight (or lost).
// Used by the telemetry series sampler.
func (r *Runner) Holder() int {
	lowest := -1
	for _, h := range r.census.holders {
		if lowest < 0 || h.node < lowest {
			lowest = h.node
		}
	}
	return lowest
}

// TokenCount returns live holders plus in-flight token messages, all epochs;
// it must be exactly 1 while no node has been killed.
func (r *Runner) TokenCount() int { return r.census.tokens() }

// Kill schedules a crash of node id at time at: the node stops processing
// messages and timers, and anything addressed to it vanishes. Killing the
// token holder loses the token; only the §5 recovery extension
// (Config.RecoveryTimeout) can regenerate it. Kill is Crash: the corpse
// also leaves the membership view, so the survivors route around it
// instead of forwarding the (regenerated) token into a black hole forever.
func (r *Runner) Kill(at sim.Time, id int) error {
	return r.Crash(at, id)
}

// Pause freezes node for [at, at+dur): deliveries, timers, requests and
// releases targeting it queue up and drain, in order, at resume. Unlike
// Kill, a paused node loses nothing — the token census stays exact (a
// token stuck at a paused node still counts as in flight).
func (r *Runner) Pause(at sim.Time, node int, dur sim.Time) error {
	if node < 0 || node >= r.cfg.N {
		return fmt.Errorf("driver: pause of node %d out of range", node)
	}
	if dur <= 0 {
		return fmt.Errorf("driver: pause duration %d must be positive", dur)
	}
	if err := r.eng.At(at, func() {
		if r.dead.Get(node) || r.paused.Get(node) {
			return
		}
		r.paused.Set(node)
		r.host.EmitFault(FaultEvent{At: r.eng.Now(), Kind: FaultPause, Node: node})
	}); err != nil {
		return err
	}
	return r.eng.At(at+dur, func() {
		if !r.paused.Get(node) {
			return
		}
		r.paused.Clear(node)
		r.host.EmitFault(FaultEvent{At: r.eng.Now(), Kind: FaultResume, Node: node})
		q := r.held[node]
		delete(r.held, node)
		r.heldN -= len(q)
		for i := range q {
			switch it := &q[i]; it.kind {
			case heldArrive:
				r.host.Arrive(it.msg)
			case heldTimer:
				r.host.FireTimer(it.node, it.tm)
			case heldRelease:
				r.doRelease(it.node)
			case heldRequest:
				r.doRequest(it.node)
			}
		}
		// If the drain queued nothing new, give the node its backing array
		// back for the next pause window.
		if len(q) > 0 && len(r.held[node]) == 0 {
			r.held[node] = q[:0]
		}
	})
}

// heldWork reports whether any node is paused or has queued work — the run
// is not quiescent until both clear.
func (r *Runner) heldWork() bool {
	return r.paused.Any() || r.heldN > 0
}

// onApplied re-counts the stepping node in the token census, commits any
// graceful leave the step made safe, and checks the census — after every
// applied step.
func (r *Runner) onApplied(id int) {
	n := &r.nodes[id]
	r.census.hold(id, n.HasToken(), n.Epoch())
	if ch := r.churn; ch != nil && !ch.committing && ch.wantLeave.Any() {
		r.tryLeaves()
	}
	r.census.check(r.eng.Now())
}

// onGranted updates metrics and schedules the release after the critical
// section.
func (r *Runner) onGranted(id int) {
	now := int64(r.eng.Now())
	r.grants++
	r.Resp.Granted(now)
	r.Waits.Granted(id, now)
	if r.opts.TrackFairness {
		r.Fair.Possessed(id)
		r.Fair.Granted(id)
	}
	r.eng.After(r.opts.CSTime, func() {
		r.doRelease(id)
	})
}

// doRelease exits the critical section at node id, queueing if paused.
func (r *Runner) doRelease(id int) {
	if r.dead.Get(id) {
		return
	}
	if r.paused.Get(id) {
		r.park(id, heldItem{kind: heldRelease, node: id})
		return
	}
	eff := r.nodes[id].Release(protocol.Time(r.eng.Now()))
	r.host.Step(Step{At: r.eng.Now(), Kind: StepRelease, Node: id}, eff)
}

// Request schedules a token request by node at absolute time at.
func (r *Runner) Request(at sim.Time, node int) error {
	return r.eng.At(at, func() {
		r.doRequest(node)
	})
}

// doRequest issues a token request at node, queueing if paused.
func (r *Runner) doRequest(node int) {
	if r.dead.Get(node) {
		return
	}
	if r.churn != nil && !r.churn.member.Get(node) {
		return // outside the cluster: requests are no-ops until it joins
	}
	if r.paused.Get(node) {
		r.park(node, heldItem{kind: heldRequest, node: node})
		return
	}
	n := &r.nodes[node]
	if n.Pending() || n.InCS() {
		r.coalesced++
		return // the one-outstanding throttle, host side
	}
	r.issued++
	now := int64(r.eng.Now())
	r.Resp.RequestArrived(now)
	r.Waits.Requested(node, now)
	if r.opts.TrackFairness {
		r.Fair.Requested(node, now)
	}
	r.host.Step(Step{At: r.eng.Now(), Kind: StepRequest, Node: node}, n.Request(protocol.Time(now)))
}

// RunWorkload materializes count requests from gen, schedules them, and
// runs the simulation until every request has been served (or maxTime is
// hit). It returns the simulated end time, and an error unless every
// request was served and the token census held to the end, with exactly
// one token left.
func (r *Runner) RunWorkload(gen workload.Generator, count int, maxTime sim.Time) (sim.Time, error) {
	rng := sim.NewRNG(r.opts.Seed ^ 0xa5a5a5a5a5a5a5a5)
	reqs := workload.Take(gen, rng, count)
	if len(reqs) == 0 {
		return r.eng.Now(), nil
	}
	r.eng.Reserve(len(reqs))
	for _, req := range reqs {
		if err := r.Request(req.At, req.Node); err != nil {
			return 0, err
		}
	}
	// Run in slices until all waits are resolved.
	for r.eng.Now() < maxTime {
		next := r.eng.Now() + 10_000
		if next > maxTime {
			next = maxTime
		}
		r.eng.RunUntil(next)
		if err := r.census.err; err != nil {
			return r.eng.Now(), err
		}
		if r.Waits.Outstanding() == 0 && r.eng.Now() >= reqs[len(reqs)-1].At && !r.heldWork() {
			break
		}
	}
	if r.Waits.Outstanding() > 0 {
		return r.eng.Now(), fmt.Errorf("driver: %d requests unserved at t=%d (variant %s)",
			r.Waits.Outstanding(), r.eng.Now(), r.cfg.Variant)
	}
	return r.eng.Now(), r.census.end(r.eng.Now())
}

// Result summarizes a run for the experiment harness.
type Result struct {
	Variant        string
	N              int
	Grants         int
	Issued         int
	Coalesced      int
	EndTime        sim.Time
	SimEvents      int // discrete events the kernel executed
	Responsiveness metrics.Summary
	Waits          metrics.Summary
	Messages       map[string]int64
	TotalMessages  int64
	// FairMax and FairTotal carry the Theorem 3 possession summaries;
	// they are meaningful only when Options.TrackFairness was set.
	FairMax   metrics.Summary
	FairTotal metrics.Summary
}

// Summarize collects the run's metrics.
func (r *Runner) Summarize(end sim.Time) Result {
	msgs := r.Msgs.Snapshot()
	res := Result{
		Variant:        r.cfg.Variant.String(),
		N:              r.cfg.N,
		Grants:         r.grants,
		Issued:         r.issued,
		Coalesced:      r.coalesced,
		EndTime:        end,
		SimEvents:      r.eng.Events(),
		Responsiveness: r.Resp.Summary(),
		Waits:          r.Waits.Summary(),
		Messages:       msgs,
		TotalMessages:  r.Msgs.Total(),
	}
	if r.opts.TrackFairness {
		res.FairMax = r.Fair.MaxSummary()
		res.FairTotal = r.Fair.TotalSummary()
	}
	return res
}
