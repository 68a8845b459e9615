package driver

// The churn engine: driver-level membership events — Join, Leave, Crash —
// that rewire the ring through membership.Tracker with epoch-stamped views
// (the paper's §5 sketch made executable). Churn events are time-keyed and
// carried on faults.Plan/Schedule exactly like pause windows, so recorded
// schedules replay verbatim and ddmin-shrink cleanly.
//
// Semantics:
//
//   - Join commits at its scheduled time: the tracker bumps the view epoch,
//     the joiner receives a state-transfer stamp (the freshest circulation
//     stamp and token epoch among current members, so its ⊂_C comparisons
//     start from the cluster's present), and every member applies the new
//     view as an observable StepView step, in ascending id order.
//   - Leave is graceful: it is deferred until the leaver is token-safe — not
//     holding, not pending, not in its critical section, not paused, no
//     token-bearing message in flight toward it — and then commits like a
//     join. Traps stored at the leaver vanish with it; trapped requesters
//     recover through their re-search timers.
//   - Crash is fail-stop: the node dies on the spot (taking any held token
//     and parked work with it) and leaves the view immediately. Token loss
//     is detected by the §5 recovery timeout and repaired by the epoch-
//     scoped election over the surviving view.
//
// View updates are control-plane: they apply even to paused nodes (a
// stalled process still loses its membership lease), while data-plane
// traffic keeps queueing.
//
// Safety under churn is the token census's rule (a) (census.go): two tokens
// of one epoch are a bug, and it is what catches the planted BuggyElection
// double mint.

import (
	"fmt"
	"sort"

	"adaptivetoken/internal/bitset"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/membership"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
)

// churnState is the driver's membership bookkeeping, allocated only when a
// run uses churn (initial members, churn events, or Crash).
type churnState struct {
	tracker *membership.Tracker
	member  bitset.Set // current view, mirrored for O(1) gating

	// wantLeave marks graceful leaves awaiting a safe point; its popcount
	// is the pending-leave count.
	wantLeave  bitset.Set
	committing bool // a view propagation is in progress (reentrancy guard)
	leaving    bool // tryLeaves is on the stack (reentrancy guard)

	// inflight counts every physical message on the wire (parked arrivals
	// at paused nodes included); tokenTo counts token-bearing in-flights
	// per destination (the leave-safety gate).
	inflight int
	tokenTo  []int
}

// enableChurn switches the runner into churn mode. Idempotent. Counters
// start from the current in-flight state, which is exact when churn is
// enabled before the engine runs (every supported path: Options, injector
// plans, and pre-run Join/Leave/Crash scheduling).
func (r *Runner) enableChurn(initial []int) error {
	if r.churn != nil {
		return nil
	}
	if initial == nil {
		initial = make([]int, r.cfg.N)
		for i := range initial {
			initial[i] = i
		}
	}
	view := membership.NewView(0, initial)
	if !view.Contains(0) {
		return fmt.Errorf("driver: initial members %v must include node 0 (the bootstrap holder)", initial)
	}
	for _, m := range view.Members {
		if m < 0 || m >= r.cfg.N {
			return fmt.Errorf("driver: initial member %d outside ring of %d", m, r.cfg.N)
		}
	}
	ch := &churnState{
		tracker:   membership.NewTracker(view),
		member:    bitset.New(r.cfg.N),
		wantLeave: bitset.New(r.cfg.N),
		tokenTo:   make([]int, r.cfg.N),
		inflight:  r.census.inFlight,
	}
	for _, m := range view.Members {
		ch.member.Set(m)
	}
	r.churn = ch
	// Give the members their initial view directly (no steps: the engine
	// has not started; observers learn membership from churn events and
	// snapshots).
	if len(view.Members) < r.cfg.N {
		for _, m := range view.Members {
			r.nodes[m].ApplyView(0, protocol.ViewUpdate{Epoch: view.Epoch, Members: view.Members})
		}
	}
	return nil
}

// scheduleChurn installs the injector's churn events on the engine.
func (r *Runner) scheduleChurn(events []faults.ChurnEvent) error {
	for _, ce := range events {
		ce := ce
		var err error
		switch ce.Op {
		case faults.ChurnJoin:
			err = r.Join(sim.Time(ce.At), ce.Node)
		case faults.ChurnLeave:
			err = r.Leave(sim.Time(ce.At), ce.Node)
		case faults.ChurnCrash:
			err = r.Crash(sim.Time(ce.At), ce.Node)
		default:
			err = fmt.Errorf("driver: unknown churn op %q", ce.Op)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// checkChurnNode validates a churn target and ensures churn mode is on.
func (r *Runner) checkChurnNode(id int) error {
	if id < 0 || id >= r.cfg.N {
		return fmt.Errorf("driver: churn target %d outside ring of %d", id, r.cfg.N)
	}
	return r.enableChurn(r.opts.InitialMembers)
}

// Join schedules node id to enter the view at time at.
func (r *Runner) Join(at sim.Time, id int) error {
	if err := r.checkChurnNode(id); err != nil {
		return err
	}
	return r.eng.At(at, func() { r.commitJoin(id) })
}

// Leave schedules a graceful departure of node id at time at; the commit is
// deferred until the leaver is token-safe.
func (r *Runner) Leave(at sim.Time, id int) error {
	if err := r.checkChurnNode(id); err != nil {
		return err
	}
	return r.eng.At(at, func() { r.requestLeave(id) })
}

// Crash schedules a fail-stop crash of node id at time at: the node stops
// processing messages and timers, anything addressed to it vanishes, and it
// leaves the view immediately, so the survivors route around it. A crashed
// token holder takes the token with it; only the §5 recovery extension
// (Config.RecoveryTimeout) can regenerate it.
func (r *Runner) Crash(at sim.Time, id int) error {
	if err := r.checkChurnNode(id); err != nil {
		return err
	}
	return r.eng.At(at, func() { r.commitCrash(id) })
}

// commitJoin admits id into the view and propagates the new view.
func (r *Runner) commitJoin(id int) {
	ch := r.churn
	if ch.member.Get(id) || r.dead.Get(id) {
		return
	}
	// State transfer: the freshest circulation stamp and token epoch among
	// the current members seed the joiner's compacted history.
	var syncStamp, syncEpoch uint64
	for i := 0; i < r.cfg.N; i++ {
		if !ch.member.Get(i) || r.dead.Get(i) {
			continue
		}
		if ls := r.nodes[i].LastSeen(); ls > syncStamp {
			syncStamp = ls
		}
		if ep := r.nodes[i].Epoch(); ep > syncEpoch {
			syncEpoch = ep
		}
	}
	ch.member.Set(id)
	ch.tracker.Apply(membership.Change{Kind: membership.Join, Node: id})
	r.host.EmitFault(host.FaultEvent{At: r.eng.Now(), Kind: host.FaultJoin, Node: id})
	r.propagateView(id, syncStamp, syncEpoch)
}

// requestLeave marks id as wanting out and commits at once if already safe.
func (r *Runner) requestLeave(id int) {
	ch := r.churn
	if !ch.member.Get(id) || r.dead.Get(id) || ch.wantLeave.Get(id) {
		return
	}
	ch.wantLeave.Set(id)
	r.tryLeaves()
}

// commitCrash kills id and removes it from the view.
func (r *Runner) commitCrash(id int) {
	ch := r.churn
	if r.dead.Get(id) {
		return
	}
	r.dead.Set(id)
	r.paused.Clear(id)
	// Parked work dies with the node; in-flight accounting for parked
	// arrivals is settled as if the messages had been swallowed.
	if q := r.held[id]; len(q) > 0 {
		for i := range q {
			if q[i].kind == heldArrive {
				r.countInFlight(&q[i].msg, -1)
			}
		}
		r.heldN -= len(q)
	}
	delete(r.held, id)
	// The token dies with the corpse; only §5 recovery can replace it.
	r.census.crash(id)
	r.census.check(r.eng.Now())
	ch.wantLeave.Clear(id)
	if !ch.member.Get(id) {
		return
	}
	ch.member.Clear(id)
	ch.tracker.Apply(membership.Change{Kind: membership.Leave, Node: id})
	r.host.EmitFault(host.FaultEvent{At: r.eng.Now(), Kind: host.FaultCrash, Node: id})
	r.propagateView(protocol.None, 0, 0)
}

// leaveSafe reports whether id can leave without taking the token (or a
// grant in progress) with it.
func (r *Runner) leaveSafe(id int) bool {
	n := &r.nodes[id]
	return !n.HasToken() && !n.Pending() && !n.InCS() &&
		!r.paused.Get(id) && len(r.held[id]) == 0 && r.churn.tokenTo[id] == 0
}

// tryLeaves commits every pending graceful leave that has reached a safe
// point. Called after every applied step while leaves are pending.
func (r *Runner) tryLeaves() {
	ch := r.churn
	if ch.committing || ch.leaving || !ch.wantLeave.Any() {
		return
	}
	ch.leaving = true
	defer func() { ch.leaving = false }()
	for id := 0; id < r.cfg.N && ch.wantLeave.Any(); id++ {
		if !ch.wantLeave.Get(id) {
			continue
		}
		if r.dead.Get(id) {
			ch.wantLeave.Clear(id)
			continue
		}
		if !r.leaveSafe(id) {
			continue
		}
		ch.wantLeave.Clear(id)
		ch.member.Clear(id)
		ch.tracker.Apply(membership.Change{Kind: membership.Leave, Node: id})
		r.host.EmitFault(host.FaultEvent{At: r.eng.Now(), Kind: host.FaultLeave, Node: id})
		r.propagateView(protocol.None, 0, 0)
	}
}

// propagateView applies the tracker's current view to every live member as
// an observable StepView step, in ascending id order. The joiner (if any)
// additionally receives the state-transfer stamps.
func (r *Runner) propagateView(joiner int, syncStamp, syncEpoch uint64) {
	ch := r.churn
	ch.committing = true
	v := ch.tracker.View()
	now := r.eng.Now()
	for i := 0; i < r.cfg.N; i++ {
		if !ch.member.Get(i) || r.dead.Get(i) {
			continue
		}
		u := protocol.ViewUpdate{Epoch: v.Epoch, Members: v.Members}
		if i == joiner {
			u.SyncStamp = syncStamp
			u.SyncEpoch = syncEpoch
		}
		eff := r.nodes[i].ApplyView(protocol.Time(now), u)
		r.host.Step(host.Step{At: now, Kind: host.StepView, Node: i}, eff)
	}
	ch.committing = false
	r.afterChurn()
}

// afterChurn runs the leaves deferred while committing.
func (r *Runner) afterChurn() {
	if r.churn.wantLeave.Any() {
		r.tryLeaves()
	}
}

// Members returns the current view's members (all ring positions when churn
// is off).
func (r *Runner) Members() []int {
	if r.churn == nil {
		all := make([]int, r.cfg.N)
		for i := range all {
			all[i] = i
		}
		return all
	}
	v := r.churn.tracker.View()
	return append([]int(nil), v.Members...)
}

// ChurnNodeState is one node's protocol state in a ChurnSnapshot.
type ChurnNodeState struct {
	Member, Dead bool
	HasToken     bool
	InCS         bool
	Pending      bool
	Decorated    bool // holds a decorated token (return pending)
	Recovering   bool // probe round in flight
	Round        uint64
	LastSeen     uint64
	Epoch        uint64
	Traps        []int // trap requesters, FIFO
}

// ChurnSnapshot is the wall-to-wall state the churn conformance checker
// reads to decide when a stable epoch has committed (and from which to
// re-pin its ghost term).
type ChurnSnapshot struct {
	ViewEpoch uint64
	Members   []int // sorted ascending
	InFlight  int   // physical messages on the wire (parked ones included)
	HeldWork  bool  // some node is paused or has queued work
	Nodes     []ChurnNodeState
}

// ChurnSnapshot captures the current cluster state. Valid only while churn
// is enabled.
func (r *Runner) ChurnSnapshot() ChurnSnapshot {
	ch := r.churn
	if ch == nil {
		return ChurnSnapshot{}
	}
	v := ch.tracker.View()
	s := ChurnSnapshot{
		ViewEpoch: v.Epoch,
		Members:   append([]int(nil), v.Members...),
		InFlight:  ch.inflight,
		HeldWork:  r.heldWork(),
		Nodes:     make([]ChurnNodeState, r.cfg.N),
	}
	sort.Ints(s.Members)
	for i := 0; i < r.cfg.N; i++ {
		n := &r.nodes[i]
		s.Nodes[i] = ChurnNodeState{
			Member:     ch.member.Get(i),
			Dead:       r.dead.Get(i),
			HasToken:   n.HasToken(),
			InCS:       n.InCS(),
			Pending:    n.Pending(),
			Decorated:  n.DecoratedHold(),
			Recovering: n.RecoveryActive(),
			Round:      n.Round(),
			LastSeen:   n.LastSeen(),
			Epoch:      n.Epoch(),
			Traps:      n.TrapRequesters(nil),
		}
	}
	return s
}
