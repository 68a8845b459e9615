package conformance

// Churn-mode conformance: trace inclusion with regeneration stutter rules.
//
// The Figure 5–7 systems model a fixed ring with one immortal token; the §5
// churn engine (internal/driver churn + protocol views + election-based
// regeneration) deliberately steps outside them. ChurnChecker reconciles
// the two with the stutter discipline the refinement framework already
// uses for lossy rules: while the cluster is inside a churn or recovery
// window — a membership view is propagating, a token-loss probe round or
// election is in flight — the ghost TRS term may STUTTER (no rule is
// applied, no step is checked). The moment the cluster commits a stable
// epoch, the checker RE-PINS: it snapshots the membership view, maps the
// live implementation ids onto spec ring positions 0..|view|-1, rebases
// wire stamps onto spec circulation counts, synthesizes the corresponding
// mid-execution spec state (spec.Pin), and resumes rule-by-rule trace
// inclusion — token passes must again be rule 4, gimmes rule 5r/6, trap
// service rule 7/8, and the ghost-state invariants (prefix chain, token
// uniqueness, Q completeness) are re-asserted over the new ring.
//
// Stutter windows open on
//   - a membership fault event (join, leave, crash) or a StepView step, and
//   - any step that carries §5 recovery traffic (probe, reply, elect) —
//     whether delivered or freshly emitted — plus drops/dups of the same.
//
// A stable epoch has committed when the driver's churn snapshot shows a
// quiescent data plane: zero physical messages in flight, no parked work,
// no probe round active, and exactly one live member holding an undecorated
// token with the view-maximal circulation stamp. Every such snapshot is a
// sound pin point; the first one after a window closes it. The checker
// observes a step after its handler has run and before the host dispatches
// its effects, so the snapshot's in-flight count does not yet hold the
// step's own sends: the predicate adds them (DESIGN.md §6).
//
// The simulation driver hands the checker its snapshot probe (Bind) and
// the checker re-pins itself inside a step. A live cluster cannot be read
// from inside a step, so its harness (internal/torture) takes the snapshot
// at quiescent settle points and passes it to Repin; the window rules, the
// stable-epoch test and the pin conversion are the same code for both.
//
// Within stable epochs the per-step single-token safety of Theorem 1 is
// enforced twice over: checked on every applied step by the driver's token
// census (driver.Runner.InvariantErr) and re-proved on the ghost state by
// TokenUniquenessInvariant at the checker cadence. Finish
// additionally demands the run END in a stable epoch: a trace that never
// re-stabilizes after its final churn burst — the token stays lost, a view
// never commits — is a conformance failure, not a silent stutter.

import (
	"fmt"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/spec"
)

// ChurnChecker is the churn-aware conformance observer: a pinned Checker
// that stutters across churn/recovery windows and re-pins on stable-epoch
// commit. Implements host.Observer.
type ChurnChecker struct {
	cfg  protocol.Config
	snap func() driver.ChurnSnapshot

	inner      *Checker // nil while stuttering
	stuttering bool

	doneSteps int // steps checked by completed segments
	seenSteps int // every observed step, checked or stuttered
	windows   int // stutter windows entered
	repins    int // stable-epoch re-pins (segment starts after the first)
	err       error
}

// NewChurn builds a churn-mode checker for cfg. members is the initial
// membership view (ascending, containing node 0); nil means the full ring.
// Before the driver runs, the initial stable epoch is known a priori —
// node 0 holds the bootstrap token, every stamp is zero — so the first
// segment needs no snapshot. Call Bind before the engine runs to give the
// checker its stable-epoch probe; a run without churn or recovery never
// opens a stutter window and needs none.
func NewChurn(cfg protocol.Config, members []int) (*ChurnChecker, error) {
	if members == nil {
		members = identity(cfg.N)
	}
	if len(members) == 0 || members[0] != 0 {
		return nil, fmt.Errorf("conformance: churn members %v must start at node 0 (the bootstrap holder)", members)
	}
	inner, err := NewPinned(cfg, members, 0, bootstrapPin(len(members)))
	if err != nil {
		return nil, err
	}
	return &ChurnChecker{cfg: cfg, inner: inner}, nil
}

// Bind installs the stable-epoch probe — driver.Runner.ChurnSnapshot as a
// method value. Must be called before the engine runs; until then the
// checker can check (the initial segment) but never re-pin.
func (c *ChurnChecker) Bind(snap func() driver.ChurnSnapshot) { c.snap = snap }

// Err returns the first conformance violation, if any.
func (c *ChurnChecker) Err() error { return c.err }

// Steps returns how many trace steps were checked rule-by-rule (stuttered
// steps excluded).
func (c *ChurnChecker) Steps() int {
	if c.inner != nil {
		return c.doneSteps + c.inner.Steps()
	}
	return c.doneSteps
}

// SeenSteps returns every observed step, checked or stuttered.
func (c *ChurnChecker) SeenSteps() int { return c.seenSteps }

// Windows returns how many stutter windows were entered.
func (c *ChurnChecker) Windows() int { return c.windows }

// Repins returns how many stable-epoch re-pins have happened.
func (c *ChurnChecker) Repins() int { return c.repins }

// recoveryKind reports whether a message kind belongs to the §5 recovery
// family (probe, reply, elect) — traffic with no Figure 5–7 counterpart.
func recoveryKind(k protocol.MsgKind) bool { return k >= protocol.MsgRecoveryProbe }

// opensWindow reports whether a step must open (or extend) a stutter
// window instead of being checked.
func opensWindow(s host.Step) bool {
	if s.Kind == host.StepView {
		return true
	}
	if s.Msg != nil && recoveryKind(s.Msg.Kind) {
		return true
	}
	for _, m := range s.Effects.Msgs {
		if recoveryKind(m.Kind) {
			return true
		}
	}
	return false
}

// OnStep implements host.Observer.
func (c *ChurnChecker) OnStep(s host.Step) {
	if c.err != nil {
		return
	}
	c.seenSteps++
	if !c.stuttering {
		if !opensWindow(s) {
			c.inner.OnStep(s)
			c.err = c.inner.Err()
			return
		}
		c.enterWindow()
	}
	c.tryRepin(len(s.Effects.Msgs))
}

// OnFault implements host.Observer.
func (c *ChurnChecker) OnFault(f host.FaultEvent) {
	if c.err != nil {
		return
	}
	switch f.Kind {
	case host.FaultJoin, host.FaultLeave, host.FaultCrash:
		c.enterWindow()
		return
	}
	if c.stuttering {
		return // faults inside a window are part of the stutter
	}
	if (f.Kind == host.FaultDrop || f.Kind == host.FaultDup) && recoveryKind(f.Msg.Kind) {
		c.enterWindow()
		return
	}
	c.inner.OnFault(f)
	c.err = c.inner.Err()
}

// Finish closes the run: the trace must end inside a stable epoch (one
// final re-pin is attempted at quiescence), and the closing segment's
// ghost-state invariants must hold.
func (c *ChurnChecker) Finish() error {
	if c.err != nil {
		return c.err
	}
	if c.stuttering {
		c.tryRepin(0) // the run is over: no step is between handler and effects
	}
	if c.stuttering {
		c.err = fmt.Errorf("conformance: run ended inside a churn window — no stable epoch re-committed after %d stutter windows (token lost, or view never quiesced)", c.windows)
		return c.err
	}
	c.err = c.inner.Finish()
	return c.err
}

// enterWindow opens a stutter window, retiring the current segment.
func (c *ChurnChecker) enterWindow() {
	if c.stuttering {
		return
	}
	c.doneSteps += c.inner.Steps()
	c.inner = nil
	c.stuttering = true
	c.windows++
}

// tryRepin probes the driver for a stable epoch and, on commit, re-enters
// rule-by-rule checking from a fresh pin. unsent is the number of messages
// the step being observed has produced and the host has not yet dispatched.
func (c *ChurnChecker) tryRepin(unsent int) {
	if c.snap != nil {
		c.repin(c.snap(), unsent)
	}
}

// Repin reports whether s shows a committed stable epoch and, if the
// checker is stuttering, re-enters rule-by-rule checking from it. It is
// the caller-driven counterpart of Bind for clusters whose state cannot be
// read from inside a step — live runtimes, whose harness snapshots every
// member at quiescent settle points and passes the snapshot in. No step
// may sit between its handler and its effects while s is taken.
func (c *ChurnChecker) Repin(s driver.ChurnSnapshot) bool { return c.repin(s, 0) }

// repin is Repin with unsent messages counted as in flight.
func (c *ChurnChecker) repin(s driver.ChurnSnapshot, unsent int) bool {
	members, base, pin, ok := stablePin(s, unsent)
	if !ok || c.err != nil || !c.stuttering {
		return ok
	}
	inner, err := NewPinned(c.cfg, members, base, pin)
	if err != nil {
		// The stability predicate guarantees a well-formed pin; a failure
		// here is a checker bug, reported loudly rather than stuttered over.
		c.err = fmt.Errorf("conformance: re-pin after stutter window %d: %w", c.windows, err)
		return true
	}
	c.inner = inner
	c.stuttering = false
	c.repins++
	return true
}

// stablePin decides whether a churn snapshot is a committed stable epoch
// and, if so, converts it into pin coordinates: the ascending member list,
// the stamp base (view-minimal LastSeen), and the synthesized spec pin.
// unsent counts messages already produced but not yet on the wire the
// snapshot saw; they are in flight all the same.
func stablePin(s driver.ChurnSnapshot, unsent int) (members []int, base uint64, pin spec.Pin, ok bool) {
	if len(s.Nodes) == 0 || len(s.Members) < 2 {
		return nil, 0, pin, false // no snapshot yet, or a collapsed view
	}
	if s.InFlight+unsent != 0 || s.HeldWork {
		return nil, 0, pin, false // data plane not quiescent
	}
	holder := -1
	var maxSeen uint64
	base = ^uint64(0)
	for _, id := range s.Members {
		ns := s.Nodes[id]
		if !ns.Member || ns.Dead || ns.Recovering || ns.InCS || ns.Decorated {
			return nil, 0, pin, false
		}
		if ns.HasToken {
			if holder != -1 || ns.Pending {
				return nil, 0, pin, false // dual hold, or a grant about to fire
			}
			holder = id
		}
		if ns.LastSeen < base {
			base = ns.LastSeen
		}
		if ns.LastSeen > maxSeen {
			maxSeen = ns.LastSeen
		}
	}
	if holder == -1 || s.Nodes[holder].LastSeen != maxSeen {
		return nil, 0, pin, false // token lost, or a fresher stamp is loose
	}
	n := len(s.Members)
	pin = spec.Pin{
		N:         n,
		TokenCirc: int(maxSeen - base),
		NodeCirc:  make([]int, n),
		Ready:     make([]bool, n),
	}
	pos := make(map[int]int, n)
	for p, id := range s.Members {
		pos[id] = p
	}
	for p, id := range s.Members {
		ns := s.Nodes[id]
		if id == holder {
			pin.Holder = p
		}
		pin.NodeCirc[p] = int(ns.LastSeen - base)
		pin.Ready[p] = ns.Pending
		for _, req := range ns.Traps {
			rp, in := pos[req]
			if !in {
				continue // trap for a departed requester: dead weight the view update will clear
			}
			pin.Traps = append(pin.Traps, [2]int{p, rp})
		}
	}
	return s.Members, base, pin, true
}
