// Package conformance replays driver execution traces against the paper's
// term-rewriting specifications (internal/spec) and reports the first step
// that is not explained by any spec rule.
//
// The checker implements host.Observer. It maintains a ghost spec state —
// the lossy Search/BinarySearch system of internal/spec with effectively
// unbounded finitization (spec.CheckerBounds) — and advances it in lockstep
// with the implementation:
//
//   - every state-machine step maps to the spec rule it implements
//     (bootstrap/pass → rule 4, token receipt → rule 3, gimme issue → rule
//     5r, gimme forward → rule 6, trap delivery → rule 7, decorated use and
//     return → rule 8, request arrival → rule 1);
//   - injected cheap-message faults map to the fault rules (drop → L,
//     duplicate → D); expensive-message faults have no spec rule and are
//     violations by definition;
//   - after each step the ghost state is transit-normalized (rule 2) and its
//     in-flight messages, projected onto round-counter shapes
//     (spec.MsgShape), are compared as a multiset against the messages the
//     implementation actually has in flight. Spec-side surplus gimmes are
//     consumed by rule L (the implementation legitimately expires searches
//     the nondeterministic spec keeps forwarding); any other difference is a
//     conformance violation.
//
// Histories never travel on the implementation's wire — messages carry the
// §4.4 round-counter compaction — so the comparison collapses ghost
// histories to their circulation-event counts, which is exactly what
// Round/OriginStamp encode. The spec-side invariants (prefix chain, token
// uniqueness, Q completeness) are additionally evaluated on the ghost state
// at a fixed cadence and at Finish, so a trace that somehow steered the
// ghost into an unsafe state is caught even if every individual step had a
// rule.
//
// Supported configurations: RingToken, LinearSearch and BinarySearch with
// GCNone and no recovery — the protocols the paper's Figures 5–7 model.
// Other variants and refinements have no spec system to check against; New
// rejects them.
package conformance

import (
	"fmt"

	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/spec"
	"adaptivetoken/internal/trs"
)

// invariantCadence is how many handled steps pass between ghost-state
// invariant evaluations (they are quadratic in state size; every step would
// dominate the run).
const invariantCadence = 100

// unbounded effectively disables the spec's finitization bounds for trace
// replay: the checker follows one execution, not a state space.
const unbounded = 1 << 30

// Checker replays a driver trace against a lossy spec system.
type Checker struct {
	cfg   protocol.Config
	sys   trs.System
	label string
	state trs.Term

	// Pinned-mode coordinate mapping (identity under New): ids[p] is the
	// implementation id occupying spec ring position p, pos[id] is its
	// inverse (-1 for ids outside the view), and base is the stamp offset
	// subtracted from Round/OriginStamp to obtain spec circulation counts.
	ids  []int
	pos  []int
	base uint64

	// inflight tracks the implementation's in-flight messages as projected
	// shapes (a multiset).
	inflight map[spec.MsgShape]int
	// pinned maps a node in its critical section via a decorated token to
	// the ret shape it must eventually return (rule 8 fires at Release).
	pinned map[int]spec.MsgShape

	invs  []trs.Invariant
	steps int
	err   error
}

// posOf translates an implementation node id to its spec ring position,
// or -1 when the id is not in the pinned view (filters then fail loudly).
func (c *Checker) posOf(id int) int {
	if id < 0 || id >= len(c.pos) {
		return -1
	}
	return c.pos[id]
}

// circ translates an implementation stamp (Round/OriginStamp) to a spec
// circulation count relative to the pinned base.
func (c *Checker) circ(v uint64) int {
	if v < c.base {
		return -1
	}
	return int(v - c.base)
}

// New builds a checker for cfg, rejecting configurations that have no spec
// system to check against.
func New(cfg protocol.Config) (*Checker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("conformance: need at least 2 nodes, got %d", cfg.N)
	}
	p := spec.Params{N: cfg.N, MaxBroadcasts: unbounded, MaxPending: unbounded, MaxPasses: unbounded}
	var sys trs.System
	switch cfg.Variant {
	case protocol.RingToken, protocol.LinearSearch:
		sys = spec.NewSystemSearchLossy(p, spec.CheckerBounds())
	case protocol.BinarySearch:
		sys = spec.NewSystemBinarySearchLossy(p, spec.CheckerBounds())
	default:
		return nil, fmt.Errorf("conformance: variant %s has no spec system", cfg.Variant)
	}
	if cfg.TrapGC != protocol.GCNone {
		return nil, fmt.Errorf("conformance: trap GC %s is a refinement the spec systems do not model", cfg.TrapGC)
	}
	if cfg.RecoveryTimeout != 0 {
		return nil, fmt.Errorf("conformance: §5 recovery regenerates tokens outside the Figure 5–7 systems")
	}
	init, ok := sys.Init.(trs.Tuple)
	if !ok {
		return nil, fmt.Errorf("conformance: malformed spec init state %v", sys.Init)
	}
	label := init.Label()
	ids := make([]int, cfg.N)
	pos := make([]int, cfg.N)
	for i := range ids {
		ids[i], pos[i] = i, i
	}
	return &Checker{
		cfg:      cfg,
		sys:      sys,
		label:    label,
		state:    sys.Init,
		ids:      ids,
		pos:      pos,
		inflight: make(map[spec.MsgShape]int),
		pinned:   make(map[int]spec.MsgShape),
		invs: []trs.Invariant{
			spec.ChainInvariant(label),
			spec.TokenUniquenessInvariant(label),
			spec.QCompleteInvariant(label, cfg.N),
		},
	}, nil
}

// NewPinned builds a checker whose ghost state starts mid-execution from a
// stable-epoch pin over the current membership view rather than from the
// spec's bootstrap state. members lists the live implementation ids in
// ascending order (spec position p ↔ members[p]); base is the stamp offset
// (the view's minimum LastSeen) subtracted from wire stamps to obtain spec
// circulation counts; pin describes holder, per-position circulation
// counts, pending data and trap tables in spec coordinates.
//
// Unlike New, a non-zero RecoveryTimeout is accepted: the churn wrapper
// (ChurnChecker) stutters across every §5 recovery window and only
// re-enters rule-by-rule checking through this constructor once the view
// is stable again, so the inner checker never sees a recovery message.
func NewPinned(cfg protocol.Config, members []int, base uint64, pin spec.Pin) (*Checker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(members) != pin.N {
		return nil, fmt.Errorf("conformance: %d members for a pin of %d positions", len(members), pin.N)
	}
	if cfg.TrapGC != protocol.GCNone {
		return nil, fmt.Errorf("conformance: trap GC %s is a refinement the spec systems do not model", cfg.TrapGC)
	}
	p := spec.Params{N: pin.N, MaxBroadcasts: unbounded, MaxPending: unbounded, MaxPasses: unbounded}
	var sys trs.System
	var init trs.Term
	var err error
	switch cfg.Variant {
	case protocol.RingToken, protocol.LinearSearch:
		sys = spec.NewSystemSearchLossy(p, spec.CheckerBounds())
		init, err = spec.PinnedSearchInit(pin)
	case protocol.BinarySearch:
		sys = spec.NewSystemBinarySearchLossy(p, spec.CheckerBounds())
		init, err = spec.PinnedBinarySearchInit(pin)
	default:
		return nil, fmt.Errorf("conformance: variant %s has no spec system", cfg.Variant)
	}
	if err != nil {
		return nil, err
	}
	pos := make([]int, cfg.N)
	for i := range pos {
		pos[i] = -1
	}
	ids := make([]int, len(members))
	prev := -1
	for pp, id := range members {
		if id < 0 || id >= cfg.N || id <= prev {
			return nil, fmt.Errorf("conformance: member list %v not strictly ascending within [0,%d)", members, cfg.N)
		}
		prev = id
		ids[pp], pos[id] = id, pp
	}
	tup, ok := init.(trs.Tuple)
	if !ok {
		return nil, fmt.Errorf("conformance: malformed pinned init state %v", init)
	}
	label := tup.Label()
	return &Checker{
		cfg:      cfg,
		sys:      sys,
		label:    label,
		state:    init,
		ids:      ids,
		pos:      pos,
		base:     base,
		inflight: make(map[spec.MsgShape]int),
		pinned:   make(map[int]spec.MsgShape),
		invs: []trs.Invariant{
			spec.ChainInvariant(label),
			spec.TokenUniquenessInvariant(label),
			spec.QCompleteInvariant(label, pin.N),
		},
	}, nil
}

// Err returns the first conformance violation, if any.
func (c *Checker) Err() error { return c.err }

// Steps returns how many trace steps the checker has replayed.
func (c *Checker) Steps() int { return c.steps }

// Finish evaluates the ghost-state invariants one final time and returns the
// overall verdict. Call it after the run completes.
func (c *Checker) Finish() error {
	if c.err == nil {
		if err := c.checkInvariants(); err != nil {
			c.err = err
		}
	}
	return c.err
}

// OnStep implements host.Observer.
func (c *Checker) OnStep(s host.Step) {
	if c.err != nil {
		return
	}
	if err := c.handleStep(s); err != nil {
		c.err = fmt.Errorf("conformance: step %d (%s at node %d, t=%d): %w",
			c.steps, s.Kind, s.Node, s.At, err)
	}
	c.steps++
}

// OnFault implements host.Observer.
func (c *Checker) OnFault(f host.FaultEvent) {
	if c.err != nil {
		return
	}
	if err := c.handleFault(f); err != nil {
		c.err = fmt.Errorf("conformance: fault %s at t=%d: %w", f.Kind, f.At, err)
	}
}

func (c *Checker) handleStep(s host.Step) error {
	switch s.Kind {
	case host.StepBootstrap, host.StepTimer:
		// Bootstrap and timers produce no spec rule themselves; only
		// their effects do (pass, trap delivery, re-search).
		if err := c.absorbEffects(s.Node, s.Effects.Msgs, nil); err != nil {
			return err
		}
	case host.StepRequest:
		// Rule 1: new data at the requesting node.
		node := c.posOf(s.Node)
		if err := c.apply("1", fmt.Sprintf("request at node %d", s.Node), func(b trs.Binding) bool {
			return int(b.Int("x")) == node
		}); err != nil {
			return err
		}
		if err := c.absorbEffects(s.Node, s.Effects.Msgs, nil); err != nil {
			return err
		}
	case host.StepRelease:
		if sh, ok := c.pinned[s.Node]; ok {
			return c.releasePinned(s, sh)
		}
		// The holder requested locally (no decorated handoff): release
		// just resumes rotation or trap delivery.
		if err := c.absorbEffects(s.Node, s.Effects.Msgs, nil); err != nil {
			return err
		}
	case host.StepDeliver:
		if s.Msg == nil {
			return fmt.Errorf("deliver step without a message")
		}
		return c.handleDeliver(s, *s.Msg)
	default:
		return fmt.Errorf("unknown step kind %d", int(s.Kind))
	}
	return c.settle()
}

// releasePinned is rule 8 firing at Release: the grantee returns the
// decorated token to its interceptor.
func (c *Checker) releasePinned(s host.Step, sh spec.MsgShape) error {
	delete(c.pinned, s.Node)
	if len(s.Effects.Msgs) != 1 || s.Effects.Msgs[0].Kind != protocol.MsgToken {
		return fmt.Errorf("release of a decorated token must return exactly one token, got %v", s.Effects.Msgs)
	}
	m := s.Effects.Msgs[0]
	if err := c.takeInflight(sh); err != nil {
		return err
	}
	node, dest := c.posOf(s.Node), c.posOf(m.To)
	if err := c.apply("8", fmt.Sprintf("decorated return %d→%d", s.Node, m.To), func(b trs.Binding) bool {
		return int(b.Int("x")) == node && int(b.Int("y")) == dest &&
			spec.CircCount(b.Seq("H")) == sh.Circ
	}); err != nil {
		return err
	}
	// The returned token is the rule's own output: track it, no extra rule.
	out, err := c.implShape(m)
	if err != nil {
		return err
	}
	c.inflight[out]++
	return c.settle()
}

func (c *Checker) handleDeliver(s host.Step, m protocol.Message) error {
	sh, err := c.implShape(m)
	if err != nil {
		return err
	}
	switch m.Kind {
	case protocol.MsgToken:
		if err := c.takeInflight(sh); err != nil {
			return err
		}
		// Rule 3: receive the (regular or returned) token.
		dest, circ := c.posOf(m.To), c.circ(m.Round)
		if err := c.apply("3", fmt.Sprintf("token receipt at %d (round %d)", m.To, m.Round), func(b trs.Binding) bool {
			return int(b.Int("x")) == dest && spec.CircCount(b.Seq("H")) == circ
		}); err != nil {
			return err
		}
		if err := c.absorbEffects(m.To, s.Effects.Msgs, nil); err != nil {
			return err
		}
	case protocol.MsgTokenReturn:
		if m.To != m.Requester {
			return fmt.Errorf("decorated token for %d delivered to %d (inverse-GC routing is unmodeled)", m.Requester, m.To)
		}
		if s.Effects.Granted {
			// The grant pins the decorated token at the grantee; rule 8
			// fires when it releases.
			if len(s.Effects.Msgs) != 0 {
				return fmt.Errorf("grant of a decorated token emitted messages %v", s.Effects.Msgs)
			}
			c.pinned[s.Node] = sh
			return c.settle()
		}
		// Vacuous use-and-return: rule 8 with φ service.
		if err := c.takeInflight(sh); err != nil {
			return err
		}
		if len(s.Effects.Msgs) != 1 || s.Effects.Msgs[0].Kind != protocol.MsgToken {
			return fmt.Errorf("vacuous decorated return must re-send exactly one token, got %v", s.Effects.Msgs)
		}
		out := s.Effects.Msgs[0]
		node, dest := c.posOf(s.Node), c.posOf(out.To)
		if err := c.apply("8", fmt.Sprintf("vacuous return %d→%d", s.Node, out.To), func(b trs.Binding) bool {
			return int(b.Int("x")) == node && int(b.Int("y")) == dest &&
				spec.CircCount(b.Seq("H")) == sh.Circ
		}); err != nil {
			return err
		}
		outSh, err := c.implShape(out)
		if err != nil {
			return err
		}
		c.inflight[outSh]++
	case protocol.MsgSearch:
		if err := c.takeInflight(sh); err != nil {
			return err
		}
		// Rule 6: trap and forward. The ghost rule emits its own forward
		// (possibly one the implementation expired — reconciled by rule
		// L), so forwarded gimmes in the effects take no extra rule.
		if err := c.apply("6", fmt.Sprintf("gimme for %d at node %d", m.Requester, m.To), c.forwardFilter(m)); err != nil {
			return err
		}
		ghostEmitted := func(out protocol.Message) bool { return out.Kind == protocol.MsgSearch }
		if err := c.absorbEffects(m.To, s.Effects.Msgs, ghostEmitted); err != nil {
			return err
		}
	default:
		return fmt.Errorf("delivered message kind %s has no spec counterpart", m.Kind)
	}
	return c.settle()
}

// forwardFilter picks the rule 6 application whose consumed gimme matches
// the delivered message. The two systems bind the destination differently.
func (c *Checker) forwardFilter(m protocol.Message) func(trs.Binding) bool {
	to, from, req := c.posOf(m.To), c.posOf(m.From), c.posOf(m.Requester)
	circ := c.circ(m.OriginStamp)
	if c.cfg.Variant == protocol.BinarySearch {
		return func(b trs.Binding) bool {
			return int(b.Int("rx")) == to && int(b.Int("y")) == from &&
				int(b.Int("z")) == req && int(b.Int("n")) == m.Window &&
				spec.CircCount(b.Seq("Hz")) == circ
		}
	}
	return func(b trs.Binding) bool {
		return int(b.Int("x")) == to && int(b.Int("y")) == from &&
			int(b.Int("z")) == req &&
			spec.CircCount(b.Seq("Hz")) == circ
	}
}

func (c *Checker) handleFault(f host.FaultEvent) error {
	switch f.Kind {
	case host.FaultDrop:
		if f.Msg.Kind.Expensive() {
			return fmt.Errorf("token-bearing message %s dropped: no spec rule loses the token", f.Msg.Kind)
		}
		sh, err := c.implShape(f.Msg)
		if err != nil {
			return err
		}
		if err := c.takeInflight(sh); err != nil {
			return err
		}
		return c.applyLoss(sh)
	case host.FaultDup:
		if f.Msg.Kind.Expensive() {
			return fmt.Errorf("token-bearing message %s duplicated: no spec rule duplicates the token", f.Msg.Kind)
		}
		sh, err := c.implShape(f.Msg)
		if err != nil {
			return err
		}
		if err := c.apply("D", fmt.Sprintf("duplication of %s", sh), c.shapeFilter(sh)); err != nil {
			return err
		}
		c.inflight[sh]++
		return nil
	default:
		// Delay, pause and resume reorder the trace without changing it.
		return nil
	}
}

// applyLoss consumes one ghost gimme matching sh via rule L.
func (c *Checker) applyLoss(sh spec.MsgShape) error {
	return c.apply("L", fmt.Sprintf("loss of %s", sh), c.shapeFilter(sh))
}

// shapeFilter matches the L/D rules' consumed gimme against a shape.
func (c *Checker) shapeFilter(sh spec.MsgShape) func(trs.Binding) bool {
	return func(b trs.Binding) bool {
		return int(b.Int("rx")) == sh.To && int(b.Int("y")) == sh.From &&
			int(b.Int("n")) == sh.Window && int(b.Int("z")) == sh.Requester &&
			spec.CircCount(b.Seq("Hz")) == sh.Circ
	}
}

// absorbEffects maps each emitted message to the spec rule that sends it
// (unless ghostEmitted says the current ghost step already produced it) and
// tracks its shape as in flight.
func (c *Checker) absorbEffects(node int, msgs []protocol.Message, ghostEmitted func(protocol.Message) bool) error {
	for _, m := range msgs {
		sh, err := c.implShape(m)
		if err != nil {
			return err
		}
		if ghostEmitted == nil || !ghostEmitted(m) {
			if err := c.applySend(node, m); err != nil {
				return err
			}
		}
		c.inflight[sh]++
	}
	return nil
}

// applySend maps one implementation send to its spec rule.
func (c *Checker) applySend(implNode int, m protocol.Message) error {
	node := c.posOf(implNode)
	switch m.Kind {
	case protocol.MsgToken:
		// Rule 4: pass to the successor, recording a circulation event.
		circ := c.circ(m.Round)
		return c.apply("4", fmt.Sprintf("pass %d→%d (round %d)", implNode, m.To, m.Round), func(b trs.Binding) bool {
			return int(b.Int("x")) == node && spec.CircCount(b.Seq("H"))+1 == circ
		})
	case protocol.MsgTokenReturn:
		// Rule 7: the holder serves a trap with the decorated token.
		dest, circ := c.posOf(m.To), c.circ(m.Round)
		return c.apply("7", fmt.Sprintf("trap delivery %d→%d", implNode, m.To), func(b trs.Binding) bool {
			return int(b.Int("x")) == node && int(b.Int("y")) == dest &&
				spec.CircCount(b.Seq("H")) == circ
		})
	case protocol.MsgSearch:
		// Rule 5r: a pending node (re-)issues its gimme.
		circ := c.circ(m.OriginStamp)
		return c.apply("5r", fmt.Sprintf("gimme issue %d→%d", implNode, m.To), func(b trs.Binding) bool {
			return int(b.Int("x")) == node &&
				spec.CircCount(b.Seq("H")) == circ
		})
	default:
		return fmt.Errorf("sent message kind %s has no spec counterpart", m.Kind)
	}
}

// implShape projects an implementation message onto the spec shape space.
// LinearSearch windows are a hop countdown the spec does not carry (its
// gimmes expire only on ring completion), so they project to 0.
func (c *Checker) implShape(m protocol.Message) (spec.MsgShape, error) {
	sh := spec.MsgShape{To: c.posOf(m.To), From: c.posOf(m.From), Requester: -1}
	switch m.Kind {
	case protocol.MsgToken:
		sh.Kind = spec.ShapeToken
		sh.Circ = c.circ(m.Round)
	case protocol.MsgTokenReturn:
		sh.Kind = spec.ShapeReturn
		sh.Circ = c.circ(m.Round)
	case protocol.MsgSearch:
		sh.Kind = spec.ShapeSearch
		sh.Circ = c.circ(m.OriginStamp)
		sh.Requester = c.posOf(m.Requester)
		if c.cfg.Variant == protocol.BinarySearch {
			sh.Window = m.Window
		}
	default:
		return sh, fmt.Errorf("message kind %s has no spec shape", m.Kind)
	}
	return sh, nil
}

// takeInflight removes one tracked occurrence of sh.
func (c *Checker) takeInflight(sh spec.MsgShape) error {
	if c.inflight[sh] == 0 {
		return fmt.Errorf("message %s was never sent (or already consumed)", sh)
	}
	c.inflight[sh]--
	if c.inflight[sh] == 0 {
		delete(c.inflight, sh)
	}
	return nil
}

// apply advances the ghost state by the first application of the named rule
// whose binding the filter accepts.
func (c *Checker) apply(rule, desc string, ok func(trs.Binding) bool) error {
	r, found := c.sys.RuleByName(rule)
	if !found {
		return fmt.Errorf("spec system %s has no rule %q", c.sys.Name, rule)
	}
	apps, err := trs.Applications([]trs.Rule{r}, c.state)
	if err != nil {
		return err
	}
	for _, a := range apps {
		if ok == nil || ok(a.Binding) {
			c.state = a.Next
			return nil
		}
	}
	return fmt.Errorf("no application of spec rule %s explains %s (%d candidates)", rule, desc, len(apps))
}

// settle transit-normalizes the ghost state, reconciles its in-flight
// messages against the implementation's, and periodically evaluates the
// spec invariants.
func (c *Checker) settle() error {
	if err := c.normalize(); err != nil {
		return err
	}
	if err := c.reconcile(); err != nil {
		return err
	}
	if c.steps%invariantCadence == 0 {
		return c.checkInvariants()
	}
	return nil
}

// normalize applies rule 2 until the output set is empty: the trace tracks
// messages from send to delivery, so ghost messages live in I.
func (c *Checker) normalize() error {
	r, found := c.sys.RuleByName("2")
	if !found {
		return fmt.Errorf("spec system %s has no transit rule", c.sys.Name)
	}
	for {
		apps, err := trs.Applications([]trs.Rule{r}, c.state)
		if err != nil {
			return err
		}
		if len(apps) == 0 {
			return nil
		}
		c.state = apps[0].Next
	}
}

// reconcile compares the ghost state's in-flight messages against the
// implementation's as multisets of shapes. Ghost-side surplus gimmes are
// searches the implementation expired while the nondeterministic spec keeps
// forwarding; rule L consumes them. Any other difference is a violation.
func (c *Checker) reconcile() error {
	shapes, err := spec.Shapes(c.state)
	if err != nil {
		return err
	}
	ghost := make(map[spec.MsgShape]int, len(shapes))
	for _, sh := range shapes {
		ghost[sh]++
	}
	for sh, n := range ghost {
		for n > c.inflight[sh] {
			if sh.Kind != spec.ShapeSearch {
				return fmt.Errorf("spec has %s in flight but the implementation does not", sh)
			}
			if err := c.applyLoss(sh); err != nil {
				return err
			}
			n--
		}
	}
	for sh, n := range c.inflight {
		if n > ghost[sh] {
			return fmt.Errorf("implementation has %s in flight but the spec does not", sh)
		}
	}
	return nil
}

func (c *Checker) checkInvariants() error {
	for _, inv := range c.invs {
		if err := inv.Check(c.state); err != nil {
			return fmt.Errorf("ghost state violates %s: %w", inv.Name, err)
		}
	}
	return nil
}
