package protocol

import (
	"fmt"
	"math"

	"adaptivetoken/internal/bitset"
)

// Node is one participant's protocol state machine. It is deterministic and
// transport-agnostic: inputs arrive via HandleMessage, HandleTimer, Request
// and Release; outputs are returned as Effects. Not safe for concurrent
// use — hosts serialize.
//
// A ring of 10⁶ nodes is 10⁶ of these in one slab, and a search touches
// O(log N) of them cold, so the struct holds only what a message or timer of
// a fault-free run reads or writes; DESIGN.md §13 ("Memory layout") has the
// field table and TestNodeLayout the bound.
type Node struct {
	// The fields are ordered by who touches them, because on a big ring
	// every visit is to a node that is cold in cache: a search hop reads and
	// writes the first 88 bytes (through trapAt), a token hop the rest as
	// well, and what only the node's own request uses comes last.

	// cfg is shared, never copied per node: a driver building a 10⁶-node
	// ring hands every node the same pointer (see Init). Nodes never
	// write it.
	cfg *Config
	// cold is everything no per-hop path of a shipped configuration
	// writes; nil until the first such write (see nodeCold).
	cold *nodeCold

	// Ring positions are int32, as in trapEntry. returnTo is the
	// decorated-token return address, or None.
	id       int32
	returnTo int32
	trapHead int32

	hasToken  bool
	inCS      bool // granted to the local application
	pending   bool // a local request is outstanding
	sawDemand bool // adaptive speed: a search passed since the last hold
	// bootstrapped guards GiveToken: a node injects a token at most
	// once, so a repeated bootstrap cannot duplicate it.
	bootstrapped bool

	// Token sightings: the stamp of the last one, and the circulation
	// round while holding.
	lastSeen uint64
	round    uint64

	// Trap table, FIFO: the live entries are traps[trapHead:], oldest
	// first. Pops advance the head cursor instead of shifting. trapAt
	// indexes live entries by requester (absolute slice index); it is nil,
	// and lookups scan the live window, until the table first outgrows
	// trapScanMax (see addTrap and DESIGN.md §10, "The trap table").
	traps  []trapEntry
	trapAt *trapIndex

	// served is the rotation-GC satisfaction record riding on the token:
	// served[j] is the highest request of node j granted. The holder owns
	// it; nil while the token is elsewhere (see served.go).
	served []uint64

	// epoch is the token epoch of §5 failure handling.
	epoch uint64

	// agedSeen is the lastSeen value ageTraps last swept at: no trap can
	// expire until the token round advances, so sweeps in between are
	// skipped.
	agedSeen uint64

	// Timer generations. pushGen moves on every pass, and holdCur on every
	// idle hop under AdaptiveSpeed, which is why neither is cold.
	holdGen uint64
	pushGen uint64
	holdCur Time

	// reqSeq numbers the local requests; curGrantSeq is the one being
	// served while in CS.
	reqSeq      uint64
	curGrantSeq uint64
}

// nodeCold is the part of a node's state that only recovery rounds,
// membership views, application attachments and the directed-search cursor
// write. The rule for a field to live here: no token hop and no search hop
// through a node writes it in any shipped configuration — recovery and views
// are fault handling, an attachment is written by the application at the
// holder, the cursor moves at the requester itself
// (TestRotationGCGrantAllocBudget holds a 20,000-node BinarySearch ring to
// that, TestColdStateAllocatedOnFirstRealWrite a single node). Reads go
// through the nil-safe accessors view, probing, Attachment and ViewEpoch; a
// write goes through coldState, which allocates, so a write that would leave
// the zero value in place is skipped instead (setAttach).
type nodeCold struct {
	// Failure handling (§5): the probe round in progress.
	recovery recoveryState

	// Membership view (§5 churn): a zero-length live set means the full
	// ring (the churn-free fast path); otherwise bit i marks position i
	// as a member of the view stamped viewEpoch.
	live      bitset.Set
	viewEpoch uint64

	// attach is the application payload riding on the token; valid while
	// holding.
	attach string

	// Directed search cursor.
	probeWindow int
	probePos    int
}

// coldState returns the node's cold state for writing, allocating it on
// first use.
func (n *Node) coldState() *nodeCold {
	if n.cold == nil {
		n.cold = new(nodeCold)
	}
	return n.cold
}

// trapEntry is a stored token trap τ_requester. Ring positions are int32
// (a ring outgrows int32 long after it outgrows memory): at 24 bytes per
// entry instead of 32, the ~2×10⁷ traps a fig9big LinearSearch point keeps
// live shed a quarter of what was the largest allocation in the heap
// profile.
type trapEntry struct {
	reqSeq    uint64
	bornRound uint64 // freshest circulation round known when set (aging GC)
	requester int32
	from      int32 // previous hop of the search trail (inverse GC)
}

// trapIndex maps a requester id to its absolute index in Node.traps, for
// tables too long to scan. Rings up to denseTrapIndex nodes get a dense
// array — lookups are then pure indexing — while larger rings fall back to
// a map so per-node memory stays proportional to the traps stored; only a
// saturated LinearSearch table on such a ring ever builds the map, a
// BinarySearch request leaves one or two traps per node it touches. The
// map is int32-keyed and int32-valued: halving the entry payload roughly
// halves the bucket memory. A nil *trapIndex is the index of a table that
// is still scanned: set and del do nothing.
type trapIndex struct {
	dense  []int32 // requester -> index+1; 0 = absent
	sparse map[int32]int32
}

// denseTrapIndex is the largest ring size indexed with a dense array
// (16 KiB per indexed node).
const denseTrapIndex = 4096

// newTrapIndex indexes the live window traps[head:] of a table on a ring of
// n nodes.
func newTrapIndex(n int, traps []trapEntry, head int) *trapIndex {
	x := new(trapIndex)
	if n <= denseTrapIndex {
		x.dense = make([]int32, n)
	} else {
		x.sparse = make(map[int32]int32, len(traps)-head)
	}
	x.renumber(traps, head)
	return x
}

func (x *trapIndex) get(requester int) (int, bool) {
	if x.dense != nil {
		if requester < 0 || requester >= len(x.dense) {
			return 0, false
		}
		v := x.dense[requester]
		return int(v) - 1, v != 0
	}
	i, ok := x.sparse[int32(requester)]
	return int(i), ok
}

func (x *trapIndex) set(requester, i int) {
	switch {
	case x == nil:
	case x.dense != nil:
		x.dense[requester] = int32(i) + 1
	default:
		x.sparse[int32(requester)] = int32(i)
	}
}

// renumber records where traps[from:] now lie, after entries moved.
func (x *trapIndex) renumber(traps []trapEntry, from int) {
	if x == nil {
		return
	}
	for i := from; i < len(traps); i++ {
		x.set(int(traps[i].requester), i)
	}
}

func (x *trapIndex) del(requester int) {
	switch {
	case x == nil:
	case x.dense != nil:
		if requester >= 0 && requester < len(x.dense) {
			x.dense[requester] = 0
		}
	default:
		delete(x.sparse, int32(requester))
	}
}

// New returns a node with the given ring position, owning a private copy
// of cfg. Hosts building whole rings should allocate the nodes in one slab
// and Init them against a single shared Config instead.
func New(id int, cfg Config) (*Node, error) {
	n := new(Node)
	if err := n.Init(id, &cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Init initializes n in place as ring position id. cfg is retained, not
// copied — every node of a ring can (and in the driver does) share one
// Config, so a 10⁶-node ring carries one copy instead of 10⁶. The Config
// must not change after the first Init against it; nodes never write it.
func (n *Node) Init(id int, cfg *Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if id < 0 || id >= cfg.N {
		return fmt.Errorf("protocol: node id %d outside ring of %d", id, cfg.N)
	}
	if cfg.N > math.MaxInt32 {
		return fmt.Errorf("protocol: ring size %d beyond int32 positions", cfg.N)
	}
	*n = Node{
		cfg:      cfg,
		id:       int32(id),
		returnTo: None,
	}
	return nil
}

// ID returns the node's ring position.
func (n *Node) ID() int { return int(n.id) }

// HasToken reports whether the node currently holds the token (including
// while granted to the application).
func (n *Node) HasToken() bool { return n.hasToken }

// InCS reports whether the token is granted to the local application.
func (n *Node) InCS() bool { return n.inCS }

// Pending reports whether a local request is outstanding.
func (n *Node) Pending() bool { return n.pending }

// Round returns the token's circulation round as known to this node.
func (n *Node) Round() uint64 { return n.round }

// LastSeen returns the circulation stamp of this node's last token
// sighting — the compacted local history of §4.4.
func (n *Node) LastSeen() uint64 { return n.lastSeen }

// TrapCount returns the number of stored traps.
func (n *Node) TrapCount() int { return len(n.traps) - int(n.trapHead) }

// Epoch returns the token epoch as known to this node.
func (n *Node) Epoch() uint64 { return n.epoch }

// DecoratedHold reports whether the node holds a decorated token it must
// return to an interceptor after use (rule 8 pending).
func (n *Node) DecoratedHold() bool { return n.returnTo != None }

// RecoveryActive reports whether a token-loss probe round is in flight.
func (n *Node) RecoveryActive() bool { return n.probing() != nil }

// TrapRequesters appends the requester ids of the stored traps, FIFO.
func (n *Node) TrapRequesters(dst []int) []int {
	for _, tr := range n.traps[n.trapHead:] {
		dst = append(dst, int(tr.requester))
	}
	return dst
}

// Stats is a diagnostic snapshot of a node's protocol state.
type Stats struct {
	ID       int
	Variant  string
	HasToken bool
	InCS     bool
	Pending  bool
	Round    uint64
	LastSeen uint64
	Epoch    uint64
	Traps    int
	// Served counts the requesters the held record shows served.
	Served int
	// TrapIndexed reports that the trap table has outgrown a scan and
	// carries its requester index; Cold that the node has allocated its
	// cold state (a view, a recovery round, an attachment or a directed
	// search has written it). A fault-free BinarySearch ring keeps both
	// false at every node.
	TrapIndexed bool
	Cold        bool
}

// Stats returns a diagnostic snapshot.
func (n *Node) Stats() Stats {
	return Stats{
		ID:       n.ID(),
		Variant:  n.cfg.Variant.String(),
		HasToken: n.hasToken,
		InCS:     n.inCS,
		Pending:  n.pending,
		Round:    n.round,
		LastSeen: n.lastSeen,
		Epoch:    n.epoch,
		Traps:    n.TrapCount(),
		Served:   servedCount(n.served),

		TrapIndexed: n.trapAt != nil,
		Cold:        n.cold != nil,
	}
}

// String renders the snapshot compactly.
func (s Stats) String() string {
	state := "idle"
	switch {
	case s.InCS:
		state = "in-CS"
	case s.HasToken:
		state = "holding"
	case s.Pending:
		state = "waiting"
	}
	return fmt.Sprintf("node %d [%s] %s round=%d seen=%d epoch=%d traps=%d",
		s.ID, s.Variant, state, s.Round, s.LastSeen, s.Epoch, s.Traps)
}

// Attachment returns the token's application attachment; meaningful only
// while the node holds the token.
func (n *Node) Attachment() string {
	if n.cold == nil {
		return ""
	}
	return n.cold.attach
}

// SetAttachment replaces the token's application attachment. It fails
// unless the node currently holds the token.
func (n *Node) SetAttachment(s string) error {
	if !n.hasToken {
		return fmt.Errorf("protocol: node %d does not hold the token", n.id)
	}
	n.setAttach(s)
	return nil
}

// setAttach stores the token's attachment. Every token arrival comes through
// here, on most rings with the empty attachment of a token no application
// has written to: a node without cold state already reads as holding that,
// and must not allocate the cold state to store it.
func (n *Node) setAttach(s string) {
	if s == "" && n.cold == nil {
		return
	}
	n.coldState().attach = s
}

// GiveToken bootstraps this node as the initial token holder.
func (n *Node) GiveToken(now Time) Effects {
	var e Effects
	n.GiveTokenInto(now, &e)
	return e
}

// GiveTokenInto is GiveToken appending into a caller-owned Effects.
func (n *Node) GiveTokenInto(now Time, e *Effects) {
	if n.bootstrapped || n.hasToken {
		return
	}
	n.bootstrapped = true
	n.hasToken = true
	n.returnTo = None
	n.mintServed()
	n.afterTokenAcquired(now, e)
}

// Request records that the local application wants the token. The host must
// call Release after a grant.
func (n *Node) Request(now Time) Effects {
	var e Effects
	n.RequestInto(now, &e)
	return e
}

// RequestInto is Request appending into a caller-owned Effects — the form a
// live runtime drives with its host's scratch buffer.
func (n *Node) RequestInto(now Time, e *Effects) {
	if n.inCS || n.pending {
		return // already granted or already waiting
	}
	if n.hasToken {
		// The holder's own request is satisfied on the spot.
		n.reqSeq++
		n.curGrantSeq = n.reqSeq
		n.inCS = true
		e.Granted = true
		n.holdGen++ // cancel any idle hold
		n.pushGen++
		return
	}
	n.pending = true
	n.reqSeq++
	n.issueSearch(now, e)
	n.armRecovery(e)
}

// Release hands the token back after a grant. With a decorated token it
// returns to the interceptor; otherwise rotation continues here.
func (n *Node) Release(now Time) Effects {
	var e Effects
	n.ReleaseInto(now, &e)
	return e
}

// ReleaseInto is Release appending into a caller-owned Effects.
func (n *Node) ReleaseInto(now Time, e *Effects) {
	if !n.inCS {
		return
	}
	n.inCS = false
	n.recordServed(n.ID(), n.curGrantSeq)
	if n.returnTo != None {
		// Rule 8: return the used token to its interceptor.
		dst := int(n.returnTo)
		n.returnTo = None
		n.hasToken = false
		n.sendToken(e, MsgToken, dst)
		return
	}
	n.afterTokenIdle(now, e)
}

// HandleMessage processes an incoming message. Malformed messages —
// off-ring node references — are dropped so a faulty or malicious peer
// cannot steer traffic off the ring.
func (n *Node) HandleMessage(now Time, m Message) Effects {
	var e Effects
	n.HandleMessageInto(now, m, &e)
	return e
}

// HandleMessageInto is HandleMessage appending into a caller-owned Effects —
// the allocation-free form hosts drive with a reset-and-reused scratch
// buffer. The by-value msg is the last copy the message takes: every handler
// reads it through a pointer, and none retains that pointer or hands it to
// anything but another handler, so msg stays on this frame.
func (n *Node) HandleMessageInto(now Time, msg Message, e *Effects) {
	m := &msg
	if !n.validMessage(m) {
		return
	}
	switch m.Kind {
	case MsgToken:
		n.handleToken(now, m, e)
	case MsgTokenReturn:
		n.handleTokenReturn(now, m, e)
	case MsgSearch:
		n.handleSearch(now, m, e)
	case MsgProbe:
		n.handleProbe(now, m, e)
	case MsgProbeReply:
		n.handleProbeReply(now, m, e)
	case MsgWantQuery:
		n.handleWantQuery(now, m, e)
	case MsgWantReply:
		n.handleWantReply(now, m, e)
	case MsgRecoveryProbe:
		n.handleRecoveryProbe(now, m, e)
	case MsgRecoveryReply:
		n.handleRecoveryReply(now, m, e)
	case MsgElect:
		n.handleElect(now, m, e)
	}
}

// validMessage checks that every node reference in a message is on the
// ring (ReturnTo may also be None), and that no record has more entries than
// the ring has nodes.
func (n *Node) validMessage(m *Message) bool {
	onRing := func(x int) bool { return x >= 0 && x < n.cfg.N }
	if !onRing(m.From) || !onRing(m.To) || len(m.Served) > n.cfg.N {
		return false
	}
	switch m.Kind {
	case MsgTokenReturn:
		// A decorated token always names its requester and the
		// interceptor it must come back to.
		return onRing(m.Requester) && onRing(m.ReturnTo)
	case MsgSearch, MsgProbe, MsgProbeReply, MsgWantReply, MsgElect:
		return onRing(m.Requester)
	default:
		return true
	}
}

// HandleTimer processes a previously armed timer.
func (n *Node) HandleTimer(now Time, kind TimerKind, gen uint64) Effects {
	var e Effects
	n.HandleTimerInto(now, kind, gen, &e)
	return e
}

// HandleTimerInto is HandleTimer appending into a caller-owned Effects —
// the allocation-free form hosts drive with a reset-and-reused scratch
// buffer.
func (n *Node) HandleTimerInto(now Time, kind TimerKind, gen uint64, e *Effects) {
	switch kind {
	case TimerHold:
		if gen != n.holdGen || !n.hasToken || n.inCS {
			return
		}
		if n.deliverNext(now, e) {
			return
		}
		n.passToken(now, e)
	case TimerResearch:
		if !n.pending || gen != n.reqSeq {
			return
		}
		n.issueSearch(now, e)
	case TimerPushRound:
		if gen != n.pushGen || !n.hasToken || n.inCS {
			return
		}
		if n.deliverNext(now, e) {
			return
		}
		n.passToken(now, e)
	case TimerRecovery:
		n.handleRecoveryTimer(now, gen, e)
	case TimerRecoveryDecide:
		n.handleRecoveryDecide(now, gen, e)
	}
}

// handleToken receives the regular circulating token (rule 3), or a
// decorated token coming home after use.
func (n *Node) handleToken(now Time, m *Message, e *Effects) {
	if n.staleToken(m) {
		return // a regenerated token superseded this one
	}
	n.hasToken = true
	n.returnTo = None
	n.round = m.Round
	n.setAttach(m.Attach)
	if m.Round > n.lastSeen {
		n.lastSeen = m.Round
	}
	n.adoptServed(m.Served)
	n.ageTraps()
	n.afterTokenAcquired(now, e)
}

// afterTokenAcquired dispatches a freshly acquired token: local grant
// first, then trapped requesters, then idle rotation.
func (n *Node) afterTokenAcquired(now Time, e *Effects) {
	if n.pending {
		n.pending = false
		n.curGrantSeq = n.reqSeq
		n.inCS = true
		e.Granted = true
		return
	}
	n.afterTokenIdle(now, e)
}

// afterTokenIdle serves traps or schedules the onward pass.
func (n *Node) afterTokenIdle(now Time, e *Effects) {
	if n.deliverNext(now, e) {
		return
	}
	if n.cfg.Variant == PushProbe || n.cfg.Variant == Combined {
		n.startPushRound(now, e)
		return
	}
	hold := n.nextHold()
	if hold <= 0 {
		n.passToken(now, e)
		return
	}
	n.holdGen++
	e.arm(hold, TimerHold, n.holdGen)
}

// nextHold computes the idle hold before the next pass, applying the
// adaptive-speed backoff when configured.
func (n *Node) nextHold() Time {
	if !n.cfg.AdaptiveSpeed {
		return n.cfg.HoldIdle
	}
	if n.sawDemand {
		n.holdCur = n.cfg.MinHold
	} else {
		next := n.holdCur * 2
		if next <= n.holdCur {
			next = n.holdCur + 1
		}
		if next > n.cfg.MaxHold {
			next = n.cfg.MaxHold
		}
		if next < n.cfg.MinHold {
			next = n.cfg.MinHold
		}
		n.holdCur = next
	}
	n.sawDemand = false
	return n.holdCur
}

// passToken sends the token to the ring successor (rule 4). The hop is a
// circulation event: the round counter increments.
func (n *Node) passToken(_ Time, e *Effects) {
	n.round++
	n.lastSeen = n.round
	n.hasToken = false
	n.holdGen++
	n.pushGen++
	n.sendToken(e, MsgToken, n.nextLive(n.ID()))
}

// send starts a message of the given kind from this node to dst, in place in
// e.Msgs, and returns it for the caller to fill in the rest.
func (n *Node) send(e *Effects, kind MsgKind, dst int) *Message {
	m := e.add()
	m.Kind = kind
	m.From = n.ID()
	m.To = dst
	return m
}

// sendToken builds a token-bearing message from this node to dst in place,
// stamped with the node's round, epoch, attachment and satisfaction record,
// and returns it for the caller to decorate.
func (n *Node) sendToken(e *Effects, kind MsgKind, dst int) *Message {
	m := n.send(e, kind, dst)
	m.Round = n.round
	m.Epoch = n.epoch
	m.Attach = n.Attachment()
	m.Served = n.takeServed()
	return m
}

// deliverNext pops the oldest live trap and sends the decorated token to
// its requester (rule 7). It reports whether a delivery happened.
func (n *Node) deliverNext(_ Time, e *Effects) bool {
	tr, ok := n.popTrap()
	if !ok {
		return false
	}
	n.hasToken = false
	n.holdGen++
	n.pushGen++
	to := int(tr.requester)
	if n.cfg.TrapGC == GCInverse && tr.from != tr.requester && tr.from != n.id && tr.from != None && n.member(int(tr.from)) {
		// Inverse clean-up: trace the search trail backwards,
		// removing traps en route (skipped if the trail hop departed).
		to = int(tr.from)
	}
	m := n.sendToken(e, MsgTokenReturn, to)
	m.ReturnTo = n.ID()
	m.Requester = int(tr.requester)
	m.ReqSeq = tr.reqSeq
	return true
}

// handleTokenReturn receives a decorated token: either the final delivery
// to the requester (rule 8) or an inverse-GC hop through the search trail.
func (n *Node) handleTokenReturn(now Time, m *Message, e *Effects) {
	if n.staleToken(m) {
		return
	}
	if m.Round > n.lastSeen {
		n.lastSeen = m.Round
	}
	if m.Requester != n.ID() {
		// Inverse-GC routing hop: drop the local trap for this
		// requester and forward along the trail.
		next := m.Requester
		if tr, ok := n.removeTrap(m.Requester); ok {
			if int(tr.from) != m.Requester && tr.from != n.id && tr.from != None {
				next = int(tr.from)
			}
		}
		if !n.member(next) {
			next = m.Requester // the trail hop departed: skip straight ahead
		}
		if !n.member(next) {
			// The requester itself departed: the grant is moot. Send the
			// token home, or adopt it if the interceptor is gone too.
			if n.member(m.ReturnTo) {
				n.sendHome(m, e)
			} else {
				n.adoptOrphanToken(now, m, e)
			}
			return
		}
		fwd := e.add()
		*fwd = *m
		fwd.From = n.ID()
		fwd.To = next
		fwd.Hops = m.Hops + 1
		return
	}
	// Delivery for me.
	n.round = m.Round
	if n.pending {
		n.pending = false
		n.curGrantSeq = n.reqSeq
		n.inCS = true
		n.hasToken = true
		n.setAttach(m.Attach)
		n.adoptServed(m.Served)
		n.returnTo = int32(m.ReturnTo)
		if !n.member(m.ReturnTo) {
			// The interceptor left while its grant was in flight: nobody
			// is owed the return, so keep the token after use.
			n.returnTo = None
		}
		e.Granted = true
		return
	}
	// Stale trap: use the token vacuously and return it (rule 8 with
	// φ data).
	if !n.member(m.ReturnTo) {
		n.adoptOrphanToken(now, m, e)
		return
	}
	n.sendHome(m, e)
}

// sendHome returns the decorated token m, unused, to its interceptor as a
// plain token bearing m's own stamps.
func (n *Node) sendHome(m *Message, e *Effects) {
	t := n.send(e, MsgToken, m.ReturnTo)
	t.Round = m.Round
	t.Epoch = m.Epoch
	t.Attach = m.Attach
	t.Served = m.Served
}

// adoptOrphanToken takes custody of a decorated token whose onward
// addressee departed the view while the message was in flight: a departed
// member can neither use a grant nor accept a return, so the token rejoins
// the rotation here instead of being posted into a black hole and lost.
func (n *Node) adoptOrphanToken(now Time, m *Message, e *Effects) {
	n.hasToken = true
	n.returnTo = None
	n.round = m.Round
	n.setAttach(m.Attach)
	n.adoptServed(m.Served)
	n.afterTokenIdle(now, e)
}

// trapScanMax is the live-trap count up to which a table is searched by
// scanning traps[trapHead:]; the first table to hold more gets a requester
// index, built once from the live window and kept from then on.
// BenchmarkAddTrap times one addTrap on nodes that are cold in cache, as a
// search finds them: a scan costs ~50 ns at one live trap and ~10 ns more per
// entry (85-110 ns at 8, 100-130 at 9, ~0.7 µs at 64, ~2.4 µs at 512), a
// lookup in the 4·N-byte dense index 80-160 ns and in the map 125-250 ns
// whatever the table holds, so the sides cross near 10 traps on a small ring
// and near 15 on a huge one, and 8 sits below both. What the figure leaves
// out favours the scan further: an index-less node allocates nothing but the
// table, where an index is 4·N bytes or a map — half of what a sim-big grant
// allocated when every trap-bearing node had one.
const trapScanMax = 8

// findTrap returns the absolute index in n.traps of requester's live trap.
func (n *Node) findTrap(requester int) (int, bool) {
	if n.trapAt != nil {
		return n.trapAt.get(requester)
	}
	for i := int(n.trapHead); i < len(n.traps); i++ {
		if int(n.traps[i].requester) == requester {
			return i, true
		}
	}
	return 0, false
}

// addTrap stores τ_requester, deduplicating by requester. It reports whether
// the trap is stored (or already present): always, except for the node's own
// request.
// The append that takes the table past trapScanMax — the crossover measured
// there — builds its index.
func (n *Node) addTrap(requester int, reqSeq uint64, from int, stamp uint64) bool {
	if requester == n.ID() {
		return false
	}
	if i, ok := n.findTrap(requester); ok {
		if reqSeq > n.traps[i].reqSeq {
			n.traps[i].reqSeq = reqSeq
			n.traps[i].from = int32(from)
			n.traps[i].bornRound = n.freshRound(stamp)
		}
		return true
	}
	n.trapAt.set(requester, len(n.traps))
	n.traps = append(n.traps, trapEntry{
		requester: int32(requester),
		reqSeq:    reqSeq,
		from:      int32(from),
		bornRound: n.freshRound(stamp),
	})
	if n.trapAt == nil && n.TrapCount() > trapScanMax {
		n.trapAt = newTrapIndex(n.cfg.N, n.traps, int(n.trapHead))
	}
	return true
}

// freshRound returns the freshest circulation round known locally, folding
// in a stamp carried by a message.
func (n *Node) freshRound(stamp uint64) uint64 {
	if stamp > n.lastSeen {
		return stamp
	}
	return n.lastSeen
}

// popTrap removes and returns the oldest live trap, skipping (and
// discarding) traps whose request the satisfaction record shows complete.
func (n *Node) popTrap() (trapEntry, bool) {
	n.ageTraps()
	n.compactTraps()
	for int(n.trapHead) < len(n.traps) {
		tr := n.traps[n.trapHead]
		n.trapAt.del(int(tr.requester))
		n.trapHead++
		if int(n.trapHead) == len(n.traps) {
			n.traps = n.traps[:0]
			n.trapHead = 0
		}
		if n.servedIn(tr) {
			continue
		}
		return tr, true
	}
	return trapEntry{}, false
}

// compactTraps reclaims the popped prefix once it dominates the slice, so
// the head cursor cannot strand unbounded capacity behind it.
func (n *Node) compactTraps() {
	if n.trapHead < 32 || int(n.trapHead) < n.TrapCount() {
		return
	}
	live := copy(n.traps, n.traps[n.trapHead:])
	n.traps = n.traps[:live]
	n.trapHead = 0
	n.trapAt.renumber(n.traps, 0)
}

// removeTrap removes the trap for requester, if present.
func (n *Node) removeTrap(requester int) (trapEntry, bool) {
	i, ok := n.findTrap(requester)
	if !ok {
		return trapEntry{}, false
	}
	tr := n.traps[i]
	n.trapAt.del(requester)
	copy(n.traps[i:], n.traps[i+1:])
	n.traps = n.traps[:len(n.traps)-1]
	n.trapAt.renumber(n.traps, i)
	return tr, true
}

// ageTraps drops traps older than the TTL under rotation GC. Expiry depends
// only on lastSeen, which new and refreshed traps are always younger than,
// so the sweep runs at most once per circulation-stamp advance.
func (n *Node) ageTraps() {
	if n.cfg.TrapGC != GCRotation || n.agedSeen == n.lastSeen {
		return
	}
	n.agedSeen = n.lastSeen
	ttl := uint64(n.cfg.TrapTTLRounds)
	if ttl == 0 {
		ttl = uint64(2 * n.cfg.N)
	}
	expired := false
	for _, tr := range n.traps[n.trapHead:] {
		if n.lastSeen >= tr.bornRound+ttl {
			expired = true
			break
		}
	}
	if !expired {
		return
	}
	n.sweepTraps(func(tr trapEntry) bool {
		return n.lastSeen < tr.bornRound+ttl
	})
}

// sweepTraps compacts the live trap range down to the entries keep accepts,
// preserving FIFO order, and rebuilds the requester index.
func (n *Node) sweepTraps(keep func(trapEntry) bool) {
	live := n.traps[:0]
	for _, tr := range n.traps[n.trapHead:] {
		if keep(tr) {
			live = append(live, tr)
		} else {
			n.trapAt.del(int(tr.requester))
		}
	}
	n.traps = live
	n.trapHead = 0
	n.trapAt.renumber(n.traps, 0)
}
