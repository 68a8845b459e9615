// Package protocol implements the executable token-passing protocols of the
// paper as transport-agnostic state machines:
//
//   - RingToken — the regular circulating-token baseline (System
//     Message-Passing with rule 3′),
//   - LinearSearch — System Search with the Lemma 5 ring restriction:
//     gimme messages crawl one hop at a time,
//   - BinarySearch — System BinarySearch, the paper's contribution: the
//     token rotates while gimme messages binary-search for it, halving the
//     ring at every hop and choosing direction with the ⊂_C comparison,
//   - DirectedSearch — the §4.4 variant where probe replies return to the
//     requester, which steers the search itself,
//   - PushProbe — the §4.2 dual: requesters stay silent and the token
//     holder probes for demand.
//
// The §4.4 refinements are options: trap garbage collection (token-rotation
// aging or inverse-token cleanup), the one-outstanding-request throttle
// (always on), re-search timeouts (tolerating lost "cheap" messages), and
// adaptive token speed (idle hold times that back off exponentially).
//
// A Node consumes inputs (messages, timers, local requests/releases) and
// returns Effects (messages to send, timers to arm, a grant indication).
// Hosts — the discrete-event driver in internal/driver and the live
// goroutine runtime in internal/node — interpret the effects. Nodes are not
// safe for concurrent use; hosts serialize access.
//
// Instead of carrying full histories on the wire, messages carry the
// round-counter compaction the paper proposes in §4.4: the token bears a
// monotone round stamp incremented at every rotation hop (a circulation
// event), each node remembers the stamp of its last token sighting, and the
// ⊂_C prefix comparison of rule 6 becomes a comparison of stamps.
package protocol

import (
	"fmt"
)

// Time is a point in protocol time. Hosts decide the unit: simulated time
// units in the discrete-event driver, nanoseconds in the live runtime.
type Time int64

// None marks "no node" in fields holding an optional node ID.
const None = -1

// Variant selects the protocol.
type Variant int

// Protocol variants.
const (
	// RingToken is the regular rotating-token baseline.
	RingToken Variant = iota + 1
	// LinearSearch adds one-hop-at-a-time token search (System Search).
	LinearSearch
	// BinarySearch is the paper's adaptive hybrid (System BinarySearch).
	BinarySearch
	// DirectedSearch is the §4.4 requester-steered variant.
	DirectedSearch
	// PushProbe is the push dual: the holder looks for requesters.
	PushProbe
	// Combined runs both directions at once (§4.2: "it is possible to
	// combine both schemes"): requesters binary-search for the token
	// while an idle holder probes for demand.
	Combined
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case RingToken:
		return "ring"
	case LinearSearch:
		return "linear"
	case BinarySearch:
		return "binsearch"
	case DirectedSearch:
		return "directed"
	case PushProbe:
		return "push"
	case Combined:
		return "combined"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// GCMode selects trap garbage collection (§4.4).
type GCMode int

// Trap GC modes.
const (
	// GCNone leaves stale traps in place; they cause bounced decorated
	// deliveries when the token trips over them.
	GCNone GCMode = iota
	// GCRotation ages traps out using the round counter the token
	// carries ("token-rotation clean up").
	GCRotation
	// GCInverse routes the found token back along the search trail,
	// removing traps en route ("inverse token clean up").
	GCInverse
)

// String returns the mode name.
func (m GCMode) String() string {
	switch m {
	case GCNone:
		return "none"
	case GCRotation:
		return "rotation"
	case GCInverse:
		return "inverse"
	default:
		return fmt.Sprintf("gc(%d)", int(m))
	}
}

// MsgKind classifies protocol messages.
type MsgKind int

// Message kinds. Token and TokenReturn are the "expensive"
// correctness-bearing messages; the rest are "cheap" hints that may be
// dropped without violating safety.
const (
	// MsgToken is the circulating token.
	MsgToken MsgKind = iota + 1
	// MsgTokenReturn is the decorated token ŷ: delivered to a trapped
	// requester, to be used once and returned.
	MsgTokenReturn
	// MsgSearch is a "gimme" search message.
	MsgSearch
	// MsgProbe asks a node whether it holds the token (directed search).
	MsgProbe
	// MsgProbeReply answers a probe with the target's circulation view.
	MsgProbeReply
	// MsgWantQuery asks a node whether it wants the token (push mode).
	MsgWantQuery
	// MsgWantReply answers a want query.
	MsgWantReply
)

// String returns the kind name, used as the metrics key.
func (k MsgKind) String() string {
	switch k {
	case MsgToken:
		return "token"
	case MsgTokenReturn:
		return "token-return"
	case MsgSearch:
		return "search"
	case MsgProbe:
		return "probe"
	case MsgProbeReply:
		return "probe-reply"
	case MsgWantQuery:
		return "want-query"
	case MsgWantReply:
		return "want-reply"
	case MsgRecoveryProbe:
		return "recovery-probe"
	case MsgRecoveryReply:
		return "recovery-reply"
	case MsgElect:
		return "elect"
	default:
		return fmt.Sprintf("msg(%d)", int(k))
	}
}

// Expensive reports whether the message kind is correctness-bearing. Cheap
// messages may be lost without violating safety (the paper's two
// communication modes).
func (k MsgKind) Expensive() bool {
	return k == MsgToken || k == MsgTokenReturn
}

// Message is a protocol message. One flat struct covers every kind; unused
// fields are zero.
type Message struct {
	Kind MsgKind
	// From and To are ring positions.
	From, To int

	// Round is the token's circulation round stamp (token kinds), or the
	// responder's last-seen stamp (probe replies).
	Round uint64
	// ReturnTo is the interceptor a decorated token must come back to.
	ReturnTo int
	// Requester identifies the node a search/probe/delivery concerns.
	Requester int
	// ReqSeq is the requester's request sequence number, deduplicating
	// re-issued searches.
	ReqSeq uint64
	// Window is the remaining binary-search window n.
	Window int
	// OriginStamp is the requester's last-seen stamp at request time
	// (the compacted H_z of rule 6).
	OriginStamp uint64
	// HasToken answers a probe.
	HasToken bool
	// Want answers a want query.
	Want bool
	// Hops counts forwards for diagnostics.
	Hops int
	// Epoch is the token generation number; recovery regenerates the
	// token under a higher epoch and older tokens are discarded.
	Epoch uint64
	// Attach is an opaque application attachment riding on the token
	// (the paper's "the token can carry enough information"); the
	// total-order broadcast service stores its sequence counter here.
	Attach string
	// Served is the rotation-GC satisfaction record riding on the token
	// ("information about the satisfaction of a search request", §4.4):
	// Served[j] is the highest ReqSeq granted to node j, 0 for none. It
	// lets nodes drop (and holders skip) traps whose requester was already
	// served. It has one owner: once the message is handed on, only the
	// receiver may read or write it (served.go).
	Served []uint64
}

// TimerKind classifies timers a node may arm.
type TimerKind int

// Timer kinds.
const (
	// TimerHold fires when the idle hold of the token expires; the node
	// passes the token onward if still idle.
	TimerHold TimerKind = iota + 1
	// TimerResearch fires to re-issue a search for a still-pending
	// request (lost-message tolerance).
	TimerResearch
	// TimerPushRound fires to conclude a push-probe round: with no
	// demand found, the holder passes the token on.
	TimerPushRound
)

// String returns the timer kind name.
func (k TimerKind) String() string {
	switch k {
	case TimerHold:
		return "hold"
	case TimerResearch:
		return "research"
	case TimerPushRound:
		return "push-round"
	case TimerRecovery:
		return "recovery"
	case TimerRecoveryDecide:
		return "recovery-decide"
	default:
		return fmt.Sprintf("timer(%d)", int(k))
	}
}

// Timer is a request to call Node.HandleTimer after Delay. Gen invalidates
// stale timers: the node ignores firings whose Gen no longer matches its
// state.
//
// Invariant: the generations a node arms for one Kind never decrease. Each
// Gen is read from a per-kind counter that only grows (holdGen, pushGen,
// reqSeq — the recovery kinds carry reqSeq too), and HandleTimer compares
// a firing against that counter's current value. So once a timer of
// generation G is armed, a firing of the same kind with Gen < G is a no-op,
// and a host may cancel such a timer instead of delivering it
// (host.WallClock does). Equal generations are not stale: a re-armed
// research or recovery timer repeats its generation.
type Timer struct {
	Delay Time
	Kind  TimerKind
	Gen   uint64
}

// Effects is what a state-machine step asks its host to do.
type Effects struct {
	// Msgs to send, in order.
	Msgs []Message
	// Granted reports that the token is now held for the local
	// application (the critical section / broadcast right). The host
	// must eventually call Release.
	Granted bool
	// Timers to arm.
	Timers []Timer
}

// Reset truncates the effects for reuse, keeping the slice capacity. Hosts
// reset one scratch Effects per step so steady-state steps allocate nothing.
func (e *Effects) Reset() {
	e.Msgs = e.Msgs[:0]
	e.Granted = false
	e.Timers = e.Timers[:0]
}

// add appends a zero message to Msgs and returns its address: the one way a
// message enters Msgs. The caller writes the fields where the message will
// lie, so no 136-byte literal travels through an argument and an append. The
// pointer is good until the next add, which may move the backing array.
func (e *Effects) add() *Message {
	e.Msgs = append(e.Msgs, Message{})
	return &e.Msgs[len(e.Msgs)-1]
}

func (e *Effects) arm(delay Time, kind TimerKind, gen uint64) {
	e.Timers = append(e.Timers, Timer{Delay: delay, Kind: kind, Gen: gen})
}

// Config parameterizes a Node.
type Config struct {
	// Variant selects the protocol. Required.
	Variant Variant
	// N is the ring size. Required.
	N int

	// HoldIdle is the fixed idle hold before passing the token when no
	// demand is visible (the token "speed"). Zero passes immediately.
	HoldIdle Time
	// AdaptiveSpeed makes the idle hold back off exponentially from
	// MinHold to MaxHold while demand is absent and snap back to MinHold
	// on any sign of demand (§4.4 "the speed of token passing around the
	// cycle can be varied according to the demand").
	AdaptiveSpeed bool
	// MinHold and MaxHold bound the adaptive hold.
	MinHold, MaxHold Time

	// TrapGC selects trap garbage collection.
	TrapGC GCMode
	// TrapTTLRounds is the age, in circulation rounds, after which
	// GCRotation drops a trap. Zero defaults to 2·N rounds.
	TrapTTLRounds int

	// ResearchTimeout re-issues the search for a pending request after
	// this delay, tolerating lost cheap messages. Zero disables.
	ResearchTimeout Time
	// RecoveryTimeout suspects token loss when a pending request has
	// waited this long, triggering the probe-and-regenerate recovery of
	// §5. Zero disables.
	RecoveryTimeout Time
	// BuggyElection reverts regeneration to the pre-election behavior:
	// every requester that decides the token is lost mints a replacement
	// locally, so two concurrent deciders mint two same-epoch tokens.
	// Exists only so the torture harness can plant the bug and prove the
	// per-epoch safety check catches it.
	BuggyElection bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Variant {
	case RingToken, LinearSearch, BinarySearch, DirectedSearch, PushProbe, Combined:
	default:
		return fmt.Errorf("protocol: unknown variant %d", int(c.Variant))
	}
	if c.N < 1 {
		return fmt.Errorf("protocol: ring size %d", c.N)
	}
	if c.HoldIdle < 0 || c.MinHold < 0 || c.MaxHold < 0 || c.ResearchTimeout < 0 || c.RecoveryTimeout < 0 {
		return fmt.Errorf("protocol: negative duration in config")
	}
	if c.AdaptiveSpeed && c.MaxHold < c.MinHold {
		return fmt.Errorf("protocol: MaxHold %d < MinHold %d", c.MaxHold, c.MinHold)
	}
	if c.TrapTTLRounds < 0 {
		return fmt.Errorf("protocol: negative bound in config")
	}
	return nil
}
