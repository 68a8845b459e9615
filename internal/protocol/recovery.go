package protocol

// Token-loss recovery (the paper's §5 failure sketch): "If a node x with
// the token fails, then nothing will happen until some other node y needs
// the token, at which point it will quickly discover that the token holder
// has failed (provided a time-out based detection is available) ... they
// can generate a new token."
//
// Operationally: a requester whose grant does not arrive within
// RecoveryTimeout probes the other nodes. Replies report whether anyone
// holds the token and the freshest circulation stamp seen. If nobody claims
// possession within the decision window, the requester regenerates the
// token under a higher epoch; tokens of older epochs are discarded on
// sight. As in the paper, safety of regeneration relies on the timeout
// being a faithful failure detector. A live-but-slow node breaks it: a
// stale token that reaches a node already holding the regenerated one is
// dropped, but a fresh token that reaches a node still holding the stale
// one makes adoptEpoch relabel the held token as current, and two tokens
// of one epoch then circulate (driver TestFalseSuspicionSameEpochMint;
// DESIGN.md §11).

// Recovery message kinds and timer, extending the core sets in protocol.go.
const (
	// MsgRecoveryProbe asks a node whether the token is alive.
	MsgRecoveryProbe MsgKind = iota + 100
	// MsgRecoveryReply answers a recovery probe.
	MsgRecoveryReply
	// MsgElect asks the view's coordinator (lowest live member) to mint
	// the replacement token, carrying the requester's evidence (max
	// stamp in Round, max epoch in Epoch).
	MsgElect
)

// Recovery timers.
const (
	// TimerRecovery fires when a pending request has waited long enough
	// to suspect the token is lost.
	TimerRecovery TimerKind = iota + 100
	// TimerRecoveryDecide closes a probe round and decides whether to
	// regenerate.
	TimerRecoveryDecide
)

// recoveryState tracks one probe round.
type recoveryState struct {
	active      bool
	gen         uint64
	replies     int
	holderSeen  bool
	maxStamp    uint64
	maxEpoch    uint64
	probeSeenAt Time
}

// probing returns the probe round in flight, or nil.
func (n *Node) probing() *recoveryState {
	if c := n.cold; c != nil && c.recovery.active {
		return &c.recovery
	}
	return nil
}

// armRecovery arms the token-loss timer for the current request, when
// enabled.
func (n *Node) armRecovery(e *Effects) {
	if n.cfg.RecoveryTimeout <= 0 {
		return
	}
	e.arm(n.cfg.RecoveryTimeout, TimerRecovery, n.reqSeq)
}

// handleRecoveryTimer starts a probe round if the request is still unserved.
func (n *Node) handleRecoveryTimer(now Time, gen uint64, e *Effects) {
	if !n.pending || gen != n.reqSeq || n.hasToken {
		return
	}
	n.coldState().recovery = recoveryState{active: true, gen: gen, maxStamp: n.lastSeen, maxEpoch: n.epoch}
	for i := 0; i < n.cfg.N; i++ {
		if i == n.ID() || !n.member(i) {
			continue
		}
		m := n.send(e, MsgRecoveryProbe, i)
		m.Round = n.lastSeen
		m.Epoch = n.epoch
	}
	window := n.cfg.RecoveryTimeout / 2
	if window < 2 {
		window = 2
	}
	e.arm(window, TimerRecoveryDecide, gen)
	_ = now
}

// handleRecoveryProbe answers with this node's view of the token.
func (n *Node) handleRecoveryProbe(_ Time, m *Message, e *Effects) {
	n.adoptEpoch(m.Epoch)
	reply := n.send(e, MsgRecoveryReply, m.From)
	reply.Round = n.lastSeen
	reply.Epoch = n.epoch
	reply.HasToken = n.hasToken
}

// handleRecoveryReply accumulates probe answers.
func (n *Node) handleRecoveryReply(_ Time, m *Message, _ *Effects) {
	n.adoptEpoch(m.Epoch)
	r := n.probing()
	if r == nil {
		return
	}
	r.replies++
	if m.HasToken {
		r.holderSeen = true
	}
	if m.Round > r.maxStamp {
		r.maxStamp = m.Round
	}
	if m.Epoch > r.maxEpoch {
		r.maxEpoch = m.Epoch
	}
}

// handleRecoveryDecide closes the probe round: regenerate the token unless
// some reply claimed it (or it arrived here meanwhile).
func (n *Node) handleRecoveryDecide(now Time, gen uint64, e *Effects) {
	r := n.probing()
	if r == nil || r.gen != gen {
		return
	}
	st := *r
	*r = recoveryState{}
	if !n.pending || n.hasToken {
		return
	}
	if st.holderSeen {
		// The token is alive somewhere; keep waiting and re-arm the
		// suspicion timer.
		n.armRecovery(e)
		return
	}
	coord := n.liveMin()
	if n.cfg.BuggyElection || coord == n.ID() {
		// BuggyElection is the planted pre-election race: every decider
		// mints locally, so two concurrent deciders mint two same-epoch
		// tokens. The fixed protocol funnels every mint through the
		// view's single deterministic coordinator.
		n.regenerate(now, st.maxEpoch, st.maxStamp, e)
		return
	}
	// Epoch-scoped election: hand the evidence to the coordinator, which
	// mints exactly once per failure (handleElect discards duplicates by
	// epoch). Re-arm suspicion in case the coordinator itself is gone —
	// the next probe round runs over the repaired view.
	m := n.send(e, MsgElect, coord)
	m.Requester = n.ID()
	m.Round = st.maxStamp
	m.Epoch = st.maxEpoch
	n.armRecovery(e)
}

// handleElect mints the replacement token at the view coordinator. A mint
// bumps the epoch past the election's evidence, so every duplicate elect
// from the same failure (or from a decider that raced a live token) is
// discarded as stale.
func (n *Node) handleElect(now Time, m *Message, e *Effects) {
	if n.hasToken || m.Epoch < n.epoch {
		return
	}
	n.regenerate(now, m.Epoch, m.Round, e)
}

// regenerate mints a fresh token under a higher epoch, with a round beyond
// anything any reachable node has seen, so stamp comparisons stay monotone.
func (n *Node) regenerate(now Time, maxEpoch, maxStamp uint64, e *Effects) {
	if maxEpoch < n.epoch {
		maxEpoch = n.epoch
	}
	if maxStamp < n.lastSeen {
		maxStamp = n.lastSeen
	}
	n.epoch = maxEpoch + 1
	n.round = maxStamp + 1
	n.lastSeen = n.round
	n.hasToken = true
	n.returnTo = None
	n.afterTokenAcquired(now, e)
}

// adoptEpoch raises this node's epoch to the freshest seen, so stale-token
// detection is monotone across the ring.
func (n *Node) adoptEpoch(epoch uint64) {
	if epoch > n.epoch {
		n.epoch = epoch
	}
}

// staleToken reports (and absorbs) a token message from an obsolete epoch:
// a regenerated token has superseded it, so it must be discarded on sight.
func (n *Node) staleToken(m *Message) bool {
	if m.Epoch < n.epoch {
		return true
	}
	n.adoptEpoch(m.Epoch)
	return false
}
