package protocol

// Search-side behavior: gimme initiation and forwarding (rules 5 and 6 of
// System Search / System BinarySearch), the directed-search variant, and
// the push dual.

// issueSearch starts (or re-issues) the hunt for the token according to the
// variant. Called from Request and from the re-search timer.
func (n *Node) issueSearch(_ Time, e *Effects) {
	switch n.cfg.Variant {
	case RingToken, PushProbe:
		// No searches: rotation (or the holder's probes) finds us.
	case LinearSearch:
		// System Search under the Lemma 5 restriction: the gimme
		// crawls the ring one hop at a time; it expires after a full
		// circle (of the live view).
		n.sendSearch(e, MsgSearch, n.nextLive(n.ID()), n.liveCount()-1)
	case BinarySearch, Combined:
		// Rule 5: gimme to the node directly across the (live) ring,
		// carrying the requester's circulation view.
		n.sendSearch(e, MsgSearch, n.acrossLive(n.ID()), n.halfLive())
	case DirectedSearch:
		// Probe the node across the ring; replies steer us.
		c := n.coldState()
		c.probeWindow = n.halfLive()
		c.probePos = n.acrossLive(n.ID())
		n.sendSearch(e, MsgProbe, c.probePos, 0)
	}
	if n.cfg.ResearchTimeout > 0 && n.cfg.Variant != RingToken {
		e.arm(n.cfg.ResearchTimeout, TimerResearch, n.reqSeq)
	}
}

// sendSearch builds, in place, a gimme or probe for this node's current
// request, carrying its circulation view.
func (n *Node) sendSearch(e *Effects, kind MsgKind, to, window int) {
	m := n.send(e, kind, to)
	m.Window = window
	m.OriginStamp = n.lastSeen
	m.Requester = n.ID()
	m.ReqSeq = n.reqSeq
}

// handleSearch processes a gimme message (rules 6 and 7).
func (n *Node) handleSearch(now Time, m *Message, e *Effects) {
	n.sawDemand = true
	n.addTrap(m.Requester, m.ReqSeq, m.From, m.OriginStamp)
	if n.hasToken {
		if !n.inCS {
			// Rule 7 fires immediately: the oldest trap gets the
			// decorated token (FIFO keeps Theorem 2's bound).
			n.deliverNext(now, e)
		}
		return
	}
	n.forwardSearch(m, e)
}

// forwardSearch continues the hunt from a non-holder: the onward gimme is
// m copied once into the effects and retargeted there.
func (n *Node) forwardSearch(m *Message, e *Effects) {
	switch n.cfg.Variant {
	case LinearSearch:
		if m.Window <= 1 {
			return // full circle: expire
		}
		next := n.nextLive(n.ID())
		if next == m.Requester {
			return
		}
		fwd := e.add()
		*fwd = *m
		fwd.From = n.ID()
		fwd.To = next
		fwd.Window = m.Window - 1
		fwd.Hops = m.Hops + 1
	case BinarySearch, Combined:
		if m.Window < 2 {
			return // window exhausted: the trap alone remains
		}
		hop := m.Window / 2
		dest := n.succLive(n.ID(), hop)
		if n.lastSeen < m.OriginStamp {
			// My circulation view is a strict ⊂_C prefix of the
			// requester's: the token passed the requester after
			// me — chase it the other way (rule 6's x^{-n/2}).
			dest = n.succLive(n.ID(), -hop)
		}
		fwd := e.add()
		*fwd = *m
		fwd.From = n.ID()
		fwd.To = dest
		fwd.Window = hop
		fwd.Hops = m.Hops + 1
	default:
		// Ring/push have no searches; directed probes never forward.
	}
}

// handleProbe answers a directed-search probe. The probed node also sets a
// trap so the rotating token still catches the request.
func (n *Node) handleProbe(now Time, m *Message, e *Effects) {
	n.sawDemand = true
	n.addTrap(m.Requester, m.ReqSeq, m.From, m.OriginStamp)
	reply := n.send(e, MsgProbeReply, m.Requester)
	reply.Requester = m.Requester
	reply.ReqSeq = m.ReqSeq
	if n.hasToken {
		reply.HasToken = true
		if !n.inCS {
			n.deliverNext(now, e)
		}
		return
	}
	reply.Round = n.lastSeen
}

// handleProbeReply steers the requester's next probe (directed search: the
// §4.4 variant that doubles messages but lets the requester stop early).
func (n *Node) handleProbeReply(_ Time, m *Message, e *Effects) {
	if !n.pending || m.ReqSeq != n.reqSeq || m.HasToken {
		return // served, stale, or the token is on its way
	}
	c := n.cold
	if c == nil || c.probeWindow < 2 {
		return // probing exhausted; rely on the traps we planted
	}
	hop := c.probeWindow / 2
	dest := n.succLive(c.probePos, hop)
	if m.Round < n.lastSeen {
		dest = n.succLive(c.probePos, -hop)
	}
	c.probeWindow = hop
	c.probePos = dest
	n.sendSearch(e, MsgProbe, dest, 0)
}

// pushWait is how long a PushProbe holder waits for want replies before
// passing the token on.
const pushWait Time = 2

// startPushRound has an idle holder probe for demand (the push dual of
// §4.2): want-queries fan out to the binary cascade of ring positions, and
// a timer concludes the round.
func (n *Node) startPushRound(_ Time, e *Effects) {
	n.pushGen++
	seen := map[int]bool{n.ID(): true}
	for w := n.halfLive(); w >= 1; w /= 2 {
		dst := n.succLive(n.ID(), w)
		if seen[dst] {
			continue
		}
		seen[dst] = true
		n.send(e, MsgWantQuery, dst).Requester = n.ID()
	}
	e.arm(pushWait, TimerPushRound, n.pushGen)
}

// handleWantQuery answers a push probe.
func (n *Node) handleWantQuery(_ Time, m *Message, e *Effects) {
	reply := n.send(e, MsgWantReply, m.From)
	reply.Requester = n.ID()
	reply.ReqSeq = n.reqSeq
	reply.Want = n.pending
}

// handleWantReply traps a willing node and, if the token is still here and
// idle, delivers at once.
func (n *Node) handleWantReply(now Time, m *Message, e *Effects) {
	if !m.Want {
		return
	}
	n.sawDemand = true
	n.addTrap(m.Requester, m.ReqSeq, m.From, 0)
	if n.hasToken && !n.inCS {
		n.deliverNext(now, e)
	}
}
