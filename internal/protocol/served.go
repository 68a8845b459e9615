package protocol

// Rotation-GC satisfaction record (§4.4): the token carries, for every
// requester j, served[j], the highest request sequence granted to j (0 for
// none) — the LN array of Suzuki–Kasami's token. Any node the token visits
// drops the traps whose request it shows complete, and the holder skips such
// traps instead of bouncing a decorated token off a satisfied node.
//
// The vector has one owner at a time: the node holding the token, or the
// message carrying it. sendToken moves it into the message and clears the
// node's field; a token arrival moves it out of the message. So the holder
// writes in place and nobody else can see the write. A host that delivers one
// message twice clones the vector for the second copy (host.Dispatch), and a
// minted token — bootstrap or regeneration — gets a fresh zero vector.

// mintServed gives a token minted here its record: a zero vector under
// rotation GC, none otherwise.
func (n *Node) mintServed() {
	n.served = nil
	if n.cfg.TrapGC == GCRotation {
		n.served = make([]uint64, n.cfg.N)
	}
}

// recordServed marks requester's request reqSeq granted. A token that came
// without a full vector — an empty record off the wire — gets one here.
func (n *Node) recordServed(requester int, reqSeq uint64) {
	if n.cfg.TrapGC != GCRotation {
		return
	}
	if len(n.served) != n.cfg.N {
		v := make([]uint64, n.cfg.N)
		copy(v, n.served)
		n.served = v
	}
	n.served[requester] = max(n.served[requester], reqSeq)
}

// servedIn reports whether the record shows the trap's request complete.
func (n *Node) servedIn(tr trapEntry) bool {
	r := int(tr.requester)
	return r < len(n.served) && n.served[r] >= tr.reqSeq
}

// adoptServed takes over the record an arriving token carries and drops the
// live traps it shows complete. A node with no live trap pays nothing.
func (n *Node) adoptServed(v []uint64) {
	if n.cfg.TrapGC != GCRotation {
		return
	}
	n.served = v
	for _, tr := range n.traps[n.trapHead:] {
		if n.servedIn(tr) {
			n.sweepTraps(func(tr trapEntry) bool { return !n.servedIn(tr) })
			return
		}
	}
}

// takeServed hands the record over to an outgoing token message.
func (n *Node) takeServed() []uint64 {
	v := n.served
	n.served = nil
	return v
}

// servedCount returns how many requesters v shows served.
func servedCount(v []uint64) int {
	k := 0
	for _, seq := range v {
		if seq != 0 {
			k++
		}
	}
	return k
}
