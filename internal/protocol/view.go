package protocol

import "adaptivetoken/internal/bitset"

// Dynamic membership (§5): a node may carry a live view — an epoch-stamped
// subset of the ring positions that are currently members. With no view
// applied (zero-length live set) every routing decision delegates to the
// full-ring math, byte-for-byte identical to the churn-free protocol; once
// a view arrives, token passes, searches and recovery probes route over the
// live members only, walking the same ring order with the dead positions
// spliced out.

// ViewUpdate is one membership view change delivered to a node by its host.
type ViewUpdate struct {
	// Epoch is the view's epoch (membership.View.Epoch); stale updates
	// are ignored.
	Epoch uint64
	// Members are the live ring positions, ascending.
	Members []int
	// SyncStamp is the state-transfer circulation stamp handed to a
	// joining node so its ⊂_C comparisons start from the cluster's
	// present, not from zero. Zero means no transfer.
	SyncStamp uint64
	// SyncEpoch is the state-transfer token epoch for a joining node.
	SyncEpoch uint64
}

// ApplyView installs a membership view.
func (n *Node) ApplyView(now Time, u ViewUpdate) Effects {
	var e Effects
	n.ApplyViewInto(now, u, &e)
	return e
}

// ApplyViewInto is ApplyView appending into a caller-owned Effects.
func (n *Node) ApplyViewInto(now Time, u ViewUpdate, e *Effects) {
	c := n.coldState()
	if c.live.Len() != 0 && u.Epoch <= c.viewEpoch {
		return // stale or duplicate view
	}
	if c.live.Len() == 0 {
		c.live = bitset.New(n.cfg.N)
	} else {
		c.live.ClearAll()
	}
	for _, m := range u.Members {
		if m >= 0 && m < n.cfg.N {
			c.live.Set(m)
		}
	}
	c.viewEpoch = u.Epoch
	if u.SyncStamp > n.lastSeen {
		n.lastSeen = u.SyncStamp
	}
	n.adoptEpoch(u.SyncEpoch)

	// Departed members can never use a grant or accept a return: drop
	// their traps and forget a return address pointing at them.
	n.sweepTraps(func(tr trapEntry) bool { return n.member(int(tr.requester)) })
	if n.returnTo != None && !n.member(int(n.returnTo)) {
		n.returnTo = None
	}

	// A probe round in flight counted nodes that may just have left (or
	// missed ones that joined): abort it and re-arm the suspicion timer
	// so the decision is taken over the new view.
	if c.recovery.active {
		c.recovery = recoveryState{}
		if n.pending && !n.hasToken {
			n.armRecovery(e)
		}
	}
	_ = now
}

// ViewEpoch returns the epoch of the node's current membership view (0
// until a view is applied).
func (n *Node) ViewEpoch() uint64 {
	if n.cold == nil {
		return 0
	}
	return n.cold.viewEpoch
}

// view returns the live set of the membership view in force, or nil while
// the node routes over the full ring (no view applied yet).
func (n *Node) view() *bitset.Set {
	if c := n.cold; c != nil && c.live.Len() != 0 {
		return &c.live
	}
	return nil
}

// succ is ring.Ring.Succ over this node's ring — the k-th successor of id,
// k of either sign — without a ring.Ring (a copy of cfg.N) in every node.
func (n *Node) succ(id, k int) int {
	m := id + k
	if uint(m) < uint(n.cfg.N) {
		return m // no wrap, no division: all but one hop of a rotation
	}
	m %= n.cfg.N
	if m < 0 {
		m += n.cfg.N
	}
	return m
}

// member reports whether a ring position is in the live view (every
// position is, before any view is applied). Out-of-range positions read as
// non-members under a view (bitset.Get is range-checked).
func (n *Node) member(id int) bool {
	v := n.view()
	return v == nil || v.Get(id)
}

// liveCount returns the number of live members (N before any view).
func (n *Node) liveCount() int {
	if v := n.view(); v != nil {
		return v.Count()
	}
	return n.cfg.N
}

// nextLive returns the first live successor of id (id itself if the view
// has collapsed to one member).
func (n *Node) nextLive(id int) int {
	v := n.view()
	if v == nil {
		return n.succ(id, 1)
	}
	for k := 1; k <= n.cfg.N; k++ {
		c := n.succ(id, k)
		if v.Get(c) {
			return c
		}
	}
	return id
}

// succLive returns the k-th live successor of id (negative k walks
// predecessors), the live-ring analogue of ring.Succ.
func (n *Node) succLive(id, k int) int {
	v := n.view()
	if v == nil {
		return n.succ(id, k)
	}
	if !v.Any() {
		return id
	}
	step := 1
	if k < 0 {
		step, k = -1, -k
	}
	cur := id
	for hopped := 0; hopped < k; hopped++ {
		for j := 1; j <= n.cfg.N; j++ {
			c := n.succ(cur, step*j)
			if v.Get(c) {
				cur = c
				break
			}
		}
	}
	return cur
}

// halfLive is ring.HalfWindow over the live member count.
func (n *Node) halfLive() int { return (n.liveCount() + 1) / 2 }

// acrossLive is ring.Across over the live ring: the live member halfway
// around from id.
func (n *Node) acrossLive(id int) int { return n.succLive(id, n.halfLive()) }

// liveMin returns the lowest-numbered live member — the deterministic
// regeneration coordinator of the current view.
func (n *Node) liveMin() int {
	v := n.view()
	if v == nil {
		return 0
	}
	if i := v.Next(0); i >= 0 {
		return i
	}
	return n.ID()
}
