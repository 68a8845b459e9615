package protocol

import (
	"math"
	"sync/atomic"
)

// Rotation-GC satisfaction records (§4.4): the token carries the recently
// granted (requester, reqSeq) pairs; any node the token visits drops traps
// whose request was already served, and the holder skips such traps
// entirely instead of bouncing a decorated token off a satisfied node.

// servedCap returns the configured bound on the satisfaction record.
func (n *Node) servedCap() int {
	if n.cfg.ServedCap > 0 {
		return n.cfg.ServedCap
	}
	c := 2 * n.cfg.N
	if c > 512 {
		c = 512
	}
	return c
}

// The record rides the token (the hand-off protocol). A record — n.served,
// every Message.Served — is a window over a backing array shared by everyone
// who has seen it, and the bytes inside a window never change once anyone
// else can read them: observers, duplicated deliveries and messages parked
// at paused nodes all read stable bytes, and an idle rotation hop moves the
// record with zero allocation.
//
// A backing built here keeps its tip in its last slot: Requester is the
// servedTip mark, ReqSeq counts the data slots still unwritten. Slicing
// never shortens a window's capacity, so every window reaches the tip
// through s[:cap(s)] and can tell whether it ends exactly where the written
// part of the backing does. Only such a window may append in place, and it
// claims the slot by compare-and-swap on the count: of two holders of the
// same window (a duplicated token, a regenerated one beside the token it
// superseded — on the live runtime they run on different goroutines) exactly
// one gets the slot, and the other copies. The slot lies beyond every
// window handed out so far, so nobody observes the write. Trimming advances
// the window's start. A record that did not come from here (off the wire, a
// dedup copy) has no tip and is treated as full.

// servedTip marks the tip slot of a record backing; no requester id is
// negative.
const servedTip = math.MinInt

// servedFree returns the unwritten-slot counter of the backing s is a window
// over, and how many such slots lie beyond s; s ends at the backing's tip
// exactly when the counter holds that number. free is nil when s has no
// backing built by newServedBacking.
func servedFree(s []ServedRec) (free *uint64, beyond uint64) {
	if cap(s) == len(s) {
		return nil, 0
	}
	tip := &s[:cap(s)][cap(s)-1]
	if tip.Requester != servedTip {
		return nil, 0
	}
	return &tip.ReqSeq, uint64(cap(s) - len(s) - 1)
}

// newServedBacking starts a backing holding live followed by rec, with room
// for that many appends in place before the next copy.
func newServedBacking(live []ServedRec, rec ServedRec, room int) []ServedRec {
	b := make([]ServedRec, len(live)+1+room+1)
	k := copy(b, live)
	b[k] = rec
	b[len(b)-1] = ServedRec{Requester: servedTip, ReqSeq: uint64(room)}
	return b[:k+1]
}

// recordServed appends a satisfied request to the token's record,
// deduplicating by requester (the freshest sequence wins, in its old
// position) and trimming the oldest entries beyond the cap. Only meaningful
// under rotation GC.
//
// A fresh requester is written in place when the record ends at its
// backing's tip. Otherwise the live window moves to a new backing, and how
// much room that gets follows what the window says about the traffic: a
// window with a tip was itself made by a fresh append, so fresh requesters
// are coming in runs and the room doubles with the window up to the cap —
// at full cap one copy per servedCap appends; a window without one (a dedup
// copy, a record off the wire) gets none, so a ring small enough that every
// node is already recorded never pays for room it will not use.
// Updating a requester already recorded changes bytes inside the window and
// always copies, to an exact-length record without a tip.
func (n *Node) recordServed(requester int, reqSeq uint64) {
	if n.cfg.TrapGC != GCRotation {
		return
	}
	s := n.served
	for i := range s {
		if s[i].Requester == requester {
			if reqSeq > s[i].ReqSeq {
				c := make([]ServedRec, len(s))
				copy(c, s)
				c[i].ReqSeq = reqSeq
				n.served = c
			}
			return
		}
	}
	rec := ServedRec{Requester: requester, ReqSeq: reqSeq}
	limit := n.servedCap()
	free, beyond := servedFree(s)
	if free != nil && beyond > 0 && atomic.CompareAndSwapUint64(free, beyond, beyond-1) {
		s = s[:len(s)+1]
		s[len(s)-1] = rec
		if len(s) > limit {
			s = s[len(s)-limit:]
		}
		n.served = s
		return
	}
	if len(s) >= limit {
		s = s[len(s)-limit+1:]
	}
	room := 0
	if free != nil {
		room = min(len(s)+1, limit-1)
	}
	n.served = newServedBacking(s, rec, room)
}

// servedSweepByTrap is the live-trap count up to which adoptServed scans the
// record once per trap instead of probing the trap index once per record; a
// table that has no index yet (at most trapScanMax traps so far) is always
// swept by trap.
// BenchmarkAdoptServed times both sides: a scan of a 512-entry record is
// ~0.26 µs a trap, 512 probes ~0.8 µs of a dense index and 2-4 µs of a map,
// so the sides cross between 3 and 4 traps on small rings and near 12 on
// huge ones; most trap-bearing hops of a BinarySearch ring find one
// or two traps, so one threshold serves both.
const servedSweepByTrap = 4

// adoptServed takes over the token's satisfaction record — aliasing the
// message's buffer, clamped to the newest servedCap entries — and sweeps
// satisfied traps from whichever side is shorter. A node with no live trap
// pays nothing.
func (n *Node) adoptServed(recs []ServedRec) {
	if n.cfg.TrapGC != GCRotation {
		return
	}
	if limit := n.servedCap(); len(recs) > limit {
		recs = recs[len(recs)-limit:]
	}
	n.served = recs
	live := n.TrapCount()
	if live == 0 {
		return
	}
	var dropped bool
	if live <= servedSweepByTrap || n.trapAt == nil {
		dropped = n.markServedByTrap(recs)
	} else {
		dropped = n.markServedByRec(recs)
	}
	if dropped {
		n.sweepTraps(func(tr trapEntry) bool { return tr.requester != trapServed })
	}
}

// markServedByTrap marks the live traps recs shows complete, scanning the
// record sequentially once per trap: traps × recs compares, the cheaper side
// for a handful of traps. It reports whether it marked any.
func (n *Node) markServedByTrap(recs []ServedRec) (dropped bool) {
	live := n.traps[n.trapHead:]
	for i := range live {
		if tr := live[i]; servedIn(recs, tr) {
			n.trapAt.del(int(tr.requester))
			live[i].requester = trapServed
			dropped = true
		}
	}
	return dropped
}

// markServedByRec marks the same traps from the other side: each rec looks
// its requester up in the trap index, which the caller has checked exists:
// one probe per record however many traps are stored (a map access above
// denseTrapIndex nodes, a likely cache miss in a 16 KiB array below).
func (n *Node) markServedByRec(recs []ServedRec) (dropped bool) {
	for _, rec := range recs {
		if i, ok := n.trapAt.get(rec.Requester); ok && rec.ReqSeq >= n.traps[i].reqSeq {
			n.traps[i].requester = trapServed
			n.trapAt.del(rec.Requester)
			dropped = true
		}
	}
	return dropped
}

// trapServed marks a trap entry dropped by the adoptServed sweep; it never
// collides with a requester id (>= 0) or None.
const trapServed = -2

// servedIn reports whether recs shows the trap's request complete.
func servedIn(recs []ServedRec, tr trapEntry) bool {
	for _, rec := range recs {
		if rec.Requester == int(tr.requester) && rec.ReqSeq >= tr.reqSeq {
			return true
		}
	}
	return false
}

// servedSnapshot returns the record to stamp on an outgoing token message.
// The returned slice aliases the node's window; nothing written later lands
// inside it, so the wire never sees a record change after send.
func (n *Node) servedSnapshot() []ServedRec {
	if n.cfg.TrapGC != GCRotation || len(n.served) == 0 {
		return nil
	}
	return n.served
}
