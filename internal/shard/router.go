// Package shard is the keyspace-sharded layer over the single-ring
// protocol: a consistent-hash router maps keys to shards, each shard runs
// its own BinarySearch ring (one circulating token per shard) on the
// existing host interpreter, and cross-shard operations are coordinated
// through the total-order broadcast service on the live path.
//
// One circulating token is a hard throughput ceiling; K shards mean K
// independent tokens. The router follows the precompute-per-topology
// pattern: the key→shard table is regenerated when the shard view changes
// and the hot Route path is a single masked table load — it never hashes
// over the membership, let alone searches it.
package shard

import (
	"fmt"
	"sort"
)

// DefaultSlots is the router table size: 2^10 slots keeps the per-shard
// load imbalance under a few percent for any realistic shard count while
// the table stays well inside one page.
const DefaultSlots = 1 << 10

// Router maps keyspace keys to shards by rendezvous (highest-random-weight)
// hashing over the live shard set, flattened into a power-of-two lookup
// table. Route is O(1); the table is rebuilt only by SetView. Not safe for
// concurrent mutation; concurrent Route calls against a settled view are
// fine.
type Router struct {
	shards int   // configured shard count (ids 0..shards-1)
	live   []int // current live shard ids, sorted
	table  []int32
	mask   uint64
}

// NewRouter builds a router over shards shards, all live, with
// DefaultSlots table slots.
func NewRouter(shards int) (*Router, error) {
	return NewRouterSlots(shards, DefaultSlots)
}

// NewRouterSlots builds a router with an explicit table size (a power of
// two, at least the shard count).
func NewRouterSlots(shards, slots int) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: %d shards", shards)
	}
	if slots < shards || slots&(slots-1) != 0 {
		return nil, fmt.Errorf("shard: table size %d must be a power of two >= %d shards", slots, shards)
	}
	r := &Router{
		shards: shards,
		table:  make([]int32, slots),
		mask:   uint64(slots - 1),
	}
	all := make([]int, shards)
	for i := range all {
		all[i] = i
	}
	if err := r.SetView(all); err != nil {
		return nil, err
	}
	return r, nil
}

// Route returns the live shard owning key.
func (r *Router) Route(key uint64) int {
	return int(r.table[mix64(key)&r.mask])
}

// SetView replaces the live shard set and regenerates the lookup table.
// Keys owned by surviving shards do not move (the rendezvous minimal-
// disruption property); keys of departed shards scatter over the
// survivors.
func (r *Router) SetView(live []int) error {
	if len(live) == 0 {
		return fmt.Errorf("shard: empty view")
	}
	seen := make(map[int]bool, len(live))
	view := make([]int, 0, len(live))
	for _, s := range live {
		if s < 0 || s >= r.shards {
			return fmt.Errorf("shard: view member %d outside 0..%d", s, r.shards-1)
		}
		if !seen[s] {
			seen[s] = true
			view = append(view, s)
		}
	}
	sort.Ints(view)
	r.live = view
	for slot := range r.table {
		r.table[slot] = int32(owner(slot, view))
	}
	return nil
}

// owner is the brute-force rendezvous rule one table slot is assigned by:
// the live shard with the highest slot-keyed weight wins. The fuzz tests
// check the precomputed table against this directly.
func owner(slot int, live []int) int {
	best, bestW := live[0], weight(slot, live[0])
	for _, s := range live[1:] {
		if w := weight(slot, s); w > bestW || (w == bestW && s < best) {
			best, bestW = s, w
		}
	}
	return best
}

// weight is the rendezvous score of (slot, shard).
func weight(slot, shard int) uint64 {
	return mix64(uint64(slot)*0x9e3779b97f4a7c15 ^ uint64(shard)*0xc2b2ae3d27d4eb4f)
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Live returns a copy of the current live shard set, sorted.
func (r *Router) Live() []int { return append([]int(nil), r.live...) }

// Slots returns the lookup-table size.
func (r *Router) Slots() int { return len(r.table) }
