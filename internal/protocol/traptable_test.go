package protocol

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// refTraps is the trap table as its meaning: a FIFO slice that is scanned for
// everything and shifted on every removal, with no head cursor, no index and
// no skipped aging sweep. Node's table — scanned up to trapScanMax live
// entries, indexed beyond — has to agree with it entry for entry.
type refTraps struct {
	id       int
	gc       GCMode
	ttl      uint64
	lastSeen uint64
	served   []uint64
	member   []bool // the membership view; nil is the full ring
	traps    []trapEntry
}

func (r *refTraps) fresh(stamp uint64) uint64 { return max(stamp, r.lastSeen) }

func (r *refTraps) find(requester int) int {
	return slices.IndexFunc(r.traps, func(tr trapEntry) bool { return int(tr.requester) == requester })
}

func (r *refTraps) add(requester int, reqSeq uint64, from int, stamp uint64) bool {
	if requester == r.id {
		return false
	}
	if i := r.find(requester); i >= 0 {
		if reqSeq > r.traps[i].reqSeq {
			r.traps[i] = trapEntry{requester: int32(requester), reqSeq: reqSeq, from: int32(from), bornRound: r.fresh(stamp)}
		}
		return true
	}
	r.traps = append(r.traps, trapEntry{requester: int32(requester), reqSeq: reqSeq, from: int32(from), bornRound: r.fresh(stamp)})
	return true
}

func (r *refTraps) keep(ok func(trapEntry) bool) {
	r.traps = slices.DeleteFunc(r.traps, func(tr trapEntry) bool { return !ok(tr) })
}

func (r *refTraps) age() {
	if r.gc == GCRotation {
		r.keep(func(tr trapEntry) bool { return r.lastSeen < tr.bornRound+r.ttl })
	}
}

func (r *refTraps) isServed(tr trapEntry) bool {
	return r.gc == GCRotation && int(tr.requester) < len(r.served) && r.served[tr.requester] >= tr.reqSeq
}

func (r *refTraps) pop() (trapEntry, bool) {
	r.age()
	for len(r.traps) > 0 {
		tr := r.traps[0]
		r.traps = r.traps[1:]
		if !r.isServed(tr) {
			return tr, true
		}
	}
	return trapEntry{}, false
}

func (r *refTraps) remove(requester int) (trapEntry, bool) {
	i := r.find(requester)
	if i < 0 {
		return trapEntry{}, false
	}
	tr := r.traps[i]
	r.traps = slices.Delete(r.traps, i, i+1)
	return tr, true
}

func (r *refTraps) adopt(v []uint64) {
	if r.gc != GCRotation {
		return
	}
	r.served = v
	r.keep(func(tr trapEntry) bool { return !r.isServed(tr) })
}

func (r *refTraps) applyView(members []int, n int) {
	r.member = make([]bool, n)
	for _, m := range members {
		r.member[m] = true
	}
	r.keep(func(tr trapEntry) bool { return r.member[tr.requester] })
}

// trapRig is one configuration under test: the model, a node as shipped, and
// a node that is given its index before the first trap — the always-indexed
// table the lazily indexed one replaced.
type trapRig struct {
	name    string
	cfg     Config
	span    int // requesters are drawn from [0, span)·stride
	stride  int
	ref     *refTraps
	lazy    *Node
	indexed *Node
	epoch   uint64
	above   bool // the table has held more than trapScanMax entries
	// popViews turns the script's view changes into pops: nothing then ever
	// sweeps an inverse-GC table, so its head cursor runs far enough ahead
	// for compactTraps to reclaim the popped prefix.
	popViews bool
}

func newTrapRig(t *testing.T, name string, cfg Config, span, stride int) *trapRig {
	const id = 0
	g := &trapRig{name: name, cfg: cfg, span: span, stride: stride}
	g.lazy, g.indexed = newNode(t, id, cfg), newNode(t, id, cfg)
	g.indexed.trapAt = newTrapIndex(cfg.N, nil, 0)
	g.ref = &refTraps{id: id, gc: cfg.TrapGC, ttl: uint64(cfg.TrapTTLRounds)}
	return g
}

func (g *trapRig) requester(a byte) int { return int(a) % g.span * g.stride % g.cfg.N }

// scanIndex is what the index of nd must hold: every live requester's
// absolute position, found by scanning.
func scanIndex(nd *Node, requester int) (int, bool) {
	for i := int(nd.trapHead); i < len(nd.traps); i++ {
		if int(nd.traps[i].requester) == requester {
			return i, true
		}
	}
	return 0, false
}

func (g *trapRig) check(t *testing.T, step int, what string) {
	t.Helper()
	g.above = g.above || len(g.ref.traps) > trapScanMax
	if (g.lazy.trapAt != nil) != g.above {
		t.Fatalf("%s step %d (%s): index built = %v, table has outgrown a scan = %v", g.name, step, what, g.lazy.trapAt != nil, g.above)
	}
	var want []int
	for _, tr := range g.ref.traps {
		want = append(want, int(tr.requester))
	}
	for who, nd := range map[string]*Node{"lazy": g.lazy, "indexed": g.indexed} {
		if got := nd.TrapRequesters(nil); !slices.Equal(got, want) {
			t.Fatalf("%s step %d (%s): %s node requesters %v, model %v", g.name, step, what, who, got, want)
		}
		if nd.TrapCount() != len(g.ref.traps) {
			t.Fatalf("%s step %d (%s): %s node TrapCount %d, model %d", g.name, step, what, who, nd.TrapCount(), len(g.ref.traps))
		}
		if live := nd.traps[nd.trapHead:]; !slices.Equal(live, g.ref.traps) {
			t.Fatalf("%s step %d (%s): %s node entries %v, model %v", g.name, step, what, who, live, g.ref.traps)
		}
		if nd.trapAt == nil {
			continue
		}
		for a := 0; a < g.span; a++ {
			r := g.requester(byte(a))
			gi, gok := nd.trapAt.get(r)
			wi, wok := scanIndex(nd, r)
			if gok != wok || (gok && gi != wi) {
				t.Fatalf("%s step %d (%s): %s node index has requester %d at %d/%v, a scan finds it at %d/%v", g.name, step, what, who, r, gi, gok, wi, wok)
			}
		}
		if nd.trapAt.sparse != nil && len(nd.trapAt.sparse) != nd.TrapCount() {
			t.Fatalf("%s step %d (%s): %s node index holds %d requesters for %d live traps", g.name, step, what, who, len(nd.trapAt.sparse), nd.TrapCount())
		}
	}
}

func (g *trapRig) add(t *testing.T, step, requester int, reqSeq uint64, from int, stamp uint64) {
	t.Helper()
	want := g.ref.add(requester, reqSeq, from, stamp)
	for _, nd := range []*Node{g.lazy, g.indexed} {
		if got := nd.addTrap(requester, reqSeq, from, stamp); got != want {
			t.Fatalf("%s step %d: addTrap(%d, %d) = %v, model %v", g.name, step, requester, reqSeq, got, want)
		}
	}
}

// trapScript interprets script as (op, a, b) triples against every rig:
// addTrap (fresh, dedup with a higher or a stale sequence, with and without a
// stamp ahead of the node's), a burst of fresh traps, popTrap, removeTrap,
// adoptServed, a token sighting that ages the table, and a membership view
// that sweeps it. Requesters come from a span three times trapScanMax, so a
// table crosses the threshold in both directions many times a script.
func trapScript(t *testing.T, script []byte) {
	const span = 3 * trapScanMax
	rigs := []*trapRig{
		newTrapRig(t, "dense/rotation", Config{Variant: BinarySearch, N: 64, TrapGC: GCRotation, TrapTTLRounds: 9}, span, 1),
		newTrapRig(t, "sparse/rotation", Config{Variant: LinearSearch, N: denseTrapIndex + 1, TrapGC: GCRotation, TrapTTLRounds: 9}, span, 499),
		newTrapRig(t, "dense/inverse", Config{Variant: BinarySearch, N: 40, TrapGC: GCInverse}, span, 1),
	}
	rigs[2].popViews = true
	for s := 0; s+2 < len(script); s += 3 {
		op, a, b := script[s], script[s+1], script[s+2]
		step := s / 3
		for _, g := range rigs {
			n := g.cfg.N
			requester, reqSeq := g.requester(a), uint64(b%8)
			var what string
			kind := op % 8
			if kind == 7 && g.popViews {
				kind = 3
			}
			switch kind {
			case 0, 1:
				what = "add"
				g.add(t, step, requester, reqSeq, int(a+b)%n, g.ref.lastSeen+uint64(b>>6))
			case 2:
				what = "burst"
				for k := 0; k < int(b%12); k++ {
					g.add(t, step, g.requester(a+byte(k)), reqSeq, int(a)%n, 0)
				}
			case 3:
				what = "pop"
				want, wantOK := g.ref.pop()
				for _, nd := range []*Node{g.lazy, g.indexed} {
					if got, ok := nd.popTrap(); ok != wantOK || got != want {
						t.Fatalf("%s step %d: popped %+v/%v, model %+v/%v", g.name, step, got, ok, want, wantOK)
					}
				}
			case 4:
				what = "remove"
				want, wantOK := g.ref.remove(requester)
				for _, nd := range []*Node{g.lazy, g.indexed} {
					if got, ok := nd.removeTrap(requester); ok != wantOK || got != want {
						t.Fatalf("%s step %d: removed %+v/%v, model %+v/%v", g.name, step, got, ok, want, wantOK)
					}
				}
			case 5:
				what = "adopt"
				v := make([]uint64, n)
				for k := 0; k < int(b%8); k++ {
					v[g.requester(a+byte(5*k))] = uint64(int(b>>3)+k) % 8
				}
				g.ref.adopt(v)
				g.lazy.adoptServed(v)
				g.indexed.adoptServed(v)
			case 6:
				what = "age"
				g.ref.lastSeen += uint64(b % 7)
				g.ref.age()
				for _, nd := range []*Node{g.lazy, g.indexed} {
					nd.lastSeen = g.ref.lastSeen
					nd.ageTraps()
				}
			case 7:
				what = "view"
				var members []int
				drop, mod := int(a), 2+int(b%5)
				for i := 0; i < n; i++ {
					if i == g.ref.id || i%mod != drop%mod {
						members = append(members, i)
					}
				}
				g.epoch++
				g.ref.applyView(members, n)
				u := ViewUpdate{Epoch: g.epoch, Members: members}
				g.lazy.ApplyView(0, u)
				g.indexed.ApplyView(0, u)
			}
			g.check(t, step, what)
		}
	}
}

func FuzzTrapTable(f *testing.F) {
	// Grow past the threshold in one burst, dedup, pop below it, grow again.
	f.Add([]byte{2, 0, 11, 0, 3, 5, 0, 3, 1, 3, 0, 0, 3, 0, 0, 3, 0, 0, 3, 0, 0, 2, 12, 11})
	// Sweeps from each side of an index: adopt, age, view.
	f.Add([]byte{2, 0, 6, 5, 0, 63, 2, 6, 11, 5, 7, 63, 6, 0, 6, 6, 0, 6, 7, 1, 0, 4, 9, 0})
	f.Add([]byte{0, 1, 2, 0, 1, 1, 0, 1, 195, 4, 1, 0, 3, 0, 0})
	f.Fuzz(trapScript)
}

// TestTrapTableRandomScripts runs the fuzz body over seeded random scripts,
// so a plain `go test` covers what the fuzzer explores.
func TestTrapTableRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	script := make([]byte, 3*300)
	for i := 0; i < 200; i++ {
		rng.Read(script)
		trapScript(t, script)
	}
}

// BenchmarkAddTrap is the measurement behind trapScanMax: one addTrap on a
// table of the given size, scanned against indexed, on a small ring (dense
// index) and a huge one (map). "dedup" hits the newest entry, the far end of
// a scan. "fresh" looks up a requester the table does not hold, the lookup
// on which addTrap decides to append, so every visit is fresh with no undo
// step in the timing; the append this leaves out
// costs both sides the same, the index store it leaves out only the indexed
// side. Calls walk a pool of 65,536 nodes (fewer where that would take over
// 256 MiB) in strides of five eighths of it, which no prefetcher follows: even
// an indexed lookup, which touches five cache lines or so of a node, goes
// through 10 MiB and more before it comes round again, several times the
// 2 MiB of L2 a core of the host the constant was chosen on has, so each call
// lands on a node as a search message finds the node it traps: cold.
func BenchmarkAddTrap(b *testing.B) {
	const (
		poolNodes = 1 << 16
		poolBytes = 256 << 20
	)
	for _, ring := range []struct {
		name       string
		n          int
		indexBytes func(live int) int
	}{
		{"dense", 1000, func(int) int { return 4 * 1000 }},
		{"sparse", 1_000_000, func(live int) int { return 256 + 16*live }}, // rough: map header, groups
	} {
		for _, live := range []int{1, 4, 8, 9, 64, 512} {
			for _, mode := range []string{"scan", "index"} {
				perNode := int(unsafe.Sizeof(Node{})) + 24*live
				if mode == "index" {
					perNode += ring.indexBytes(live)
				}
				pool := min(poolNodes, poolBytes/perNode)
				stride := pool * 5 / 8
				for gcd(stride, pool) != 1 {
					stride++
				}
				cfg := Config{Variant: LinearSearch, N: ring.n}
				nodes := make([]Node, pool)
				for i := range nodes {
					nd := &nodes[i]
					if err := nd.Init(0, &cfg); err != nil {
						b.Fatal(err)
					}
					nd.traps = make([]trapEntry, live)
					for k := range nd.traps {
						nd.traps[k] = trapEntry{requester: int32((k + 1) * 7 % ring.n), reqSeq: 1}
					}
					if mode == "index" {
						nd.trapAt = newTrapIndex(ring.n, nd.traps, 0)
					}
				}
				for _, c := range []struct {
					name      string
					requester int
					stored    bool
				}{{"fresh", (live + 1) * 7 % ring.n, false}, {"dedup", live * 7 % ring.n, true}} {
					b.Run(fmt.Sprintf("%s/live=%d/%s/%s", ring.name, live, mode, c.name), func(b *testing.B) {
						at := 0
						for i := 0; i < b.N; i++ {
							at = (at + stride) % pool
							if c.stored {
								nodes[at].addTrap(c.requester, 1, 1, 0)
							} else if _, ok := nodes[at].findTrap(c.requester); ok {
								b.Fatalf("requester %d is in the table", c.requester)
							}
						}
					})
				}
			}
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
