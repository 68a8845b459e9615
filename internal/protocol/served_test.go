package protocol

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// refServed is the record as its meaning: a map from requester to the
// highest request granted, next to the node's live traps as (requester,
// reqSeq) pairs, oldest first.
type refServed struct {
	id    int
	holds bool // the node holds the token, and with it the record
	recs  map[int]uint64
	traps [][2]uint64
}

func (r *refServed) record(requester int, reqSeq uint64) {
	r.recs[requester] = max(r.recs[requester], reqSeq)
}

func (r *refServed) served(requester int, reqSeq uint64) bool {
	return r.recs[requester] >= reqSeq
}

func (r *refServed) adopt(recs map[int]uint64) {
	r.holds, r.recs = true, recs
	r.traps = slices.DeleteFunc(r.traps, func(tr [2]uint64) bool { return r.served(int(tr[0]), tr[1]) })
}

func (r *refServed) addTrap(requester int, reqSeq uint64) {
	if requester == r.id {
		return
	}
	for i := range r.traps {
		if r.traps[i][0] == uint64(requester) {
			r.traps[i][1] = max(r.traps[i][1], reqSeq)
			return
		}
	}
	r.traps = append(r.traps, [2]uint64{uint64(requester), reqSeq})
}

// pop removes and returns the oldest trap the record does not show served.
func (r *refServed) pop() ([2]uint64, bool) {
	for len(r.traps) > 0 {
		tr := r.traps[0]
		r.traps = r.traps[1:]
		if !r.served(int(tr[0]), tr[1]) {
			return tr, true
		}
	}
	return [2]uint64{}, false
}

// servedScript interprets script as (op, a, b) triples over the four nodes of
// one ring, driving the real record and the reference model side by side:
// record a grant at the holder, hand the token to the next node, duplicate
// it to two nodes that then both record (host.Dispatch's clone), mint a
// fresh token (regeneration), store a trap, pop a trap. After every operation
// every node that holds a token must carry the model's record, every node
// that has handed its token on must carry none, and the trap tables must
// agree.
func servedScript(t *testing.T, script []byte) {
	const nodes = 4
	var impl [nodes]*Node
	var ref [nodes]*refServed
	for i := range impl {
		impl[i] = newNode(t, i, Config{Variant: BinarySearch, N: nodes, TrapGC: GCRotation})
		ref[i] = &refServed{id: i}
	}
	impl[0].mintServed()
	ref[0].adopt(map[int]uint64{})
	// hand moves i's record to j, as sendToken and a token arrival do.
	hand := func(i, j int) {
		v := impl[i].takeServed()
		impl[j].adoptServed(v)
		ref[j].adopt(ref[i].recs)
		ref[i].holds, ref[i].recs = false, nil
	}
	check := func(step int, what string) {
		t.Helper()
		for i, nd := range impl {
			if !ref[i].holds {
				if nd.served != nil {
					t.Fatalf("step %d (%s): node %d handed its record on and still has %v", step, what, i, nd.served)
				}
			} else {
				got := map[int]uint64{}
				for j, seq := range nd.served {
					if seq != 0 {
						got[j] = seq
					}
				}
				if !maps.Equal(got, ref[i].recs) {
					t.Fatalf("step %d (%s): node %d record = %v, model has %v", step, what, i, nd.served, ref[i].recs)
				}
			}
			var live [][2]uint64
			for _, tr := range nd.traps[nd.trapHead:] {
				live = append(live, [2]uint64{uint64(tr.requester), tr.reqSeq})
			}
			if !slices.Equal(live, ref[i].traps) {
				t.Fatalf("step %d (%s): node %d traps = %v, model has %v", step, what, i, live, ref[i].traps)
			}
		}
	}
	for s := 0; s+2 < len(script); s += 3 {
		op, a, b := script[s], script[s+1], script[s+2]
		i := int(op/8) % nodes
		requester, reqSeq := int(a)%nodes, uint64(b%8)+1 // request numbers start at 1
		var what string
		switch op % 8 {
		case 0, 1:
			what = "record"
			if ref[i].holds {
				impl[i].recordServed(requester, reqSeq)
				ref[i].record(requester, reqSeq)
			}
		case 2, 3:
			what = "pass"
			if ref[i].holds {
				hand(i, (i+1)%nodes)
			}
		case 4:
			what = "duplicate"
			if !ref[i].holds {
				break
			}
			x, y := (i+1)%nodes, (i+2)%nodes
			v := impl[i].takeServed()
			impl[x].adoptServed(slices.Clone(v))
			impl[y].adoptServed(v)
			ref[x].adopt(maps.Clone(ref[i].recs))
			ref[y].adopt(ref[i].recs)
			ref[i].holds, ref[i].recs = false, nil
			for k, nd := range []int{x, y} {
				r := (requester + k) % nodes
				impl[nd].recordServed(r, reqSeq+1)
				ref[nd].record(r, reqSeq+1)
			}
		case 5:
			what = "mint"
			impl[i].mintServed()
			ref[i].adopt(map[int]uint64{})
		case 6:
			what = "trap"
			impl[i].addTrap(requester, reqSeq, i, 0)
			ref[i].addTrap(requester, reqSeq)
		case 7:
			what = "pop"
			if !ref[i].holds {
				break // only a holder pops
			}
			got, gotOK := impl[i].popTrap()
			want, wantOK := ref[i].pop()
			if gotOK != wantOK || (gotOK && (uint64(got.requester) != want[0] || got.reqSeq != want[1])) {
				t.Fatalf("step %d: node %d popped %+v/%v, model %v/%v", s/3, i, got, gotOK, want, wantOK)
			}
		}
		check(s/3, what)
	}
}

func FuzzServedRecord(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 0, 0, 6, 2, 3, 8, 2, 1, 10, 0, 0, 16, 3, 1})
	f.Add([]byte{0, 1, 1, 4, 2, 1, 8, 3, 2, 16, 0, 5, 14, 1, 3, 22, 1, 3, 2, 0, 0, 15, 0, 0})
	f.Add([]byte{6, 1, 2, 14, 3, 2, 22, 1, 1, 5, 0, 0, 0, 2, 2, 2, 0, 0, 15, 0, 0, 15, 0, 0})
	f.Fuzz(servedScript)
}

// TestServedRecordRandomScripts runs the fuzz body over seeded random
// scripts, so a plain `go test` covers what the fuzzer explores.
func TestServedRecordRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	script := make([]byte, 3*400)
	for i := 0; i < 300; i++ {
		rng.Read(script)
		servedScript(t, script)
	}
}

// TestServedRecordNeverForgets: the record keeps one entry per requester for
// every node of the ring, and an older request never overwrites a newer one.
func TestServedRecordNeverForgets(t *testing.T) {
	const n = 600 // past the 512 entries the record used to be cut to
	nd := newNode(t, 0, Config{Variant: BinarySearch, N: n, TrapGC: GCRotation})
	nd.mintServed()
	for r := 0; r < n; r++ {
		nd.recordServed(r, uint64(r+1))
	}
	nd.recordServed(7, 3)
	if got := nd.Stats().Served; got != n {
		t.Fatalf("record shows %d requesters served, want %d", got, n)
	}
	if nd.served[0] != 1 || nd.served[7] != 8 || nd.served[n-1] != n {
		t.Fatalf("record entries 0, 7, %d = %d, %d, %d; want 1, 8, %d", n-1, nd.served[0], nd.served[7], nd.served[n-1], n)
	}
}

// TestValidMessageRejectsLongRecord: a token whose record has more entries
// than the ring has nodes is dropped on arrival, so no index a peer chose
// reaches the vector; a short one — an empty record off the wire — is filled
// out to the ring at the next grant.
func TestValidMessageRejectsLongRecord(t *testing.T) {
	cfg := Config{Variant: BinarySearch, N: 4, TrapGC: GCRotation}
	nd := newNode(t, 1, cfg)
	e := nd.HandleMessage(1, Message{Kind: MsgToken, From: 0, To: 1, Round: 1, Served: make([]uint64, 5)})
	if nd.HasToken() || len(e.Msgs) != 0 {
		t.Fatalf("a 5-entry record on a ring of 4 was taken: holding %v, sent %v", nd.HasToken(), e.Msgs)
	}
	nd.Request(2)
	nd.HandleMessage(3, Message{Kind: MsgToken, From: 0, To: 1, Round: 1, Served: []uint64{2}})
	if !nd.InCS() {
		t.Fatal("the short-record token did not grant")
	}
	pass := nd.Release(4).Msgs[0]
	if want := []uint64{2, 1, 0, 0}; !slices.Equal(pass.Served, want) {
		t.Fatalf("passed record %v, want %v", pass.Served, want)
	}
}

// servedSink keeps a measured allocation from being optimized away.
var servedSink []uint64

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// servedRing is two nodes handing one record back and forth the way a token
// does: record at the holder, move to the other node.
type servedRing struct {
	nodes [2]*Node
	turn  int
}

func newServedRing(tb testing.TB, n int) *servedRing {
	cfg := &Config{Variant: BinarySearch, N: n, TrapGC: GCRotation}
	r := &servedRing{}
	for i := range r.nodes {
		r.nodes[i] = new(Node)
		if err := r.nodes[i].Init(i, cfg); err != nil {
			tb.Fatal(err)
		}
	}
	r.nodes[0].mintServed()
	return r
}

// grant records at the holder and hands the record to the other node.
func (r *servedRing) grant(requester int, reqSeq uint64) {
	holder, other := r.nodes[r.turn], r.nodes[1-r.turn]
	holder.recordServed(requester, reqSeq)
	other.adoptServed(holder.takeServed())
	r.turn = 1 - r.turn
}

// TestRecordServedAllocPins: once minted, the record costs a grant nothing —
// a fresh requester and an update of a recorded one are each one store into
// the vector the token carries.
func TestRecordServedAllocPins(t *testing.T) {
	r := newServedRing(t, 1000)
	next := 0
	if b := bytesPerRun(2000, func() {
		r.grant(next%1000, uint64(next/1000+1))
		next++
	}); b != 0 {
		t.Errorf("a grant allocates %.1f B for the record, want 0", b)
	}
	servedSink = r.nodes[r.turn].served
	if got := servedCount(servedSink); got != 1000 {
		t.Fatalf("record shows %d requesters served, want 1000", got)
	}
}

// BenchmarkRecordServed is one grant's record cost, a store and a hand-over,
// on a small ring and a huge one.
func BenchmarkRecordServed(b *testing.B) {
	for _, n := range []int{1000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := newServedRing(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.grant(i%n, uint64(i)+1)
			}
		})
	}
}

// BenchmarkAdoptServed is one token hop's sweep at a node holding 0, 1, 4 or
// 32 live traps (all for requests newer than the record knows, so the sweep
// compares but never drops), over a pool of nodes large enough that each
// node's traps are cold when the token arrives.
func BenchmarkAdoptServed(b *testing.B) {
	const pool = 4096
	for _, n := range []int{1000, 1_000_000} {
		v := make([]uint64, n)
		for i := range v {
			v[i] = 1
		}
		for _, traps := range []int{0, 1, 4, 32} {
			cfg := &Config{Variant: BinarySearch, N: n, TrapGC: GCRotation}
			nodes := make([]Node, pool)
			for i := range nodes {
				if err := nodes[i].Init(i%n, cfg); err != nil {
					b.Fatal(err)
				}
				for k := 0; k < traps; k++ {
					nodes[i].addTrap((i+1+k*29)%n, 2, 0, 0)
				}
			}
			b.Run(fmt.Sprintf("n=%d/traps=%d", n, traps), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					nodes[i%pool].adoptServed(v)
				}
			})
		}
	}
}
