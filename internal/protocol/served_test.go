package protocol

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// refServed is the slice implementation the shared-backing window replaced,
// kept as the reference model: copy-on-write under a freeze-on-share flag,
// append then move down to the cap, and the nested traps × recs sweep. The
// one intended difference from the old code is the clamp on adopt.
type refServed struct {
	id, limit int
	recs      []ServedRec
	shared    bool
	traps     []ServedRec // live traps as (requester, reqSeq), FIFO
}

func (r *refServed) own() {
	if r.shared {
		r.recs = append([]ServedRec(nil), r.recs...)
		r.shared = false
	}
}

func (r *refServed) record(requester int, reqSeq uint64) {
	for i := range r.recs {
		if r.recs[i].Requester == requester {
			if reqSeq > r.recs[i].ReqSeq {
				r.own()
				r.recs[i].ReqSeq = reqSeq
			}
			return
		}
	}
	r.own()
	r.recs = append(r.recs, ServedRec{Requester: requester, ReqSeq: reqSeq})
	if len(r.recs) > r.limit {
		r.recs = append(r.recs[:0], r.recs[len(r.recs)-r.limit:]...)
	}
}

func (r *refServed) snapshot() []ServedRec {
	if len(r.recs) == 0 {
		return nil
	}
	r.shared = true
	return r.recs
}

func (r *refServed) served(tr ServedRec) bool {
	for _, rec := range r.recs {
		if rec.Requester == tr.Requester && rec.ReqSeq >= tr.ReqSeq {
			return true
		}
	}
	return false
}

func (r *refServed) adopt(recs []ServedRec) {
	if len(recs) > r.limit {
		recs = recs[len(recs)-r.limit:]
	}
	r.recs = recs
	r.shared = len(recs) > 0
	live := r.traps[:0:0]
	for _, tr := range r.traps {
		if !r.served(tr) {
			live = append(live, tr)
		}
	}
	r.traps = live
}

func (r *refServed) addTrap(requester int, reqSeq uint64) {
	if requester == r.id {
		return
	}
	for i := range r.traps {
		if r.traps[i].Requester == requester {
			if reqSeq > r.traps[i].ReqSeq {
				r.traps[i].ReqSeq = reqSeq
			}
			return
		}
	}
	r.traps = append(r.traps, ServedRec{Requester: requester, ReqSeq: reqSeq})
}

// pop removes and returns the oldest trap the record does not show served.
func (r *refServed) pop() (ServedRec, bool) {
	for len(r.traps) > 0 {
		tr := r.traps[0]
		r.traps = r.traps[1:]
		if !r.served(tr) {
			return tr, true
		}
	}
	return ServedRec{}, false
}

// entryFor returns the record's entry for requester, zero if it has none.
func entryFor(recs []ServedRec, requester int) ServedRec {
	for _, rec := range recs {
		if rec.Requester == requester {
			return rec
		}
	}
	return ServedRec{}
}

// servedAlias is one record handed out by servedSnapshot: the window itself,
// the model's counterpart, and the contents at the moment of hand-out.
type servedAlias struct {
	got, ref, want []ServedRec
}

// servedScript interprets script as (op, a, b) triples over four nodes of one
// ring — three with the same cap, one with a larger one — driving the real
// record and the reference model side by side: record, snapshot, adopt,
// pass to the successor, duplicate a snapshot to two nodes that both append,
// store a trap, pop a trap. After every operation every node's record and
// trap table must equal the model's, and at the end every alias ever handed
// out must still read what it read when handed out.
func servedScript(t *testing.T, script []byte) {
	const (
		nodes      = 4
		requesters = 24
	)
	caps := [nodes]int{4, 4, 4, 7}
	var impl [nodes]*Node
	var ref [nodes]*refServed
	for i := range impl {
		impl[i] = newNode(t, i, Config{Variant: BinarySearch, N: 64, TrapGC: GCRotation, ServedCap: caps[i]})
		ref[i] = &refServed{id: i, limit: caps[i]}
	}
	var aliases []servedAlias
	snapshot := func(i int) servedAlias {
		a := servedAlias{got: impl[i].servedSnapshot(), ref: ref[i].snapshot()}
		a.want = append([]ServedRec(nil), a.got...)
		aliases = append(aliases, a)
		return a
	}
	adopt := func(i int, a servedAlias) {
		impl[i].adoptServed(a.got)
		ref[i].adopt(a.ref)
	}
	record := func(i, requester int, reqSeq uint64) {
		impl[i].recordServed(requester, reqSeq)
		ref[i].record(requester, reqSeq)
	}
	check := func(step int, what string) {
		t.Helper()
		for i := range impl {
			if !slices.Equal(impl[i].served, ref[i].recs) {
				t.Fatalf("step %d (%s): node %d record = %v, model has %v", step, what, i, impl[i].served, ref[i].recs)
			}
			var live []ServedRec
			for _, tr := range impl[i].traps[impl[i].trapHead:] {
				live = append(live, ServedRec{Requester: int(tr.requester), ReqSeq: tr.reqSeq})
			}
			if !slices.Equal(live, ref[i].traps) {
				t.Fatalf("step %d (%s): node %d traps = %v, model has %v", step, what, i, live, ref[i].traps)
			}
		}
	}
	for s := 0; s+2 < len(script); s += 3 {
		op, a, b := script[s], script[s+1], script[s+2]
		i := int(op/8) % nodes
		requester, reqSeq := int(a)%requesters, uint64(b%8)
		var what string
		switch op % 8 {
		case 0, 1:
			what = "record"
			record(i, requester, reqSeq)
		case 2:
			what = "snapshot"
			snapshot(i)
		case 3:
			what = "adopt"
			if len(aliases) > 0 {
				adopt(i, aliases[int(a)%len(aliases)])
			}
		case 4:
			what = "pass"
			adopt((i+1)%nodes, snapshot(i))
		case 5:
			what = "duplicate"
			snap := snapshot(i)
			x, y := (i+1)%nodes, (i+2)%nodes
			rx, ry := requester, (requester+1)%requesters
			adopt(x, snap)
			adopt(y, snap)
			record(x, rx, reqSeq+1)
			record(y, ry, reqSeq+1)
			// Whatever x still holds for y's requester (its own append
			// may have trimmed it away) is what the snapshot held, and
			// the other way round.
			for _, leak := range [][2]ServedRec{
				{entryFor(impl[x].served, ry), entryFor(snap.want, ry)},
				{entryFor(impl[y].served, rx), entryFor(snap.want, rx)},
			} {
				if leak[0] != (ServedRec{}) && leak[0] != leak[1] {
					t.Fatalf("step %d: holders of one snapshot %v see each other's appends: %v and %v",
						s/3, snap.want, impl[x].served, impl[y].served)
				}
			}
		case 6:
			what = "trap"
			impl[i].addTrap(requester, reqSeq, i, 0)
			ref[i].addTrap(requester, reqSeq)
		case 7:
			what = "pop"
			got, gotOK := impl[i].popTrap()
			want, wantOK := ref[i].pop()
			if gotOK != wantOK || (gotOK && (int(got.requester) != want.Requester || got.reqSeq != want.ReqSeq)) {
				t.Fatalf("step %d: node %d popped %+v/%v, model %+v/%v", s/3, i, got, gotOK, want, wantOK)
			}
		}
		check(s/3, what)
	}
	for k, a := range aliases {
		if !slices.Equal(a.got, a.want) {
			t.Fatalf("alias %d changed after hand-out: %v, was %v", k, a.got, a.want)
		}
		if !slices.Equal(a.ref, a.want) {
			t.Fatalf("alias %d: the model's copy changed: %v, was %v", k, a.ref, a.want)
		}
	}
}

func FuzzServedRecord(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 1, 4, 0, 0, 8, 3, 1, 12, 0, 0, 16, 4, 1})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 5, 9, 2, 5, 9, 3, 13, 9, 4, 2, 0, 0, 11, 0, 0})
	f.Add([]byte{6, 5, 2, 6, 6, 2, 14, 5, 1, 8, 5, 2, 12, 0, 0, 7, 0, 0, 7, 0, 0})
	f.Fuzz(servedScript)
}

// TestServedRecordRandomScripts runs the fuzz body over seeded random scripts
// long enough to exhaust several backings, so a plain `go test` covers what
// the fuzzer explores.
func TestServedRecordRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	script := make([]byte, 3*400)
	for i := 0; i < 300; i++ {
		rng.Read(script)
		servedScript(t, script)
	}
}

// TestAdoptServedClampsToCap: a record longer than this node's cap — a peer
// configured with a larger one, a hostile frame — is cut to its newest
// entries on adopt, so a ring whose grants are all dedup updates (which never
// trim) cannot forward it at full length forever.
func TestAdoptServedClampsToCap(t *testing.T) {
	small := newNode(t, 0, Config{Variant: BinarySearch, N: 8, TrapGC: GCRotation, ServedCap: 3})
	long := []ServedRec{{1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}}
	small.adoptServed(long)
	if want := long[3:]; !slices.Equal(small.served, want) {
		t.Fatalf("adopted %v, want the newest three %v", small.served, want)
	}
	small.recordServed(5, 2) // dedup update: copies, never trims
	if got := small.servedSnapshot(); len(got) != 3 || got[1] != (ServedRec{5, 2}) {
		t.Fatalf("forwarded %v after a dedup update", got)
	}

	// The same through a shared backing: the peer's longer window is
	// untouched by the short one appending past it.
	big := newNode(t, 1, Config{Variant: BinarySearch, N: 8, TrapGC: GCRotation, ServedCap: 8})
	for r := 1; r <= 6; r++ {
		big.recordServed(r, 1)
	}
	snap := big.servedSnapshot()
	small.adoptServed(snap)
	small.recordServed(7, 1)
	if want := []ServedRec{{5, 1}, {6, 1}, {7, 1}}; !slices.Equal(small.served, want) {
		t.Fatalf("small node holds %v, want %v", small.served, want)
	}
	if !slices.Equal(snap, long) || !slices.Equal(big.served, long) {
		t.Fatalf("the peer's record moved: snapshot %v, node %v", snap, big.served)
	}
}

// TestServedTipClaimedOnce: two holders of the same window on different
// goroutines (the live runtime's duplicated or superseded token) both append.
// Exactly one claims the backing's next slot; the other copies; neither sees
// the other's entry. Run under -race.
func TestServedTipClaimedOnce(t *testing.T) {
	cfg := Config{Variant: BinarySearch, N: 8, TrapGC: GCRotation, ServedCap: 6}
	for iter := 0; iter < 200; iter++ {
		src := newNode(t, 0, cfg)
		src.recordServed(1, 1)
		src.recordServed(2, 1)
		snap := src.servedSnapshot()
		holders := [2]*Node{newNode(t, 1, cfg), newNode(t, 2, cfg)}
		var wg sync.WaitGroup
		for i, h := range holders {
			h.adoptServed(snap)
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.recordServed(10+i, 1)
			}()
		}
		wg.Wait()
		inPlace := 0
		for i, h := range holders {
			if want := []ServedRec{{1, 1}, {2, 1}, {10 + i, 1}}; !slices.Equal(h.served, want) {
				t.Fatalf("holder %d has %v, want %v", i, h.served, want)
			}
			if &h.served[0] == &snap[0] {
				inPlace++
			}
		}
		if inPlace != 1 {
			t.Fatalf("%d holders appended in place, want exactly 1", inPlace)
		}
	}
}

// servedSink keeps a measured allocation from being optimized away.
var servedSink []ServedRec

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

// servedRing is two nodes handing a full-cap record back and forth the way a
// token does (record, snapshot, adopt), so every append happens on a window
// that is aliased by a message and by the previous holder.
type servedRing struct {
	nodes [2]*Node
	turn  int
	next  int // next fresh requester
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
	for r.next < r.nodes[0].servedCap() {
		r.grant(r.next, 1)
		r.next++
	}
	return r
}

// grant records at the holder and passes the record to the other node.
func (r *servedRing) grant(requester int, reqSeq uint64) {
	holder, other := r.nodes[r.turn], r.nodes[1-r.turn]
	holder.recordServed(requester, reqSeq)
	other.adoptServed(holder.servedSnapshot())
	r.turn = 1 - r.turn
}

func (r *servedRing) grantFresh() {
	r.grant(r.next, 1)
	r.next++
}

// TestRecordServedAllocPins pins what a grant pays for the record at full
// cap. A fresh requester is appended in place and the live window copied once
// per cap appends: no allocation in the (integral) mean and at most 64 B per
// grant. A dedup update copies the window once, at exactly its length — no
// more than the copy-on-write clone it replaced.
func TestRecordServedAllocPins(t *testing.T) {
	r := newServedRing(t, 1000)
	limit := r.nodes[0].servedCap()
	if got := len(r.nodes[0].served); got != limit {
		t.Fatalf("record holds %d entries, want the cap %d", got, limit)
	}
	if allocs := testing.AllocsPerRun(2*limit, r.grantFresh); allocs != 0 {
		t.Errorf("fresh requester at full cap: %.0f allocs/grant, want 0 amortized", allocs)
	}
	if b := bytesPerRun(2*limit, r.grantFresh); b > 64 {
		t.Errorf("fresh requester at full cap: %.1f B/grant, want <= 64", b)
	}

	clone := bytesPerRun(200, func() { servedSink = append([]ServedRec(nil), r.nodes[0].served...) })
	seq := uint64(1)
	update := bytesPerRun(200, func() {
		seq++
		r.grant(r.next-1, seq)
	})
	if update > clone {
		t.Errorf("dedup update allocates %.0f B/grant, the exact-length clone it replaced %.0f", update, clone)
	}
}

// BenchmarkRecordServed is one grant's cost for a 512-entry record that is
// passed on after every grant: a fresh requester (append in place, the window
// copied once per cap appends) and an already-recorded one (copy). The ring
// size only picks the cap, which both sizes put at 512.
func BenchmarkRecordServed(b *testing.B) {
	for _, n := range []int{1000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d/fresh", n), func(b *testing.B) {
			r := newServedRing(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.grantFresh()
			}
		})
		b.Run(fmt.Sprintf("n=%d/update", n), func(b *testing.B) {
			r := newServedRing(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.grant(i%512, uint64(i)+2)
			}
		})
	}
}

// BenchmarkAdoptServed is one token hop's sweep of a 512-entry record at a
// node holding 0, 1, 4 or 32 live traps (all for requests newer than the
// record knows, so the sweep compares but never drops), over a pool of
// nodes large enough that each node's trap index is cold when the token
// arrives: a dense array at n=1000, a map at n=10⁶. "adopt" is adoptServed
// as it chooses; "byTrap" and "byRec" force either side, which is where
// servedSweepByTrap comes from.
func BenchmarkAdoptServed(b *testing.B) {
	const pool = 4096
	for _, n := range []int{1000, 1_000_000} {
		recs := make([]ServedRec, 512)
		for i := range recs {
			recs[i] = ServedRec{Requester: i * (n / 512), ReqSeq: 1}
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
				// byRec needs the index a table this small does not build.
				if nd := &nodes[i]; nd.trapAt == nil {
					nd.trapAt = newTrapIndex(n, nd.traps, 0)
				}
			}
			for _, side := range []struct {
				name  string
				sweep func(*Node)
			}{
				{"adopt", func(nd *Node) { nd.adoptServed(recs) }},
				{"byTrap", func(nd *Node) { nd.markServedByTrap(recs) }},
				{"byRec", func(nd *Node) { nd.markServedByRec(recs) }},
			} {
				if traps == 0 && side.name != "adopt" {
					continue
				}
				b.Run(fmt.Sprintf("n=%d/traps=%d/%s", n, traps, side.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						side.sweep(&nodes[i%pool])
					}
				})
			}
		}
	}
}
