package driver

import (
	"runtime"
	"testing"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// TestIdleRingStepZeroAlloc pins the copy discipline where it runs: on a
// Runner, with every host hook set by New, one event of idle token
// circulation — engine dispatch, deliver gate, state machine, effects,
// invariant check, redelivery into the slab — allocates nothing. A message
// that escaped anywhere along that path would show up as one allocation per
// step.
func TestIdleRingStepZeroAlloc(t *testing.T) {
	for _, cfg := range []protocol.Config{
		{Variant: protocol.RingToken, N: 16},
		{Variant: protocol.BinarySearch, N: 16, TrapGC: protocol.GCRotation},
	} {
		t.Run(cfg.Variant.String(), func(t *testing.T) {
			r, err := New(cfg, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			eng := r.Engine()
			// Two grants first, so that under rotation GC the token carries
			// a satisfaction record with entries and every hop moves it on.
			for _, node := range []int{3, 9} {
				if err := r.Request(1, node); err != nil {
					t.Fatal(err)
				}
			}
			// Bootstrap and a few rotations, so slab, wheel and the host's
			// scratch effects reach steady capacity.
			eng.Drain(4 * cfg.N)
			if cfg.TrapGC == protocol.GCRotation {
				// A third grant stops the token at node 5, which must then
				// hold the record of the first two, and no other node any.
				const at = 5
				if err := r.Request(eng.Now()+1, at); err != nil {
					t.Fatal(err)
				}
				for !r.nodes[at].InCS() {
					if !eng.Step() {
						t.Fatal("ring ran out of events before the third grant")
					}
				}
				for i := range r.nodes {
					want := 0
					if i == at {
						want = 2
					}
					if got := r.nodes[i].Stats().Served; got != want {
						t.Fatalf("node %d holds a record of %d requesters, want %d", i, got, want)
					}
				}
				eng.Drain(4 * cfg.N)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if !eng.Step() {
					t.Fatal("idle ring ran out of events")
				}
			})
			if allocs != 0 {
				t.Fatalf("idle-ring Engine.Step allocates %.2f/event, want 0", allocs)
			}
			if err := r.InvariantErr(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRotationGCGrantAllocBudget pins what a grant allocates on a large ring
// under rotation GC. The satisfaction record is a vector minted with the
// token, outside the run, and written in place by each holder, so a grant
// pays for its search traffic and nothing for the record (1,623 B a grant
// when the record was a list of up to 512 pairs that a grant extended or
// copied). Nor does a node a search merely passes through pay for more than
// the trap it is left with: after the run no node has allocated its cold
// state, and a trap index exists only at the few nodes just ahead of the
// token where searches pile up past trapScanMax — 0 here, against 4,110 nodes
// left holding a trap, none on sim-big's 10⁶ ring (2,906 B a grant with an
// index per trap-bearing node and the event slab doubling under the workload;
// 1,108 B measured now, budget = that + 25 %).
func TestRotationGCGrantAllocBudget(t *testing.T) {
	const (
		n        = 20_000
		requests = 2_000
		budget   = 1_385 // bytes per grant
	)
	r, err := New(protocol.Config{Variant: protocol.BinarySearch, N: n, TrapGC: protocol.GCRotation}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end, err := r.RunWorkload(workload.Poisson{N: n, MeanGap: 10}, requests, sim.Time(1)<<40)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	grants := r.Summarize(end).Grants
	if grants == 0 {
		t.Fatal("no grants")
	}
	perGrant := float64(after.TotalAlloc-before.TotalAlloc) / float64(grants)
	t.Logf("%.0f B allocated per grant over %d grants", perGrant, grants)
	if perGrant > budget {
		t.Fatalf("over the budget of %d B per grant", budget)
	}
	trapped, indexed := 0, 0
	for i := range r.nodes {
		st := r.nodes[i].Stats()
		if st.Cold {
			t.Fatalf("node %d allocated its cold state; nothing in a fault-free BinarySearch run writes it", i)
		}
		if st.Traps > 0 {
			trapped++
		}
		if st.TrapIndexed {
			indexed++
		}
	}
	t.Logf("%d nodes left holding a trap, %d nodes built a trap index", trapped, indexed)
	if trapped == 0 {
		t.Fatal("no node is left holding a trap: the run does not exercise the table")
	}
	if 100*indexed > trapped {
		t.Fatalf("%d nodes built a trap index, over 1%% of the %d left holding a trap: the index is for tables that outgrow a scan", indexed, trapped)
	}
}
