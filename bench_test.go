// Package adaptivetoken_test holds the repository-level benchmarks:
// BenchmarkExperiment/<id>, one sub-benchmark per reproduced figure/table of
// the paper (regenerating the series each iteration and reporting the
// headline numbers as custom metrics), and micro-benchmarks of the
// protocol's hot paths.
//
// Run with:
//
//	go test -bench=. -benchmem
package adaptivetoken_test

import (
	"fmt"
	"testing"

	"adaptivetoken/internal/bench"
	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/spec"
	"adaptivetoken/internal/trs"
	"adaptivetoken/internal/workload"
)

// benchOpts sizes experiment runs for benchmarking: small enough to iterate,
// large enough for stable means.
func benchOpts() bench.Options {
	return bench.Options{Seed: 1, Requests: 300, MaxTime: 3_000_000}
}

// BenchmarkExperiment regenerates one table of the evaluation per iteration
// and reports its headline series at the table's last point (Figure 9: the
// n=1000 endpoints; Figure 10: the light-load endpoints).
func BenchmarkExperiment(b *testing.B) {
	for _, e := range []struct {
		id     string
		series []string
	}{
		{"fig9", []string{"ring", "binsearch"}},
		{"fig10", []string{"ring", "binsearch"}},
		{"directed", []string{"delegated-cheap/req", "directed-cheap/req"}},
		{"trapgc", []string{"bounces/grant", "wait-mean"}},
		{"speed", []string{"token-msgs/req", "wait-mean"}},
		{"push", []string{"pull-wait", "push-wait"}},
		{"throttle", []string{"ratio"}},
		{"fairness", []string{"max-by-one-mean", "log2(n)"}},
		{"saturation", []string{"ring", "binsearch"}},
	} {
		b.Run(e.id, func(b *testing.B) {
			var tbl bench.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tbl, err = bench.Run(e.id, benchOpts()); err != nil {
					b.Fatal(err)
				}
			}
			if len(tbl.Points) == 0 {
				b.Fatal("empty table")
			}
			last := tbl.Points[len(tbl.Points)-1]
			for _, s := range e.series {
				b.ReportMetric(last.Y[s], s)
			}
		})
	}
}

// BenchmarkSimulatedGrant measures end-to-end simulated cost per grant in
// the BinarySearch protocol under moderate load, at n=128 and on the
// benchmark's sim-big ring (n=10⁶, 20,000 requests a ring — the working set
// is far beyond cache and the satisfaction record sits at its 512-entry cap).
// Rings are built with the timer stopped; `make profile-sim-big` profiles the
// big ring.
func BenchmarkSimulatedGrant(b *testing.B) {
	for _, size := range []struct{ n, batch int }{{128, 500}, {1_000_000, 20_000}} {
		b.Run(fmt.Sprintf("n=%d", size.n), func(b *testing.B) {
			cfg := protocol.Config{Variant: protocol.BinarySearch, N: size.n, TrapGC: protocol.GCRotation}
			b.ReportAllocs()
			b.ResetTimer()
			served := 0
			for served < b.N {
				b.StopTimer()
				r, err := driver.New(cfg, driver.Options{Seed: uint64(served + 1)})
				if err != nil {
					b.Fatal(err)
				}
				batch := size.batch
				if rem := b.N - served; rem < batch {
					batch = rem
				}
				b.StartTimer()
				if _, err := r.RunWorkload(workload.Poisson{N: size.n, MeanGap: 10}, batch, 10_000_000); err != nil {
					b.Fatal(err)
				}
				served += batch
			}
		})
	}
}

// BenchmarkProtocolHop measures the pure state-machine cost of one token
// hop (pass + receive), no simulator involved.
func BenchmarkProtocolHop(b *testing.B) {
	cfg := protocol.Config{Variant: protocol.BinarySearch, N: 2}
	n0, err := protocol.New(0, cfg)
	if err != nil {
		b.Fatal(err)
	}
	n1, err := protocol.New(1, cfg)
	if err != nil {
		b.Fatal(err)
	}
	eff := n0.GiveToken(0)
	nodes := []*protocol.Node{n0, n1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(eff.Msgs) != 1 {
			b.Fatalf("unexpected effects: %+v", eff)
		}
		m := eff.Msgs[0]
		eff = nodes[m.To].HandleMessage(protocol.Time(i), m)
	}
}

// BenchmarkTRSBagMatch measures AC bag matching in the TRS engine — the
// inner loop of the formal-layer model checking.
func BenchmarkTRSBagMatch(b *testing.B) {
	elems := make([]trs.Term, 12)
	for i := range elems {
		elems[i] = trs.Pair(trs.Int(int64(i)), trs.EmptySeq())
	}
	bag := trs.NewBag(elems...)
	pat := trs.BagOf("Q", trs.Tup(trs.V("x"), trs.V("d")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(trs.MatchAll(pat, bag)); got != 12 {
			b.Fatalf("matches = %d", got)
		}
	}
}

// BenchmarkSpecExplore measures exhaustive exploration of the full
// BinarySearch TRS at the N=2 verification instance.
func BenchmarkSpecExplore(b *testing.B) {
	p := spec.Params{N: 2, MaxBroadcasts: 1, MaxPending: 1, MaxPasses: 2}
	sys := spec.NewSystemBinarySearch(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := trs.Explore(sys.Rules, sys.Init, trs.ExploreOptions{MaxStates: 100_000})
		if res.Err != nil || res.States < 100 {
			b.Fatalf("explore: states=%d err=%v", res.States, res.Err)
		}
	}
}
