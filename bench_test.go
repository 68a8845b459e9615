// Package adaptivetoken_test holds the repository-level benchmarks: one per
// reproduced figure/table of the paper (regenerating the series each
// iteration and reporting the headline numbers as custom metrics) and
// micro-benchmarks of the protocol's hot paths.
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

// reportLast extracts headline series values at the table's last point.
func reportLast(b *testing.B, tbl bench.Table, series ...string) {
	b.Helper()
	if len(tbl.Points) == 0 {
		b.Fatal("empty table")
	}
	last := tbl.Points[len(tbl.Points)-1]
	for _, s := range series {
		b.ReportMetric(last.Y[s], s)
	}
}

// BenchmarkFigure9 regenerates Figure 9 (responsiveness vs n at fixed load)
// and reports the n=1000 endpoints.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Figure9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, tbl, "ring", "binsearch")
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10 (responsiveness vs load at n=100)
// and reports the light-load endpoints.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Figure10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, tbl, "ring", "binsearch")
		}
	}
}

// BenchmarkAblationDirected regenerates the delegated-vs-directed table.
func BenchmarkAblationDirected(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.AblationDirected(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, tbl, "delegated-cheap/req", "directed-cheap/req")
		}
	}
}

// BenchmarkAblationTrapGC regenerates the trap-GC comparison.
func BenchmarkAblationTrapGC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.AblationTrapGC(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, tbl, "bounces/grant", "wait-mean")
		}
	}
}

// BenchmarkAblationSpeed regenerates the token-speed sweep.
func BenchmarkAblationSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.AblationSpeed(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, tbl, "token-msgs/req", "wait-mean")
		}
	}
}

// BenchmarkAblationPush regenerates the pull-vs-push comparison.
func BenchmarkAblationPush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.AblationPush(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, tbl, "pull-wait", "push-wait")
		}
	}
}

// BenchmarkAblationThrottle regenerates the gimme/token ratio table.
func BenchmarkAblationThrottle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.AblationThrottle(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, tbl, "ratio")
		}
	}
}

// BenchmarkFairness regenerates the Theorem 3 fairness table.
func BenchmarkFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.FairnessExperiment(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, tbl, "max-by-one-mean", "log2(n)")
		}
	}
}

// BenchmarkSaturation regenerates the all-ready saturation table.
func BenchmarkSaturation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.Saturation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportLast(b, tbl, "ring", "binsearch")
		}
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
