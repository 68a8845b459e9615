package bench

import (
	"runtime"
	"testing"
)

// benchScale sizes a Figure 9 pass for benchmarking: big enough that the
// worker pool has real work per job, small enough to iterate.
func benchScale(parallelism int) Options {
	return Options{Seed: 1, Requests: 400, MaxTime: 4_000_000, Parallelism: parallelism}
}

// BenchmarkFigure9Sequential is the oracle path: every run on the calling
// goroutine.
func BenchmarkFigure9Sequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run("fig9", benchScale(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9Parallel fans the same 27 runs across GOMAXPROCS
// workers. On a single-core host this matches the sequential time; the
// speedup scales with cores because runs share no state.
func BenchmarkFigure9Parallel(b *testing.B) {
	b.ReportAllocs()
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	for i := 0; i < b.N; i++ {
		if _, err := Run("fig9", benchScale(0)); err != nil {
			b.Fatal(err)
		}
	}
}
