package bench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/workload"
)

// TestParallelEquivalence is the determinism oracle: every experiment must
// produce byte-identical tables at Parallelism 1 (sequential) and 8.
func TestParallelEquivalence(t *testing.T) {
	small := Options{Seed: 1, Requests: 300, MaxTime: 3_000_000}
	for _, id := range []string{"fig9", "push", "fairness", "saturation", "jitter"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq := small
			seq.Parallelism = 1
			par := small
			par.Parallelism = 8
			seqTbl, err := Run(id, seq)
			if err != nil {
				t.Fatal(err)
			}
			parTbl, err := Run(id, par)
			if err != nil {
				t.Fatal(err)
			}
			if s, p := seqTbl.Format(), parTbl.Format(); s != p {
				t.Errorf("parallel table diverges from sequential oracle:\n--- sequential\n%s\n--- parallel\n%s", s, p)
			}
			if s, p := seqTbl.CSV(), parTbl.CSV(); s != p {
				t.Error("CSV output diverges between parallelism levels")
			}
		})
	}
}

// TestRunnerOrderAndErrors pins the pool contract: results come back in
// submission order, and the reported error is the earliest-submitted
// failure regardless of execution interleaving.
func TestRunnerOrderAndErrors(t *testing.T) {
	n := 64
	res, err := mapOrdered(workers(4, n), n, func(i int) (driver.Result, error) {
		return driver.Result{N: i}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range res {
		if got.N != i {
			t.Fatalf("slot %d holds result %d", i, got.N)
		}
	}
	// Earliest-submitted error wins deterministically.
	_, err = mapOrdered(workers(4, n), n, func(i int) (driver.Result, error) {
		if i%10 == 3 {
			return driver.Result{}, fmt.Errorf("boom %d", i)
		}
		return driver.Result{}, nil
	})
	if err == nil || err.Error() != "boom 3" {
		t.Fatalf("err = %v, want boom 3", err)
	}
}

// TestRunnerParallelismCaps checks worker-pool sizing edge cases.
func TestRunnerParallelismCaps(t *testing.T) {
	var active, maxActive atomic.Int64
	_, err := mapOrdered(workers(2, 16), 16, func(i int) (driver.Result, error) {
		cur := active.Add(1)
		defer active.Add(-1)
		for {
			seen := maxActive.Load()
			if cur <= seen || maxActive.CompareAndSwap(seen, cur) {
				break
			}
		}
		return driver.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxActive.Load() > 2 {
		t.Errorf("concurrency %d exceeds Parallelism 2", maxActive.Load())
	}
	if got := workers(0, 5); got < 1 {
		t.Errorf("workers = %d", got)
	}
	if got := workers(8, 3); got != 3 {
		t.Errorf("workers capped by job count: %d, want 3", got)
	}
}

// TestSeedZeroUsable is the regression test for Options.withDefaults
// silently rewriting Seed: 0 — a zero seed must survive.
func TestSeedZeroUsable(t *testing.T) {
	if o := (Options{Seed: 0}).withDefaults(); o.Seed != 0 {
		t.Fatalf("seed 0 rewritten to %d", o.Seed)
	}
	// Seed 0 drives a run end to end.
	res, err := runJob(Job{
		Cfg: figureConfig(protocol.BinarySearch, 8),
		Gen: workload.Poisson{N: 8, MeanGap: 10},
	}, Options{Seed: 0, Requests: 100, MaxTime: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grants == 0 {
		t.Error("seed-0 run served no requests")
	}
	// Seed 0 is a distinct seed, not an alias of the default.
	res1, err := runJob(Job{
		Cfg: figureConfig(protocol.BinarySearch, 8),
		Gen: workload.Poisson{N: 8, MeanGap: 10},
	}, Options{Seed: 1, Requests: 100, MaxTime: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Waits.Mean == res1.Waits.Mean && res.EndTime == res1.EndTime {
		t.Error("seed 0 and seed 1 produced identical runs; seed 0 likely remapped")
	}
}

// TestCSVRoundTrip: Table → CSV → ParseCSV reproduces the table exactly
// (%g float encoding is lossless).
func TestCSVRoundTrip(t *testing.T) {
	tbl, err := Run("saturation", Options{Seed: 3, Requests: 64, MaxTime: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(tbl.CSV())
	if err != nil {
		t.Fatal(err)
	}
	if back.XLabel != tbl.XLabel || len(back.Series) != len(tbl.Series) {
		t.Fatalf("header mismatch: %+v vs %+v", back, tbl)
	}
	for i, s := range tbl.Series {
		if back.Series[i] != s {
			t.Fatalf("series %d = %q, want %q", i, back.Series[i], s)
		}
	}
	if len(back.Points) != len(tbl.Points) {
		t.Fatalf("points = %d, want %d", len(back.Points), len(tbl.Points))
	}
	for i, p := range tbl.Points {
		if back.Points[i].X != p.X {
			t.Errorf("point %d x = %g, want %g", i, back.Points[i].X, p.X)
		}
		for _, s := range tbl.Series {
			if back.Points[i].Y[s] != p.Y[s] {
				t.Errorf("point %d %q = %g, want %g", i, s, back.Points[i].Y[s], p.Y[s])
			}
		}
	}
	// The re-rendered CSV is byte-identical.
	if back.CSV() != tbl.CSV() {
		t.Error("re-rendered CSV differs")
	}
	// Malformed inputs are rejected.
	for _, bad := range []string{"", "x,a\n1", "x,a\noops,1\n", "x,a\n1,nope\n"} {
		if _, err := ParseCSV(bad); err == nil {
			t.Errorf("ParseCSV(%q) accepted malformed input", bad)
		}
	}
}

// TestRunStats checks the run-total accounting behind Options.Stats.
func TestRunStats(t *testing.T) {
	var stats RunStats
	opts := Options{Seed: 1, Requests: 200, MaxTime: 2_000_000, Parallelism: 4, Stats: &stats}
	if _, err := Run("saturation", opts); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.Runs != 6 { // 3 n's × 2 variants
		t.Errorf("runs = %d, want 6", snap.Runs)
	}
	if snap.SimEvents == 0 || snap.Messages == 0 || snap.Grants == 0 {
		t.Errorf("empty stats: %+v", snap)
	}
	var nilStats *RunStats
	nilStats.record(driver.Result{}) // must not panic
	if nilStats.Snapshot() != (StatsSnapshot{}) {
		t.Error("nil snapshot not zero")
	}
}
