package bench

import (
	"runtime"
	"sync"
	"sync/atomic"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// Job is one simulation run submitted to runJobs. Every job owns its
// configuration, workload generator and delay model, and every run builds a
// private sim.Engine seeded from the experiment Options — jobs share no
// mutable state, which is what makes fanning them across goroutines safe
// and the results independent of execution order.
type Job struct {
	// Cfg is the protocol configuration for the run.
	Cfg protocol.Config
	// Gen produces the request arrivals. Generators may be stateful
	// (e.g. *workload.Bursty); each job must own its own instance.
	Gen workload.Generator
	// Delay is the message delay model; nil means the paper's constant
	// one-unit cost.
	Delay sim.DelayModel
	// Requests overrides Options.Requests for this job when > 0.
	Requests int
	// CSTime is the critical-section hold time passed to the driver.
	CSTime sim.Time
	// TrackFairness enables the Theorem 3 possession accounting.
	TrackFairness bool
}

// workers resolves the pool size for n jobs at parallelism p: p ≤ 0 means
// runtime.GOMAXPROCS(0), and 1 runs the jobs inline on the calling
// goroutine — the sequential oracle the equivalence tests compare against.
func workers(p, n int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// runJobs fans the jobs across the pool opts.Parallelism configures and
// returns their results in submission order; on failure, the error of the
// earliest-submitted failing job, so error reporting is deterministic too.
// Each job's result depends only on (Cfg, Gen, Delay, Options seed/scale),
// never on scheduling, so any parallelism level produces byte-identical
// experiment tables.
func runJobs(opts Options, jobs []Job) ([]driver.Result, error) {
	return mapOrdered(workers(opts.Parallelism, len(jobs)), len(jobs), func(i int) (driver.Result, error) {
		return runJob(jobs[i], opts)
	})
}

// mapOrdered fans fn(0..n-1) across at most p goroutines, writing each
// result into its submission slot. Workers pull indices from an atomic
// counter; the output order never depends on which worker ran what.
func mapOrdered[T any](p, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if p <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(p)
		for w := 0; w < p; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// RunStats accumulates totals across runs (the repo benchmark and the
// throughput/allocation gates read them). Safe for concurrent use; attach
// one via Options.Stats.
type RunStats struct {
	Runs      atomic.Int64
	SimEvents atomic.Int64
	Messages  atomic.Int64
	Grants    atomic.Int64
}

// record folds one run's totals into the stats; nil-safe.
func (s *RunStats) record(res driver.Result) {
	if s == nil {
		return
	}
	s.Runs.Add(1)
	s.SimEvents.Add(int64(res.SimEvents))
	s.Messages.Add(res.TotalMessages)
	s.Grants.Add(int64(res.Grants))
}

// StatsSnapshot is a plain-value copy of RunStats.
type StatsSnapshot struct {
	Runs      int64
	SimEvents int64
	Messages  int64
	Grants    int64
}

// Snapshot reads the counters; nil-safe.
func (s *RunStats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		Runs:      s.Runs.Load(),
		SimEvents: s.SimEvents.Load(),
		Messages:  s.Messages.Load(),
		Grants:    s.Grants.Load(),
	}
}
