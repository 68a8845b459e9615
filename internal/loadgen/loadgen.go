// Package loadgen is the standalone open-loop client load generator of the
// live measurement loop: it drives acquire/release sessions against a
// node's distributed-lock API on a precomputed arrival schedule.
//
// Open loop means the arrival process never closes the loop on response
// latency: the k-th session starts at its scheduled wall-clock instant no
// matter how slow earlier sessions were. A closed-loop generator (issue →
// wait → issue) self-throttles exactly when the system degrades, hiding
// the latency the paper's responsiveness metric (Definition 3) is supposed
// to expose — the coordinated-omission trap. Latency is therefore measured
// from the *scheduled* arrival, not from whenever the generator got around
// to issuing, and recorded into the repo's mergeable metrics.Histogram so
// per-node histograms aggregate across a multi-process cluster exactly
// like simulated ones.
//
// Arrival processes are deterministic per seed (the same splitmix-based
// sim.RNG the simulator uses), so a cluster-wide schedule is reproducible:
// node i of an N-node cluster running seed s+i draws an independent
// Poisson stream, and the superposition across nodes is the cluster's
// aggregate Poisson load.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/sim"
)

// Locker is the acquire/release session target — satisfied by
// mutex.Mutex (and by anything with context Lock / Unlock).
type Locker interface {
	Lock(ctx context.Context) error
	Unlock() error
}

// Arrivals generates inter-arrival gaps in seconds. Implementations must
// be pure functions of the RNG (plus their own internal state), so a seed
// fully determines the schedule.
type Arrivals interface {
	// NextGap returns the gap to the next arrival, in seconds.
	NextGap(rng *sim.RNG) float64
}

// Poisson arrivals at Rate per second (exponential gaps) — the open-loop
// form of the paper's fixed-load process.
type Poisson struct {
	// Rate is the arrival intensity in sessions per second.
	Rate float64
}

// NextGap implements Arrivals.
func (p Poisson) NextGap(rng *sim.RNG) float64 {
	return rng.Exp(1 / p.Rate)
}

// OnOff is a two-state Markov-modulated Poisson process: bursts of OnRate
// arrivals per second for exponentially distributed on-periods (mean
// MeanOn), separated by silent off-periods (mean MeanOff) — the "bursty
// but infrequent" pattern of the paper's introduction, at live-cluster
// scale.
type OnOff struct {
	// OnRate is the arrival intensity during a burst, per second.
	OnRate float64
	// MeanOn and MeanOff are the mean state holding times in seconds.
	MeanOn, MeanOff float64

	// mutable: time left in the current on-period; <0 before the first
	// burst (state starts "off" so independent seeds desynchronize).
	onLeft  float64
	started bool
}

// NextGap implements Arrivals. Both the state holding times and the
// within-burst gaps are exponential, so the process is memoryless within a
// state and the implementation can draw state-by-state.
func (b *OnOff) NextGap(rng *sim.RNG) float64 {
	gap := 0.0
	if !b.started {
		b.started = true
		gap += rng.Exp(b.MeanOff) // begin in an off-period
		b.onLeft = rng.Exp(b.MeanOn)
	}
	for {
		g := rng.Exp(1 / b.OnRate)
		if g <= b.onLeft {
			b.onLeft -= g
			return gap + g
		}
		// The burst ends before the next arrival: skip the rest of the
		// on-period and a whole off-period, then redraw in a fresh burst
		// (memorylessness makes the discard exact).
		gap += b.onLeft + rng.Exp(b.MeanOff)
		b.onLeft = rng.Exp(b.MeanOn)
	}
}

// Config tunes one generator instance (one node's client population).
type Config struct {
	// Arrivals is the arrival process. Required.
	Arrivals Arrivals
	// Seed drives the arrival randomness.
	Seed uint64
	// Duration bounds the schedule: arrivals past it are not issued.
	Duration time.Duration
	// Hold is the critical-section time each session spends between
	// acquire and release.
	Hold time.Duration
	// Unit is the latency histogram's resolution (default 1ms, matching
	// the live protocol's default time unit so live histograms merge with
	// simulated ones unit-for-unit).
	Unit time.Duration
	// MaxInFlight caps concurrent sessions (default 1024). An open-loop
	// generator must not self-throttle, but a real client population is
	// finite: arrivals past the cap are shed and counted, never silently
	// dropped or — worse — queued into a closed loop.
	MaxInFlight int
	// AcquireTimeout bounds each session's Lock call (0 = unbounded). A
	// session that times out counts as an error; without a bound, one
	// stranded acquire (say, a peer process gone mid-grant) parks Run
	// forever.
	AcquireTimeout time.Duration
	// OnDone, if set, is called after every completed session (testing
	// hook).
	OnDone func()
}

func (c Config) withDefaults() (Config, error) {
	if c.Arrivals == nil {
		return c, fmt.Errorf("loadgen: nil arrival process")
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: duration %v", c.Duration)
	}
	if c.Unit <= 0 {
		c.Unit = time.Millisecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	return c, nil
}

// Report is the outcome of one Run. Its JSON form is exact, histograms
// included, so a node process can hand it to the orchestrator whole.
type Report struct {
	// Issued counts sessions started (arrivals not shed).
	Issued int64 `json:"issued"`
	// Completed counts sessions that acquired, held and released.
	Completed int64 `json:"completed"`
	// Errors counts sessions whose acquire failed (context timeout,
	// stopped runtime).
	Errors int64 `json:"errors"`
	// Shed counts arrivals dropped at the MaxInFlight cap.
	Shed int64 `json:"shed"`
	// Late counts arrivals issued ≥ one unit behind schedule — pacer
	// overrun diagnostics.
	Late int64 `json:"late"`
	// MaxInFlight is the high-water mark of concurrent sessions.
	MaxInFlight int64 `json:"max_in_flight"`
	// Latency is scheduled-arrival → release latency in Unit ticks
	// (coordinated-omission-free: lateness of the pacer counts against
	// the measurement, exactly like a queued real client).
	Latency metrics.Histogram `json:"latency"`
	// Acquire is scheduled-arrival → acquire latency in Unit ticks: the
	// client-perceived responsiveness, the live counterpart of the
	// simulator's wait metric.
	Acquire metrics.Histogram `json:"acquire"`
}

// Run executes the load against lk until the schedule is exhausted and
// every in-flight session finished, or ctx is canceled (sheds the rest of
// the schedule, still drains in-flight sessions). It is the caller's
// choice to run one Run per node process (cmd/ringnode -load) or several
// against an in-process cluster.
func Run(ctx context.Context, cfg Config, lk Locker) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	rep := &Report{}
	var mu sync.Mutex // guards rep after the pacer loop forks sessions
	inFlight := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup
	var current, peak int64

	start := time.Now()
	elapsed := 0.0 // scheduled offset in seconds
	for {
		elapsed += cfg.Arrivals.NextGap(rng)
		if !(elapsed >= 0) || math.IsInf(elapsed, 0) {
			return nil, fmt.Errorf("loadgen: arrival process produced offset %v", elapsed)
		}
		offset := time.Duration(elapsed * float64(time.Second))
		if offset > cfg.Duration {
			break
		}
		// Open-loop pacing: sleep to the scheduled instant. Never
		// reschedule based on session completion.
		at := start.Add(offset)
		if d := time.Until(at); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		late := time.Since(at)
		select {
		case inFlight <- struct{}{}:
		default:
			mu.Lock()
			rep.Shed++
			mu.Unlock()
			continue
		}
		mu.Lock()
		rep.Issued++
		if late >= cfg.Unit {
			rep.Late++
		}
		current++
		if current > peak {
			peak = current
		}
		mu.Unlock()
		wg.Add(1)
		go func(scheduled time.Time) {
			defer wg.Done()
			defer func() {
				<-inFlight
				mu.Lock()
				current--
				mu.Unlock()
				if cfg.OnDone != nil {
					cfg.OnDone()
				}
			}()
			lctx := ctx
			if cfg.AcquireTimeout > 0 {
				var cancel context.CancelFunc
				lctx, cancel = context.WithTimeout(ctx, cfg.AcquireTimeout)
				defer cancel()
			}
			err := lk.Lock(lctx)
			acquired := time.Since(scheduled)
			if err != nil {
				mu.Lock()
				rep.Errors++
				mu.Unlock()
				return
			}
			if cfg.Hold > 0 {
				time.Sleep(cfg.Hold)
			}
			lk.Unlock()
			done := time.Since(scheduled)
			mu.Lock()
			rep.Completed++
			rep.Acquire.Observe(int64(acquired / cfg.Unit))
			rep.Latency.Observe(int64(done / cfg.Unit))
			mu.Unlock()
		}(at)
	}
	wg.Wait()
	mu.Lock()
	rep.MaxInFlight = peak
	mu.Unlock()
	return rep, nil
}

// Schedule materializes the first count arrival offsets of cfg's process —
// the deterministic schedule tests and the orchestrator's dry-run inspect.
func Schedule(cfg Config, count int) ([]time.Duration, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(cfg.Seed)
	out := make([]time.Duration, 0, count)
	elapsed := 0.0
	for len(out) < count {
		elapsed += cfg.Arrivals.NextGap(rng)
		out = append(out, time.Duration(elapsed*float64(time.Second)))
	}
	return out, nil
}
