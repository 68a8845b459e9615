package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// shardSeedSalt spreads per-shard seeds across the 64-bit space. Shard 0
// keeps the base seed unchanged, so a 1-shard cluster is byte-for-byte the
// unsharded run.
const shardSeedSalt = 0x9e3779b97f4a7c15

// ShardSeed derives shard k's deterministic seed from the cluster seed.
func ShardSeed(seed uint64, shard int) uint64 {
	return seed ^ uint64(shard)*shardSeedSalt
}

// Config describes a sharded simulation cluster: Shards independent rings
// of Nodes members each, all running the same protocol configuration.
type Config struct {
	// Shards is the ring count. Required.
	Shards int
	// Nodes is the per-shard ring size. Required.
	Nodes int
	// Protocol is the per-shard protocol configuration template; its N is
	// overwritten with Nodes.
	Protocol protocol.Config
	// Seed is the cluster seed; shard k runs under ShardSeed(Seed, k).
	Seed uint64
	// CSTime is the critical-section hold per grant.
	CSTime sim.Time
	// Plans are optional per-shard fault plans (nil entries inject
	// nothing). Each shard gets its own Injector, so dispatch sequences —
	// the keys recorded schedules replay by — are namespaced per shard.
	Plans []faults.Plan
	// Replay are optional per-shard recorded schedules; when set (same
	// length as Shards) they take precedence over Plans.
	Replay []faults.Schedule
	// Observers are optional per-shard observers (nil entries observe
	// nothing).
	Observers []driver.Observer
	// TrackFairness enables Theorem-3 possession tracking per shard.
	TrackFairness bool
	// Parallel is the worker-pool size RunAll/RunSplit fan the shards
	// across. Shards share nothing — no state, no RNG, no event queue —
	// so every pool size produces byte-identical per-shard results;
	// values ≤ 1 run the shards inline in shard order (the sequential
	// oracle the equivalence tests compare against). Capped at Shards.
	Parallel int
}

// Cluster is K independent shard rings plus the router that partitions the
// keyspace over them. Shards share nothing — no state, no RNG, no event
// queue — which is what makes the per-shard census argument compositional
// (DESIGN.md §12).
type Cluster struct {
	cfg     Config
	router  *Router
	runners []*driver.Runner
}

// NewCluster builds the router and one driver per shard.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 || cfg.Nodes < 1 {
		return nil, fmt.Errorf("shard: %d shards x %d nodes", cfg.Shards, cfg.Nodes)
	}
	if cfg.Plans != nil && len(cfg.Plans) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d plans for %d shards", len(cfg.Plans), cfg.Shards)
	}
	if cfg.Replay != nil && len(cfg.Replay) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d replay schedules for %d shards", len(cfg.Replay), cfg.Shards)
	}
	if cfg.Observers != nil && len(cfg.Observers) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d observers for %d shards", len(cfg.Observers), cfg.Shards)
	}
	router, err := NewRouter(cfg.Shards)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, router: router, runners: make([]*driver.Runner, cfg.Shards)}
	for k := 0; k < cfg.Shards; k++ {
		pcfg := cfg.Protocol
		pcfg.N = cfg.Nodes
		opts := driver.Options{
			Seed:          ShardSeed(cfg.Seed, k),
			CSTime:        cfg.CSTime,
			TrackFairness: cfg.TrackFairness,
		}
		if cfg.Observers != nil {
			opts.Observer = cfg.Observers[k]
		}
		switch {
		case cfg.Replay != nil:
			opts.Faults = faults.Replay(cfg.Replay[k])
		case cfg.Plans != nil:
			inj, err := faults.NewInjector(cfg.Plans[k])
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", k, err)
			}
			opts.Faults = inj
		}
		r, err := driver.New(pcfg, opts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		c.runners[k] = r
	}
	return c, nil
}

// Router returns the cluster's key router.
func (c *Cluster) Router() *Router { return c.router }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// Shard returns shard k's driver.
func (c *Cluster) Shard(k int) *driver.Runner { return c.runners[k] }

// KeyedRequest is one aggregate-workload arrival: a mutex request for a
// keyspace key at a simulated time. The router decides which shard serves
// it.
type KeyedRequest struct {
	At  sim.Time
	Key uint64
}

// TakeKeyed draws the aggregate arrival process: Poisson arrivals with
// aggregate mean gap meanGap over a keyspace of totalKeys keys. The draw
// sequence is exactly driver.RunWorkload's for workload.Poisson{N:
// totalKeys}, so a 1-shard cluster replays the unsharded request schedule
// verbatim.
func TakeKeyed(seed uint64, totalKeys int, meanGap float64, count int) []KeyedRequest {
	rng := sim.NewRNG(seed ^ 0xa5a5a5a5a5a5a5a5)
	reqs := workload.Take(workload.Poisson{N: totalKeys, MeanGap: meanGap}, rng, count)
	out := make([]KeyedRequest, len(reqs))
	for i, r := range reqs {
		out[i] = KeyedRequest{At: r.At, Key: uint64(r.Node)}
	}
	return out
}

// Split routes an aggregate keyed workload into per-shard request lists.
// The in-shard requester is key mod Nodes — with one shard that is the key
// itself, preserving unsharded behavior.
func (c *Cluster) Split(reqs []KeyedRequest) [][]workload.Request {
	per := make([][]workload.Request, c.cfg.Shards)
	for _, kr := range reqs {
		s := c.router.Route(kr.Key)
		per[s] = append(per[s], workload.Request{
			At:   kr.At,
			Node: int(kr.Key) % c.cfg.Nodes,
		})
	}
	return per
}

// script replays a fixed request list through the workload.Generator
// interface. It never draws from the RNG, so running it under
// driver.RunWorkload reproduces the listed schedule exactly.
type script struct {
	reqs []workload.Request
	i    int
}

func (s *script) Next(_ *sim.RNG, _ sim.Time) (workload.Request, bool) {
	if s.i >= len(s.reqs) {
		return workload.Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// Run drives shard k through its routed request list using the standard
// driver workload loop, returning the shard's simulated end time. Shards
// are independent; calls for different shards may run on different
// goroutines.
func (c *Cluster) Run(k int, reqs []workload.Request, maxTime sim.Time) (sim.Time, error) {
	end, err := c.runners[k].RunWorkload(&script{reqs: reqs}, len(reqs), maxTime)
	if err != nil {
		return end, fmt.Errorf("shard %d: %w", k, err)
	}
	return end, nil
}

// RunAll splits an aggregate workload and runs every shard to completion
// across Config.Parallel workers, returning per-shard results summarized at
// each shard's own end time.
func (c *Cluster) RunAll(reqs []KeyedRequest, maxTime sim.Time) ([]driver.Result, error) {
	return c.RunSplit(c.Split(reqs), maxTime)
}

// workers resolves the effective pool size for the shard count.
func (c *Cluster) workers() int {
	p := c.cfg.Parallel
	if p > c.cfg.Shards {
		p = c.cfg.Shards
	}
	if p < 1 {
		p = 1
	}
	return p
}

// RunSplit runs every shard's routed request list to completion and
// assembles the outcome deterministically regardless of the pool size:
// results land in shard order, only shards that completed cleanly are
// summarized (a failed shard leaves a zero Result), the error aggregates
// every failed shard via errors.Join — each already named "shard k:" by Run
// — instead of first-error-wins, and the cross-shard Census runs only after
// all workers have joined, over a quiescent cluster.
func (c *Cluster) RunSplit(per [][]workload.Request, maxTime sim.Time) ([]driver.Result, error) {
	if len(per) != c.cfg.Shards {
		return nil, fmt.Errorf("shard: %d request lists for %d shards", len(per), c.cfg.Shards)
	}
	out := make([]driver.Result, c.cfg.Shards)
	errs := make([]error, c.cfg.Shards)
	runOne := func(k int) {
		end, err := c.Run(k, per[k], maxTime)
		if err != nil {
			errs[k] = err
			return
		}
		out[k] = c.runners[k].Summarize(end)
	}
	if p := c.workers(); p <= 1 {
		for k := range c.runners {
			runOne(k)
		}
	} else {
		// Workers pull shard indices from an atomic counter; each shard's
		// driver, engine and metrics are touched by exactly one goroutine.
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(p)
		for w := 0; w < p; w++ {
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= c.cfg.Shards {
						return
					}
					runOne(k)
				}
			}()
		}
		wg.Wait()
	}
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	return out, c.Census()
}

// Census machine-checks the single-token invariant of every shard
// independently: shard k must hold exactly one token of its own ring and a
// clean per-shard invariant trace. A fault confined to shard A can
// therefore never be masked by — or blamed on — shard B.
func (c *Cluster) Census() error {
	for k, r := range c.runners {
		if err := r.InvariantErr(); err != nil {
			return fmt.Errorf("shard %d census: %w", k, err)
		}
		if n := r.TokenCount(); n != 1 {
			return fmt.Errorf("shard %d census: %d tokens in ring", k, n)
		}
	}
	return nil
}

// Schedules returns every shard's recorded fault schedule, indexed by
// shard. Replaying shard k's schedule through a same-seeded cluster
// reproduces its run exactly, because dispatch sequences never cross
// shards.
func (c *Cluster) Schedules() []faults.Schedule {
	out := make([]faults.Schedule, c.cfg.Shards)
	for k, r := range c.runners {
		out[k] = r.FaultSchedule()
	}
	return out
}

// ShardPlans builds per-shard fault plans from a template: the shards
// listed in faulty get the template plan (with a per-shard derived seed);
// everyone else gets the zero plan. This is the torture harness's way of
// confining faults to chosen shards.
func ShardPlans(tmpl faults.Plan, shards int, faulty ...int) []faults.Plan {
	plans := make([]faults.Plan, shards)
	for _, k := range faulty {
		if k < 0 || k >= shards {
			continue
		}
		p := tmpl
		p.Seed = ShardSeed(tmpl.Seed, k)
		plans[k] = p
	}
	return plans
}
