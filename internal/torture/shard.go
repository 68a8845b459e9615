package torture

// Sharded scenario families: the scenario runs on a shard.Cluster — K
// independent rings of Scenario.N members behind the keyspace router —
// with faults confined to the shards the mix marks faulty. Every shard has
// its own injector, so dispatch sequences (the keys recorded schedules
// replay by) are namespaced per shard, and each shard's driver runs its own
// token census: a violation is attributed to the ring it happened in, and a
// fault in shard A cannot perturb shard B at all.

import (
	"fmt"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/shard"
	"adaptivetoken/internal/sim"
)

func init() {
	for _, m := range []Mix{
		{
			Name: "shard-clean", Shards: 3,
			Plan: func(sc Scenario) faults.Plan {
				return faults.Plan{Seed: sc.Seed ^ planSalt}
			},
		},
		{
			Name: "shard-lossy", Shards: 3,
			Faulty: func(Scenario) []int { return []int{0} },
			Plan: func(sc Scenario) faults.Plan {
				return faults.Plan{
					Seed:      sc.Seed ^ planSalt,
					DropCheap: 0.3, DupCheap: 0.2,
					JitterProb: 0.15, JitterMax: 4,
				}
			},
		},
		{
			Name: "shard-crash", Shards: 3, Crash: true,
			Faulty: func(Scenario) []int { return []int{0} },
			Plan: func(sc Scenario) faults.Plan {
				return faults.Plan{Seed: sc.Seed ^ planSalt}
			},
		},
		{
			// Planted bug: duplicated token-bearing messages in shard 0.
			// Shard 0's census must fail, and the error must name shard 0.
			Name: "shard-dup-bug", Shards: 3, Unsafe: true,
			Faulty: func(Scenario) []int { return []int{0} },
			Plan: func(sc Scenario) faults.Plan {
				return faults.Plan{
					Seed:   sc.Seed ^ planSalt,
					Unsafe: true, DupToken: 0.3,
				}
			},
		},
	} {
		mixes[m.Name] = m
	}
}

// SweepShardMixes are the safe sharded mixes a shard sweep runs by
// default; pair them with the binsearch variant (the tentpole per-shard
// protocol).
func SweepShardMixes() []string {
	return []string{"shard-clean", "shard-lossy", "shard-crash"}
}

// RunShardReplay re-runs a sharded scenario under recorded per-shard
// schedules — the sharded analogue of Run with a replay schedule.
func RunShardReplay(sc Scenario, scheds []faults.Schedule) Report {
	sc = sc.withDefaults()
	mix, ok := mixes[sc.Mix]
	if !ok || mix.Shards == 0 {
		return Report{Scenario: sc, Err: fmt.Errorf("torture: %q is not a sharded mix", sc.Mix)}
	}
	return runShard(sc, mix, scheds)
}

// runShard executes one sharded scenario. With replay nil each shard's
// injector draws from (and records) the mix's plan — confined to the
// faulty shards; with per-shard schedules the recorded decisions replay
// verbatim.
func runShard(sc Scenario, mix Mix, replay []faults.Schedule) Report {
	sc = sc.withDefaults()
	rep := Report{Scenario: sc}
	cfg, err := configFor(sc, mix)
	if err != nil {
		rep.Err = err
		return rep
	}
	ccfg := shard.Config{
		Shards:   mix.Shards,
		Nodes:    sc.N,
		Protocol: cfg,
		Seed:     sc.Seed,
		CSTime:   sim.Time(sc.CSTime),
		// Torture always runs the full pool: shards are share-nothing, so
		// the parallel path is byte-identical to sequential — and this way
		// every sharded family (and every ddmin replay) exercises it under
		// the race detector for free.
		Parallel: mix.Shards,
	}
	var faulty []int
	if mix.Faulty != nil {
		faulty = mix.Faulty(sc)
	}
	if replay != nil {
		if len(replay) != mix.Shards {
			rep.Err = fmt.Errorf("torture: %d replay schedules for %d shards", len(replay), mix.Shards)
			return rep
		}
		ccfg.Replay = replay
	} else {
		ccfg.Plans = shard.ShardPlans(mix.Plan(sc), mix.Shards, faulty...)
	}
	c, err := shard.NewCluster(ccfg)
	if err != nil {
		rep.Err = err
		return rep
	}

	// The aggregate keyed workload, routed per shard.
	per := c.Split(shard.TakeKeyed(sc.Seed, mix.Shards*sc.N, sc.MeanGap, sc.Requests))

	// Crash mixes kill a seed-derived victim inside each faulty shard
	// (never that shard's bootstrapper); like runCrash, the dead node's
	// requests are never issued — they would die with it. The kill is
	// scenario-derived, not schedule-derived, so it recurs on replay.
	if mix.Crash {
		victim := 1 + int(sc.Seed%uint64(sc.N-1))
		killAt := sim.Time(10 + sc.Seed%30)
		for _, k := range faulty {
			if err := c.Shard(k).Kill(killAt, victim); err != nil {
				rep.Err = err
				return rep
			}
			kept := per[k][:0]
			for _, q := range per[k] {
				if q.Node != victim {
					kept = append(kept, q)
				}
			}
			per[k] = kept
		}
	}

	// RunSplit fans the shards across the pool and aggregates every failed
	// shard's error (each named "shard k:") via errors.Join. Grants are read
	// after the join — failed shards still report the grants they made
	// before tripping.
	if _, err := c.RunSplit(per, sim.Time(sc.MaxTime)); err != nil {
		rep.Err = err
	}
	for k := 0; k < mix.Shards; k++ {
		rep.Grants += c.Shard(k).Grants()
	}
	if replay == nil {
		rep.Shards = c.Schedules()
	} else {
		rep.Shards = replay
	}
	return rep
}

// shrinkSharded minimizes a sharded failure shard by shard: each shard's
// recorded actions are ddmin-reduced while the other shards' schedules
// stay fixed — valid because dispatch sequences never cross shards, so a
// subset of one shard's schedule composes with the others unchanged.
func shrinkSharded(f Failure) Failure {
	mix, ok := mixes[f.Scenario.Mix]
	if !ok || mix.Shards != len(f.Shards) {
		return f
	}
	scheds := append([]faults.Schedule(nil), f.Shards...)
	for k := range scheds {
		actions, msg := ddminActions(scheds[k].Actions, func(cand []faults.Action) (string, bool) {
			trial := append([]faults.Schedule(nil), scheds...)
			trial[k].Actions = cand
			rep := runShard(f.Scenario, mix, trial)
			if rep.Err != nil {
				return rep.Err.Error(), true
			}
			return "", false
		})
		scheds[k].Actions = actions
		if msg != "" {
			f.Err = msg
		}
	}
	f.Shards = scheds
	return f
}
