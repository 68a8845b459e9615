package bench

import (
	"fmt"
	"reflect"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/shard"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// The sharded Figure-9 sweep: a fixed aggregate load (one request per 10
// time units over 128 keys) served by 1, 2, 4 or 8 BinarySearch rings.
// Total membership is constant — what varies is how many independent
// tokens circulate.
const (
	shardTotalNodes = 128
	shardMeanGap    = 10.0
)

var shardCounts = []int{1, 2, 4, 8}

// ShardResult aggregates one sharded run.
type ShardResult struct {
	Shards int
	// Resp summarizes the Definition-3 responsiveness intervals pooled
	// across every shard — the aggregate view a client population sees.
	Resp   metrics.Summary
	Grants int
	Issued int
	// SimEvents and TotalMessages sum over shards; EndTime is the slowest
	// shard's simulated end.
	SimEvents     int
	TotalMessages int64
	EndTime       sim.Time
	PerShard      []driver.Result
}

// RunSharded serves opts.Requests keyed requests at a fixed aggregate load
// (mean gap meanGap across the whole keyspace) on a cluster of shards
// rings with totalNodes/shards members each, fanning the shard runs across
// the cluster's own worker pool (sized by the options' parallelism).
// Shards are deterministic in isolation, so the result is identical at
// every parallelism level.
func RunSharded(opts Options, shards, totalNodes int, meanGap float64) (ShardResult, error) {
	opts = opts.withDefaults()
	if shards < 1 || totalNodes%shards != 0 {
		return ShardResult{}, fmt.Errorf("bench: %d nodes do not split over %d shards", totalNodes, shards)
	}
	nodes := totalNodes / shards
	c, err := shard.NewCluster(shard.Config{
		Shards:   shards,
		Nodes:    nodes,
		Protocol: figureConfig(protocol.BinarySearch, nodes),
		Seed:     opts.Seed,
		Parallel: workers(opts.Parallelism, shards),
	})
	if err != nil {
		return ShardResult{}, err
	}
	results, err := c.RunAll(shard.TakeKeyed(opts.Seed, totalNodes, meanGap, opts.Requests), opts.MaxTime)
	if err != nil {
		return ShardResult{}, err
	}
	// Stats totals fold in after the join, in shard order — the benchmark
	// record never depends on worker scheduling.
	for _, res := range results {
		opts.Stats.record(res)
	}

	agg := ShardResult{Shards: shards, PerShard: results}
	var pooled []float64
	for k, res := range results {
		agg.Grants += res.Grants
		agg.Issued += res.Issued
		agg.SimEvents += res.SimEvents
		agg.TotalMessages += res.TotalMessages
		if res.EndTime > agg.EndTime {
			agg.EndTime = res.EndTime
		}
		pooled = append(pooled, c.Shard(k).Resp.Samples()...)
	}
	agg.Resp = metrics.Summarize(pooled)
	return agg, nil
}

// figure9Shard is the sharded Figure-9 experiment: aggregate
// responsiveness versus shard count at fixed total load and fixed total
// membership. With one shard it is exactly the unsharded BinarySearch run
// (ShardParity machine-checks that); each doubling halves the ring every
// token serves, so both the search cost (log n/K) and the queueing behind
// one token shrink.
func figure9Shard(opts Options) (Table, error) {
	t := Table{
		Name:   fmt.Sprintf("Sharded Figure 9 — aggregate responsiveness vs shard count (%d nodes total, mean gap %g)", shardTotalNodes, shardMeanGap),
		XLabel: "shards",
		Series: []string{"resp-mean", "resp-p99", "msgs-per-grant", "events"},
	}
	for _, k := range shardCounts {
		res, err := RunSharded(opts, k, shardTotalNodes, shardMeanGap)
		if err != nil {
			return t, fmt.Errorf("shards=%d: %w", k, err)
		}
		grants := res.Grants
		if grants == 0 {
			grants = 1
		}
		t.Points = append(t.Points, Point{X: float64(res.Shards), Y: map[string]float64{
			"resp-mean":      res.Resp.Mean,
			"resp-p99":       res.Resp.P99,
			"msgs-per-grant": float64(res.TotalMessages) / float64(grants),
			"events":         float64(res.SimEvents),
		}})
	}
	return t, nil
}

// ShardParity reports whether a 1-shard sharded run reproduces the plain
// unsharded driver run byte for byte — same grants, end time, event count,
// per-kind message counts and responsiveness summary: the sharded layer
// must be a strict generalization of the single-ring harness.
func ShardParity(opts Options, totalNodes int, meanGap float64) (bool, error) {
	opts = opts.withDefaults()
	opts.Stats = nil // comparison runs must not double-count benchmark totals
	sharded, err := RunSharded(opts, 1, totalNodes, meanGap)
	if err != nil {
		return false, err
	}
	plain, err := runJob(Job{
		Cfg: figureConfig(protocol.BinarySearch, totalNodes),
		Gen: workload.Poisson{N: totalNodes, MeanGap: meanGap},
	}, opts)
	if err != nil {
		return false, err
	}
	return reflect.DeepEqual(sharded.PerShard[0], plain), nil
}
