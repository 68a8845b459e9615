package shard

import (
	"reflect"
	"testing"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

func binsearchCfg(n int) protocol.Config {
	return protocol.Config{Variant: protocol.BinarySearch, N: n, TrapGC: protocol.GCRotation}
}

const testMaxTime = sim.Time(2_000_000)

// TestOneShardParity is the sharded layer's golden gate: a 1-shard cluster
// must reproduce the unsharded driver run byte for byte — same grants,
// same event count, same responsiveness samples, same message mix.
func TestOneShardParity(t *testing.T) {
	const n, requests = 24, 400
	const seed, meanGap = uint64(7), 10.0

	plain, err := driver.New(binsearchCfg(n), driver.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	end, err := plain.RunWorkload(workload.Poisson{N: n, MeanGap: meanGap}, requests, testMaxTime)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Summarize(end)

	c, err := NewCluster(Config{Shards: 1, Nodes: n, Protocol: binsearchCfg(n), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.RunAll(TakeKeyed(seed, n, meanGap, requests), testMaxTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d results", len(got))
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("1-shard result diverges from unsharded run:\nsharded   %+v\nunsharded %+v", got[0], want)
	}
}

// TestMultiShardRun checks that a multi-shard cluster serves the full
// aggregate workload and routes every request to its key's shard; RunAll
// fails unless every shard's census holds.
func TestMultiShardRun(t *testing.T) {
	const shards, nodes, requests = 4, 8, 600
	c, err := NewCluster(Config{Shards: shards, Nodes: nodes, Protocol: binsearchCfg(nodes), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reqs := TakeKeyed(3, shards*nodes, 10, requests)
	per := c.Split(reqs)
	total := 0
	for k, list := range per {
		total += len(list)
		for _, r := range list {
			if r.Node < 0 || r.Node >= nodes {
				t.Fatalf("shard %d got out-of-ring node %d", k, r.Node)
			}
		}
	}
	if total != requests {
		t.Fatalf("split lost requests: %d of %d", total, requests)
	}
	results, err := c.RunAll(reqs, testMaxTime)
	if err != nil {
		t.Fatal(err)
	}
	grants := 0
	for _, res := range results {
		grants += res.Grants
	}
	issued := 0
	for _, res := range results {
		issued += res.Issued
	}
	if grants != issued {
		t.Fatalf("grants %d != issued %d", grants, issued)
	}
}

// TestShardScheduleReplay is the satellite-2 determinism check: schedules
// recorded per shard under a lossy plan replay to an identical outcome,
// because each shard's injector namespaces its own dispatch sequence.
func TestShardScheduleReplay(t *testing.T) {
	const shards, nodes, requests = 3, 8, 300
	cfg := binsearchCfg(nodes)
	cfg.ResearchTimeout = 150

	base := Config{Shards: shards, Nodes: nodes, Protocol: cfg, Seed: 11}
	rec := base
	rec.Plans = ShardPlans(faults.Plan{Seed: 99, DropCheap: 0.15, DupCheap: 0.1}, shards, 0, 1, 2)

	recorded, err := NewCluster(rec)
	if err != nil {
		t.Fatal(err)
	}
	reqs := TakeKeyed(base.Seed, shards*nodes, 10, requests)
	want, err := recorded.RunAll(reqs, testMaxTime)
	if err != nil {
		t.Fatal(err)
	}
	scheds := recorded.Schedules()
	acted := 0
	for _, s := range scheds {
		acted += len(s.Actions)
	}
	if acted == 0 {
		t.Fatal("lossy plan recorded no actions")
	}

	rep := base
	rep.Replay = scheds
	replayed, err := NewCluster(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.RunAll(reqs, testMaxTime)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay diverged:\nreplayed %+v\nrecorded %+v", got, want)
	}
}

// TestShardFaultNamespacing: a plan on shard 0 only must leave the other
// shards' runs byte-identical to a fully clean cluster — fault injection
// cannot leak across shard boundaries.
func TestShardFaultNamespacing(t *testing.T) {
	const shards, nodes, requests = 3, 8, 300
	cfg := binsearchCfg(nodes)
	cfg.ResearchTimeout = 150
	base := Config{Shards: shards, Nodes: nodes, Protocol: cfg, Seed: 5}
	reqs := TakeKeyed(base.Seed, shards*nodes, 10, requests)

	clean, err := NewCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.RunAll(reqs, testMaxTime)
	if err != nil {
		t.Fatal(err)
	}

	faulty := base
	faulty.Plans = ShardPlans(faults.Plan{Seed: 42, DropCheap: 0.2, DupCheap: 0.1}, shards, 0)
	dirty, err := NewCluster(faulty)
	if err != nil {
		t.Fatal(err)
	}
	dirtyRes, err := dirty.RunAll(reqs, testMaxTime)
	if err != nil {
		t.Fatal(err)
	}

	scheds := dirty.Schedules()
	if len(scheds[0].Actions) == 0 {
		t.Fatal("shard 0 plan recorded no actions")
	}
	for k := 1; k < shards; k++ {
		if len(scheds[k].Actions) != 0 {
			t.Fatalf("fault actions leaked into shard %d: %+v", k, scheds[k].Actions)
		}
		if !reflect.DeepEqual(dirtyRes[k], cleanRes[k]) {
			t.Fatalf("shard %d result changed by shard 0's faults:\nfaulty %+v\nclean  %+v", k, dirtyRes[k], cleanRes[k])
		}
	}
}

func TestShardPlans(t *testing.T) {
	plans := ShardPlans(faults.Plan{Seed: 9, DropCheap: 0.5}, 4, 2)
	for k, p := range plans {
		if k == 2 {
			if p.DropCheap != 0.5 || p.Seed != ShardSeed(9, 2) {
				t.Fatalf("faulty shard plan wrong: %+v", p)
			}
			continue
		}
		if !reflect.DeepEqual(p, faults.Plan{}) {
			t.Fatalf("shard %d got a non-zero plan: %+v", k, p)
		}
	}
}

func TestClusterRejects(t *testing.T) {
	if _, err := NewCluster(Config{Shards: 0, Nodes: 4}); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := NewCluster(Config{Shards: 2, Nodes: 4, Protocol: binsearchCfg(4), Plans: make([]faults.Plan, 1)}); err == nil {
		t.Fatal("plan/shard count mismatch accepted")
	}
}
