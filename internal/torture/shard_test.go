package torture

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/shard"
)

// TestShardMixesPass: every safe sharded family must pass — per-shard
// census, liveness and all — across a few seeds.
func TestShardMixesPass(t *testing.T) {
	for _, mixName := range SweepShardMixes() {
		for seed := uint64(1); seed <= 3; seed++ {
			sc := Scenario{Variant: "binsearch", Mix: mixName, Seed: seed}
			rep := Run(sc, nil)
			if rep.Err != nil {
				t.Errorf("%s seed=%d: %v", mixName, seed, rep.Err)
			}
			if rep.Grants == 0 {
				t.Errorf("%s seed=%d: no grants", mixName, seed)
			}
			if len(rep.Shards) == 0 {
				t.Errorf("%s seed=%d: no per-shard schedules recorded", mixName, seed)
			}
		}
	}
}

// TestShardReplayDeterminism is the satellite replay test: a sharded run's
// recorded per-shard schedules replay to the identical outcome.
func TestShardReplayDeterminism(t *testing.T) {
	sc := Scenario{Variant: "binsearch", Mix: "shard-lossy", Seed: 4}
	rec := Run(sc, nil)
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	acted := 0
	for _, s := range rec.Shards {
		acted += len(s.Actions)
	}
	if acted == 0 {
		t.Fatal("shard-lossy recorded no fault actions")
	}
	rep := RunShardReplay(sc, rec.Shards)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Grants != rec.Grants || !reflect.DeepEqual(rep.Shards, rec.Shards) {
		t.Fatalf("replay diverged: grants %d vs %d", rep.Grants, rec.Grants)
	}
}

// TestShardDupBugCaught: the planted token-duplication bug in shard 0 must
// be caught by the per-shard census, attributed to shard 0, shrink to a
// smaller per-shard schedule, and reproduce from the written artifact.
func TestShardDupBugCaught(t *testing.T) {
	var failing Report
	found := false
	for seed := uint64(1); seed <= 12 && !found; seed++ {
		sc := Scenario{Variant: "binsearch", Mix: "shard-dup-bug", Seed: seed, Requests: 24}
		if rep := Run(sc, nil); rep.Err != nil {
			failing, found = rep, true
		}
	}
	if !found {
		t.Fatal("planted duplication bug never violated the census")
	}
	if !strings.Contains(failing.Err.Error(), "shard 0") {
		t.Fatalf("violation not attributed to shard 0: %v", failing.Err)
	}

	f := Failure{Scenario: failing.Scenario, Shards: failing.Shards, Err: failing.Err.Error()}
	shrunk := Shrink(f)
	before, after := 0, 0
	for i := range f.Shards {
		before += len(f.Shards[i].Actions)
		after += len(shrunk.Shards[i].Actions)
	}
	if after > before {
		t.Fatalf("shrink grew the schedule: %d -> %d", before, after)
	}
	if rep := shrunk.Reproduce(); rep.Err == nil {
		t.Fatal("shrunk sharded artifact no longer reproduces")
	}

	dir := t.TempDir()
	path, err := WriteArtifact(dir, shrunk)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(filepath.Join(dir, filepath.Base(path)))
	if err != nil {
		t.Fatal(err)
	}
	if rep := loaded.Reproduce(); rep.Err == nil {
		t.Fatal("loaded sharded artifact no longer reproduces")
	}
}

// TestShardIsolationKill is the shard-isolation torture test: killing
// shard 0's token holder must leave the other shards' responsiveness
// samples byte-identical to a fully clean run, while shard 0 itself
// recovers and serves its load.
func TestShardIsolationKill(t *testing.T) {
	const shards, nodes, requests = 3, 6, 48
	cfg := protocol.Config{
		Variant: protocol.BinarySearch, N: nodes, HoldIdle: 3,
		ResearchTimeout: 150, RecoveryTimeout: 150,
	}
	run := func(kill bool) *shard.Cluster {
		c, err := shard.NewCluster(shard.Config{
			Shards: shards, Nodes: nodes, Protocol: cfg, Seed: 7, CSTime: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		per := c.Split(shard.TakeKeyed(7, shards*nodes, 25, requests))
		if kill {
			// Node 0 bootstraps shard 0's token and holds it at t=5:
			// killing it kills the token, forcing §5 recovery.
			if err := c.Shard(0).Kill(5, 0); err != nil {
				t.Fatal(err)
			}
			kept := per[0][:0]
			for _, q := range per[0] {
				if q.Node != 0 {
					kept = append(kept, q)
				}
			}
			per[0] = kept
		}
		for k := 0; k < shards; k++ {
			if _, err := c.Run(k, per[k], 30_000); err != nil {
				t.Fatalf("kill=%v: %v", kill, err)
			}
		}
		return c
	}

	clean := run(false)
	killed := run(true)
	if g := killed.Shard(0).Grants(); g == 0 {
		t.Fatal("shard 0 served nothing after token loss — recovery never ran")
	}
	for k := 1; k < shards; k++ {
		a := clean.Shard(k).Resp.Samples()
		b := killed.Shard(k).Resp.Samples()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d responsiveness changed by shard 0's token kill:\nclean  %v\nkilled %v", k, a, b)
		}
	}
}
