package bench

import (
	"testing"
)

// TestShardParity is the acceptance gate: the 1-shard sharded run must be
// byte-identical to the plain unsharded run at the same scale.
func TestShardParity(t *testing.T) {
	opts := Options{Seed: 1, Requests: 600, MaxTime: 2_000_000}
	same, err := ShardParity(opts, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("1-shard run diverges from the unsharded driver")
	}
}

// TestFigure9ShardDeterministic checks the sharded experiment renders
// byte-identical tables at every parallelism level, like every other
// experiment in the harness.
func TestFigure9ShardDeterministic(t *testing.T) {
	opts := Options{Seed: 1, Requests: 400, MaxTime: 2_000_000}
	seq := opts
	seq.Parallelism = 1
	a, err := Run("fig9shard", seq)
	if err != nil {
		t.Fatal(err)
	}
	par := opts
	par.Parallelism = 4
	b, err := Run("fig9shard", par)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Fatalf("sharded table depends on parallelism:\nseq:\n%s\npar:\n%s", a.Format(), b.Format())
	}
	if len(a.Points) != len(shardCounts) {
		t.Fatalf("%d points, want %d", len(a.Points), len(shardCounts))
	}
}
