package driver

import (
	"testing"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// TestCensusRules drives the census through scripted token histories, one
// applied step per op with a check after each, then applies the end rule.
// A history is the census's whole input: the stepping node re-counted, and
// token-bearing messages put on the wire or taken off it.
func TestCensusRules(t *testing.T) {
	type step func(*census)
	hold := func(node int, epoch uint64) step { // a grant, a mint or a relabel
		return func(c *census) { c.hold(node, true, epoch) }
	}
	pass := func(node int, epoch uint64, copies int) step { // copies on the wire
		return func(c *census) {
			for i := 0; i < copies; i++ {
				c.flight(epoch, +1)
			}
			c.hold(node, false, 0)
		}
	}
	arrive := func(node int, epoch uint64, keep bool) step { // keep false: discarded as stale
		return func(c *census) {
			c.flight(epoch, -1)
			c.hold(node, keep, epoch)
		}
	}
	crash := func(node int) step {
		return func(c *census) { c.crash(node) }
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  string // the census error, "" for a clean run
	}{
		{
			name:  "token hops",
			steps: []step{hold(0, 0), pass(0, 0, 1), arrive(1, 0, true), pass(1, 0, 1), arrive(2, 0, true)},
		},
		{
			// An unsafe fault puts one pass on the wire twice.
			name:  "duplicated token",
			steps: []step{hold(0, 0), pass(0, 0, 2)},
			want:  "driver: token count 2 at t=1",
		},
		{
			// An unsafe fault drops the pass: nothing has died, so the
			// token must not vanish.
			name:  "dropped token before any death",
			steps: []step{hold(0, 0), pass(0, 0, 0)},
			want:  "driver: token count 0 at t=1",
		},
		{
			// The holder dies; two deciders each mint epoch 1.
			name:  "same-epoch double mint",
			steps: []step{hold(0, 0), crash(0), hold(2, 1), hold(4, 1)},
			want:  "driver: 2 tokens in epoch 1 at t=3",
		},
		{
			// The holder is merely paused when epoch 1 is minted; at resume
			// its stale token moves on and is discarded on arrival.
			name:  "regenerated epoch beside a paused stale one",
			steps: []step{hold(3, 0), hold(6, 1), pass(3, 0, 1), arrive(4, 0, false)},
		},
		{
			// A stale holder adopts the new epoch without giving up its
			// token.
			name:  "stale holder relabeled",
			steps: []step{hold(7, 1), hold(0, 2), hold(7, 2)},
			want:  "driver: 2 tokens in epoch 2 at t=2",
		},
		{
			// The holder dies and nothing regenerates: every step is safe,
			// but the run may not end without a token.
			name:  "no token at the end",
			steps: []step{hold(0, 0), crash(0)},
			want:  "driver: token count 0 at the end of the run, t=2",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCensus()
			for i, s := range tc.steps {
				s(&c)
				c.check(sim.Time(i))
			}
			got := ""
			if err := c.end(sim.Time(len(tc.steps))); err != nil {
				got = err.Error()
			}
			if got != tc.want {
				t.Fatalf("census says %q, want %q", got, tc.want)
			}
		})
	}
}

// A run whose unsafe plan drops a token-bearing message trips the census at
// zero tokens, through the Runner's own accounting.
func TestUnsafeTokenDropTripsCensus(t *testing.T) {
	inj, err := faults.NewInjector(faults.Plan{Seed: 5, Unsafe: true, DropToken: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(protocol.Config{Variant: protocol.RingToken, N: 6}, Options{Seed: 3, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.RunWorkload(workload.Poisson{N: 6, MeanGap: 50}, 200, 1_000_000)
	if err == nil || err != r.InvariantErr() || r.TokenCount() != 0 {
		t.Fatalf("run ended with %v, census %v, %d tokens; want the census to catch the lost token",
			err, r.InvariantErr(), r.TokenCount())
	}
}
