package driver

import (
	"testing"

	"adaptivetoken/internal/protocol"
)

// TestIdleRingStepZeroAlloc pins the copy discipline where it runs: on a
// Runner, with every host hook set by New, one event of idle token
// circulation — engine dispatch, deliver gate, state machine, effects,
// invariant check, redelivery into the slab — allocates nothing. A message
// that escaped anywhere along that path would show up as one allocation per
// step.
func TestIdleRingStepZeroAlloc(t *testing.T) {
	for _, cfg := range []protocol.Config{
		{Variant: protocol.RingToken, N: 16},
		{Variant: protocol.BinarySearch, N: 16, TrapGC: protocol.GCRotation},
	} {
		t.Run(cfg.Variant.String(), func(t *testing.T) {
			r, err := New(cfg, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			eng := r.Engine()
			// Bootstrap and a few rotations, so slab, wheel and the host's
			// scratch effects reach steady capacity.
			eng.Drain(4 * cfg.N)
			allocs := testing.AllocsPerRun(1000, func() {
				if !eng.Step() {
					t.Fatal("idle ring ran out of events")
				}
			})
			if allocs != 0 {
				t.Fatalf("idle-ring Engine.Step allocates %.2f/event, want 0", allocs)
			}
			if err := r.InvariantErr(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
