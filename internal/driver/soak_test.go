package driver

import (
	"testing"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// TestSoakAllVariants is a randomized long-run: every variant × several
// seeds × mixed fault injection, with the single-token invariant checked at
// every step and full service required. Skipped in -short runs.
func TestSoakAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 48
	gens := []func(seed uint64) workload.Generator{
		func(uint64) workload.Generator { return workload.Poisson{N: n, MeanGap: 6} },
		func(uint64) workload.Generator { return workload.Poisson{N: n, MeanGap: 120} },
		func(uint64) workload.Generator {
			return &workload.Bursty{N: n, BurstSize: 10, WithinGap: 1, IdleGap: 500}
		},
		func(uint64) workload.Generator {
			return workload.Hotspot{N: n, MeanGap: 20, Hot: 7, HotFrac: 0.6}
		},
	}
	for _, cfg := range allVariants(n) {
		cfg := cfg
		cfg.TrapGC = protocol.GCRotation
		cfg.ResearchTimeout = 400
		t.Run(cfg.Variant.String(), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(1); seed <= 3; seed++ {
				for gi, mk := range gens {
					inj := mustInjector(t, faults.Plan{
						Seed: seed ^ seedSalt, DropCheap: 0.15, DupCheap: 0.10})
					r, err := New(cfg, Options{
						Seed:   seed,
						Faults: inj,
						CSTime: sim.Time(seed % 3),
						Delay:  sim.UniformDelay{Min: 1, Max: 3},
					})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := r.RunWorkload(mk(seed), 2000, 50_000_000); err != nil {
						t.Fatalf("seed %d gen %d: %v", seed, gi, err)
					}
					if err := r.InvariantErr(); err != nil {
						t.Fatalf("seed %d gen %d: %v", seed, gi, err)
					}
					if r.Grants() != r.Issued() {
						t.Fatalf("seed %d gen %d: grants %d != issued %d",
							seed, gi, r.Grants(), r.Issued())
					}
				}
			}
		})
	}
}
