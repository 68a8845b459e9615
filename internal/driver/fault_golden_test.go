package driver_test

import (
	"fmt"
	"os"
	"testing"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/workload"
)

// Fault-path golden traces: lossy transport and pause storms, two seeds
// each. Together with TestGoldenTrace (clean runs) and TestChurnGoldenTrace
// (membership), these pin every driver bookkeeping path that the per-node
// state compaction touched — the paused set, the held-delivery queues, the
// token-holder mirror and re-search timers — so a representation change
// that perturbs even one delivery or timer fails loudly. Regenerate (only
// for a deliberate semantic change) with
// GOLDEN_TRACE_PRINT=1 go test -run TestFaultGoldenTrace ./internal/driver/.
var goldenFaultTraces = map[string]uint64{
	"lossy/seed1":       0xf7b1f21330319fc9,
	"lossy/seed2":       0x21c1f8a11bfb86a3,
	"pause-storm/seed1": 0xa7db8ee39da45019,
	"pause-storm/seed2": 0x0edf8b1349e164af,
}

// faultScenario describes one golden fault shape over a 16-node ring.
type faultScenario struct {
	name    string
	variant protocol.Variant
	plan    faults.Plan
	// disarm drops the single-token invariant: recovery regeneration
	// while the original holder is merely paused legitimately doubles the
	// count until the stale token dies on its first post-resume hop.
	disarm bool
}

func faultScenarios() []faultScenario {
	return []faultScenario{
		{
			// Cheap-message loss, duplication and jitter: searches vanish
			// and re-issue, probe replies arrive twice and out of order.
			name:    "lossy",
			variant: protocol.LinearSearch,
			plan: faults.Plan{
				Seed:       9,
				DropCheap:  0.08,
				DupCheap:   0.05,
				JitterProb: 0.25,
				JitterMax:  5,
			},
		},
		{
			// Overlapping pause windows, including nodes that hold traps
			// and one likely token path: deliveries queue in the held
			// buffers and drain at resume, recovery re-arms around the
			// frozen holder.
			name:    "pause-storm",
			variant: protocol.BinarySearch,
			plan: faults.Plan{
				Pauses: []faults.Pause{
					{Node: 3, At: 150, Dur: 400},
					{Node: 7, At: 300, Dur: 600},
					{Node: 11, At: 500, Dur: 350},
					{Node: 3, At: 1200, Dur: 250},
				},
			},
			disarm: true,
		},
	}
}

// TestFaultGoldenTrace pins the faulty-run observable behavior — held-queue
// drain order, pause/resume fault events, re-search timing — to recorded
// digests.
func TestFaultGoldenTrace(t *testing.T) {
	print := os.Getenv("GOLDEN_TRACE_PRINT") != ""
	for _, sc := range faultScenarios() {
		for _, seed := range []uint64{1, 2} {
			key := fmt.Sprintf("%s/seed%d", sc.name, seed)
			cfg := protocol.Config{
				Variant:         sc.variant,
				N:               16,
				TrapGC:          protocol.GCRotation,
				ResearchTimeout: 120,
				RecoveryTimeout: 150,
			}
			inj, err := faults.NewInjector(sc.plan)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			dig := newTraceDigest()
			r, err := driver.New(cfg, driver.Options{Seed: seed, Observer: dig, Faults: inj})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if sc.disarm {
				r.DisarmInvariant()
			}
			if _, err := r.RunWorkload(workload.Poisson{N: cfg.N, MeanGap: 25}, 200, 500_000); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if print {
				fmt.Printf("\t%q: %#016x,\n", key, dig.h)
				continue
			}
			want, ok := goldenFaultTraces[key]
			if !ok {
				t.Fatalf("%s: no golden digest recorded", key)
			}
			if dig.h != want {
				t.Errorf("%s: fault trace digest %#016x, want %#016x — held-queue or fault bookkeeping diverged", key, dig.h, want)
			}
		}
	}
}

// TestNilFaultsIsTheZeroPlan: a run without Options.Faults injects nothing
// and is the run of an explicit zero-plan injector whatever that injector's
// seed — the zero plan never draws, which is why driver.New needs no seed
// for its default.
func TestNilFaultsIsTheZeroPlan(t *testing.T) {
	cfg := protocol.Config{Variant: protocol.BinarySearch, N: 16, TrapGC: protocol.GCRotation}
	run := func(inj *faults.Injector) uint64 {
		dig := newTraceDigest()
		r, err := driver.New(cfg, driver.Options{Seed: 7, Observer: dig, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		end, err := r.RunWorkload(workload.Poisson{N: cfg.N, MeanGap: 10}, 400, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		sched := r.FaultSchedule()
		if len(sched.Actions)+len(sched.Pauses)+len(sched.Churn) != 0 {
			t.Errorf("fault schedule not empty: %+v", sched)
		}
		msgs := r.Summarize(end).Messages
		if msgs["dropped"] != 0 || msgs["duplicated"] != 0 {
			t.Errorf("faults counted on a fault-free run: %v", msgs)
		}
		return dig.h
	}
	want := run(nil)
	for _, seed := range []uint64{1, 0xdecafbad} {
		inj, err := faults.NewInjector(faults.Plan{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := run(inj); got != want {
			t.Errorf("zero plan seeded %#x: digest %#016x, nil Faults %#016x", seed, got, want)
		}
	}
}
