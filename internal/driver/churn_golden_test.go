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

// Churn golden traces: three churn scenario shapes × two seeds. The digests
// cover every StepView step and join/leave/crash fault event, so any drift
// in view-propagation order, state-transfer stamps, or churn commit timing
// fails loudly. Regenerate (only for a deliberate
// semantic change) with GOLDEN_TRACE_PRINT=1 go test -run TestChurnGoldenTrace.
var goldenChurnTraces = map[string]uint64{
	"join-storm/seed1":  0xbb22dbf877a1b978,
	"join-storm/seed2":  0x8e4de05dfe01160f,
	"leave-storm/seed1": 0xa482578cf896e06d,
	"leave-storm/seed2": 0xe8b5d5e7143e49ec,
	"crash-regen/seed1": 0x93bd8f35e20dca3e,
	"crash-regen/seed2": 0x7f789c3aa5c44c19,
}

// churnScenario describes one golden churn shape over a 12-node ring.
type churnScenario struct {
	name    string
	variant protocol.Variant
	initial []int // nil = full ring
	churn   []faults.ChurnEvent
	recover protocol.Time // RecoveryTimeout, for crash shapes
}

func churnScenarios() []churnScenario {
	return []churnScenario{
		{
			// Half the ring joins in a staggered storm.
			name:    "join-storm",
			variant: protocol.RingToken,
			initial: []int{0, 1, 2, 3, 4, 5},
			churn: []faults.ChurnEvent{
				{Op: faults.ChurnJoin, Node: 6, At: 200},
				{Op: faults.ChurnJoin, Node: 7, At: 400},
				{Op: faults.ChurnJoin, Node: 8, At: 600},
				{Op: faults.ChurnJoin, Node: 9, At: 800},
				{Op: faults.ChurnJoin, Node: 10, At: 1000},
				{Op: faults.ChurnJoin, Node: 11, At: 1200},
			},
		},
		{
			// A third of the ring drains away gracefully.
			name:    "leave-storm",
			variant: protocol.LinearSearch,
			churn: []faults.ChurnEvent{
				{Op: faults.ChurnLeave, Node: 3, At: 300},
				{Op: faults.ChurnLeave, Node: 7, At: 600},
				{Op: faults.ChurnLeave, Node: 11, At: 900},
				{Op: faults.ChurnLeave, Node: 5, At: 1200},
			},
		},
		{
			// Crashes force token regeneration through the election.
			name:    "crash-regen",
			variant: protocol.BinarySearch,
			churn: []faults.ChurnEvent{
				{Op: faults.ChurnCrash, Node: 4, At: 250},
				{Op: faults.ChurnCrash, Node: 9, At: 1500},
			},
			recover: 150,
		},
	}
}

func runChurnScenario(t *testing.T, sc churnScenario, seed uint64) uint64 {
	t.Helper()
	cfg := protocol.Config{Variant: sc.variant, N: 12, RecoveryTimeout: sc.recover}
	if sc.variant != protocol.RingToken {
		cfg.TrapGC = protocol.GCRotation
		cfg.ResearchTimeout = 120
	}
	inj, err := faults.NewInjector(faults.Plan{Churn: sc.churn})
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	dig := newTraceDigest()
	r, err := driver.New(cfg, driver.Options{
		Seed:           seed,
		Observer:       dig,
		Faults:         inj,
		InitialMembers: sc.initial,
	})
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	if _, err := r.RunWorkload(workload.Poisson{N: cfg.N, MeanGap: 40}, 120, 200_000); err != nil {
		// Crashed nodes may take their own pending requests to the grave;
		// unserved-by-death is scenario noise, not a digest failure.
		t.Fatalf("%s/seed%d: %v", sc.name, seed, err)
	}
	return dig.h
}

// TestChurnGoldenTrace pins the churn engine's full observable behavior —
// StepView ordering, membership fault events, regeneration message flow —
// to recorded digests.
func TestChurnGoldenTrace(t *testing.T) {
	print := os.Getenv("GOLDEN_TRACE_PRINT") != ""
	for _, sc := range churnScenarios() {
		for _, seed := range []uint64{1, 2} {
			key := fmt.Sprintf("%s/seed%d", sc.name, seed)
			got := runChurnScenario(t, sc, seed)
			if print {
				fmt.Printf("\t%q: %#016x,\n", key, got)
				continue
			}
			want, ok := goldenChurnTraces[key]
			if !ok {
				t.Fatalf("%s: no golden digest recorded", key)
			}
			if got != want {
				t.Errorf("%s: churn trace digest %#016x, want %#016x — view propagation or regeneration flow diverged", key, got, want)
			}
		}
	}
}

// TestChurnReplayDeterminism records a churn run's fault schedule and
// replays it: the replayed trace must digest identically — the property
// ddmin shrinking and artifact replay stand on.
func TestChurnReplayDeterminism(t *testing.T) {
	sc := churnScenarios()[2] // crash-regen: exercises elections too
	cfg := protocol.Config{
		Variant: sc.variant, N: 12, RecoveryTimeout: sc.recover,
		TrapGC: protocol.GCRotation, ResearchTimeout: 120,
	}
	run := func(inj *faults.Injector) (uint64, faults.Schedule) {
		dig := newTraceDigest()
		r, err := driver.New(cfg, driver.Options{Seed: 1, Observer: dig, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunWorkload(workload.Poisson{N: cfg.N, MeanGap: 40}, 120, 200_000); err != nil {
			t.Fatal(err)
		}
		return dig.h, r.FaultSchedule()
	}
	inj, err := faults.NewInjector(faults.Plan{Churn: sc.churn, DropCheap: 0.05, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	first, sched := run(inj)
	if len(sched.Churn) != len(sc.churn) {
		t.Fatalf("schedule recorded %d churn events, want %d", len(sched.Churn), len(sc.churn))
	}
	second, _ := run(faults.Replay(sched))
	if first != second {
		t.Fatalf("replay diverged: %#016x vs %#016x", first, second)
	}
}
