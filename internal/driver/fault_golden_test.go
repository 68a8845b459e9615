package driver_test

import (
	"fmt"
	"os"
	"reflect"
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
	"pause-storm/seed2": 0x19bf0e36cd987f51,
}

// goldenFaultErrs are the census verdicts golden runs end with; every other
// run must succeed. TestFalseSuspicionSameEpochMint explains this one.
var goldenFaultErrs = map[string]string{
	"pause-storm/seed2": "driver: 2 tokens in epoch 2 at t=900",
}

// faultScenario describes one golden fault shape over a 16-node ring.
type faultScenario struct {
	name    string
	variant protocol.Variant
	plan    faults.Plan
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
		},
	}
}

// newFaultRun builds scenario sc's runner at seed under obs.
func newFaultRun(t *testing.T, sc faultScenario, seed uint64, obs driver.Observer) *driver.Runner {
	t.Helper()
	cfg := protocol.Config{
		Variant:         sc.variant,
		N:               16,
		TrapGC:          protocol.GCRotation,
		ResearchTimeout: 120,
		RecoveryTimeout: 150,
	}
	inj, err := faults.NewInjector(sc.plan)
	if err != nil {
		t.Fatal(err)
	}
	r, err := driver.New(cfg, driver.Options{Seed: seed, Observer: obs, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// faultWorkload is every fault scenario's request load.
var faultWorkload = workload.Poisson{N: 16, MeanGap: 25}

// TestFaultGoldenTrace pins the faulty-run observable behavior — held-queue
// drain order, pause/resume fault events, re-search timing — and the census
// verdict to recorded digests.
func TestFaultGoldenTrace(t *testing.T) {
	print := os.Getenv("GOLDEN_TRACE_PRINT") != ""
	for _, sc := range faultScenarios() {
		for _, seed := range []uint64{1, 2} {
			key := fmt.Sprintf("%s/seed%d", sc.name, seed)
			dig := newTraceDigest()
			r := newFaultRun(t, sc, seed, dig)
			verdict := ""
			if _, err := r.RunWorkload(faultWorkload, 200, 500_000); err != nil {
				verdict = err.Error()
			}
			if want := goldenFaultErrs[key]; verdict != want {
				t.Fatalf("%s: run ended with %q, want %q", key, verdict, want)
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

// tokenArrivals records the token-bearing deliveries at one node, with the
// node's critical-section flag after each.
type tokenArrivals struct {
	r    *driver.Runner
	node int
	got  []string
}

func (a *tokenArrivals) OnStep(s driver.Step) {
	if s.Kind == driver.StepDeliver && s.Node == a.node && s.Msg.Kind.Expensive() {
		a.got = append(a.got, fmt.Sprintf("t=%d epoch=%d inCS=%v", s.At, s.Msg.Epoch, a.r.Node(a.node).InCS()))
	}
}

func (*tokenArrivals) OnFault(driver.FaultEvent) {}

// TestFalseSuspicionSameEpochMint pins the violation pause-storm/seed2 ends
// with: a known limitation of §5 regeneration (DESIGN.md §11) that the census
// exposes and this repository does not yet fix. Node 7 is paused over
// [300, 900). The epoch-1 token is passed to it at t=555 and parks in its
// held queue, so the recovery probes find no holder and node 0 mints epoch 2
// at t=776 — a false suspicion. That token reaches node 7 at t=784 and parks
// too. At resume node 7 is granted the epoch-1 token, and the epoch-2 token
// arrives inside its critical section: adoptEpoch relabels the held token as
// epoch 2, node 7 lends the newcomer to a trapped requester, and its release
// passes the relabeled one. Two epoch-2 tokens are then in flight, and the
// census trips at t=900.
func TestFalseSuspicionSameEpochMint(t *testing.T) {
	obs := &tokenArrivals{node: 7}
	r := newFaultRun(t, faultScenarios()[1], 2, obs)
	obs.r = r
	_, err := r.RunWorkload(faultWorkload, 200, 900)
	const want = "driver: 2 tokens in epoch 2 at t=900"
	if err == nil || err.Error() != want || r.InvariantErr() != err {
		t.Fatalf("run ended with %v (census %v), want %q", err, r.InvariantErr(), want)
	}
	last := []string{"t=900 epoch=1 inCS=true", "t=900 epoch=2 inCS=true"}
	if n := len(obs.got); n < 2 || !reflect.DeepEqual(obs.got[n-2:], last) {
		t.Fatalf("tokens arrived at node 7 as %q, want them to end %q", obs.got, last)
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
