package core

import (
	"context"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"adaptivetoken/internal/conformance"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/mutex"
	"adaptivetoken/internal/protocol"
)

// TestLiveConformanceAttachment runs the spec-conformance checker against a
// real concurrent cluster over the channel transport — the same checker the
// simulation driver uses, attached through the shared host layer. Every
// step of every node must refine the paper's spec system.
func TestLiveConformanceAttachment(t *testing.T) {
	const n = 3
	cfg := protocol.Config{
		Variant:         protocol.BinarySearch,
		N:               n,
		HoldIdle:        2,
		TrapGC:          protocol.GCNone,
		ResearchTimeout: 1000,
	}
	chk, err := conformance.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mirror cfg exactly: NewCluster's other defaults match it already.
	c, err := NewCluster(n,
		WithTimeUnit(100*time.Microsecond),
		WithTrapGC(protocol.GCNone),
		WithObserver(chk),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Sequential round-robin lock traffic; no canceled acquires (a
	// re-request while one is pending is outside the spec systems).
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			if err := c.Mutex(i).Lock(ctx); err != nil {
				t.Fatalf("round %d node %d: %v", round, i, err)
			}
			if err := c.Mutex(i).Unlock(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Stop all hosts first: afterwards the checker is quiescent and safe
	// to read.
	c.Close()
	if err := chk.Finish(); err != nil {
		t.Fatalf("live run violates the spec: %v", err)
	}
	if chk.Steps() == 0 {
		t.Fatal("checker saw no steps — observer not attached to the live path")
	}
	t.Logf("conformance checked %d live steps", chk.Steps())
}

// TestLiveGrantAllocs pins what a steady-state live grant allocates on a
// 4-node cluster, one client locking at nodes 0 and 2 in turn (the
// benchmark's closed loop): nothing, on either transport and under either
// trap GC. Requests, releases, grant signals and message boxes all reuse
// what the runtime already has; a transport copies what it carries, so every
// box goes back to the pool. The satisfaction record is written in place by
// the holder and moves with the token; a TCP endpoint refills the vector of
// a token it sent for the next one it reads.
//
// Under -race, sync.Pool drops a quarter of its Puts at random, so a grant
// here boxes a few of its messages afresh: the pin then allows one
// allocation more.
func TestLiveGrantAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		gc   protocol.GCMode
		tcp  bool
		max  float64
	}{
		{"none", protocol.GCNone, false, 0},
		{"rotation", protocol.GCRotation, false, 0},
		{"tcp-none", protocol.GCNone, true, 0},
		{"tcp-rotation", protocol.GCRotation, true, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var lockAt func(i int) *mutex.Mutex
			if c.tcp {
				nodes := tcpRing(t, 4, WithTrapGC(c.gc))
				lockAt = func(i int) *mutex.Mutex { return nodes[i].Mutex }
			} else {
				cl, err := NewCluster(4, WithTrapGC(c.gc))
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				lockAt = cl.Mutex
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			k := 0
			grant := func() {
				m := lockAt(2 * (k % 2))
				k++
				if err := m.Lock(ctx); err != nil {
					t.Fatal(err)
				}
				if err := m.Unlock(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 1000; i++ {
				grant()
			}
			max := c.max
			if raceEnabled() {
				max++
			}
			if n := testing.AllocsPerRun(2000, grant); n > max {
				t.Fatalf("%v allocs per live grant, want <= %v", n, max)
			}
		})
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestLiveFaultScheduleSeedReproducible: two live runs with the same fault
// plan seed record identical fault schedules. The token rotation of
// RingToken is a single causal chain, so the global dispatch sequence — and
// with it every seeded verdict — is deterministic even on wall clocks.
func TestLiveFaultScheduleSeedReproducible(t *testing.T) {
	record := func() faults.Schedule {
		c, err := NewCluster(3,
			WithVariant(protocol.RingToken),
			WithTimeUnit(100*time.Microsecond),
			WithFaults(faults.Plan{Seed: 21, JitterProb: 0.5, JitterMax: 3}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		// Let the token rotate; every pass is one injector draw.
		deadline := time.Now().Add(5 * time.Second)
		for len(c.FaultSchedule().Actions) < 40 {
			if time.Now().After(deadline) {
				t.Fatal("rotation recorded too few fault actions")
			}
			time.Sleep(5 * time.Millisecond)
		}
		c.Close()
		return c.FaultSchedule()
	}

	a, b := record(), record()
	// The runs stop at arbitrary wall times, so compare the common prefix:
	// determinism means one schedule is a prefix of the other.
	k := len(a.Actions)
	if len(b.Actions) < k {
		k = len(b.Actions)
	}
	if k < 40 {
		t.Fatalf("too few common actions: %d vs %d", len(a.Actions), len(b.Actions))
	}
	if !reflect.DeepEqual(a.Actions[:k], b.Actions[:k]) {
		t.Fatalf("same seed, diverging schedules:\n%+v\nvs\n%+v", a.Actions[:k], b.Actions[:k])
	}
}
