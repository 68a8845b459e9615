package node

import (
	"context"
	"sync"
	"testing"
	"time"

	"adaptivetoken/internal/protocol"
)

// TestStopConcurrentWithTimersAndAcquires hammers the shutdown path: all
// runtimes stop at once while acquire loops and wall-clock protocol timers
// (hold rotation, re-search) are in flight. Stop must not deadlock, and no
// armed timer may survive it. Run under -race.
func TestStopConcurrentWithTimersAndAcquires(t *testing.T) {
	rts, _ := cluster(t, liveConfig(4))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, rt := range rts {
		wg.Add(1)
		go func(rt *Runtime) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
				if err := rt.Acquire(ctx); err == nil {
					rt.Release()
				}
				cancel()
			}
		}(rt)
	}

	// Let the cluster churn: grants, releases, rotation timers.
	time.Sleep(30 * time.Millisecond)

	// Stop every runtime concurrently with the still-running acquire
	// loops and whatever timers are about to fire.
	var sg sync.WaitGroup
	for _, rt := range rts {
		sg.Add(1)
		go func(rt *Runtime) {
			defer sg.Done()
			rt.Stop()
		}(rt)
	}
	done := make(chan struct{})
	go func() { sg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop deadlocked against in-flight timers/acquires")
	}

	close(stop)
	wg.Wait()

	for i, rt := range rts {
		if n := rt.PendingTimers(); n != 0 {
			t.Errorf("node %d leaked %d timers after Stop", i, n)
		}
		if err := rt.Acquire(context.Background()); err != ErrStopped {
			t.Errorf("node %d: Acquire after Stop = %v, want ErrStopped", i, err)
		}
	}
}

// TestStopIsIdempotentUnderConcurrency: many concurrent Stops are one Stop.
func TestStopIsIdempotentUnderConcurrency(t *testing.T) {
	rts, _ := cluster(t, liveConfig(2))
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rts[1].Stop()
		}()
	}
	wg.Wait()
	if n := rts[1].PendingTimers(); n != 0 {
		t.Errorf("leaked %d timers", n)
	}
}

// TestTimersDoNotAccumulateWithGrants pins the live timer leak: with
// core.NewLiveNode's configuration every request arms a research timer of
// 2,000 units and a recovery timer of 10,000, which outlive the grant by
// seconds. They used to stay armed until they fired, about two per cycle;
// the clock now cancels them when the next request supersedes them, so the
// armed set stays a handful however many grants have gone by.
func TestTimersDoNotAccumulateWithGrants(t *testing.T) {
	rts, _ := clusterWithUnit(t, protocol.Config{
		Variant:         protocol.BinarySearch,
		N:               4,
		HoldIdle:        5,
		TrapGC:          protocol.GCRotation,
		ResearchTimeout: 2000,
		RecoveryTimeout: 10000,
	}, time.Millisecond)
	// Per runtime: the latest hold, research and recovery timers, and the
	// ones that fired and are waiting for the runtime lock.
	const bound = 8
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const cycles = 10000
	for k := 0; k < cycles; k++ {
		rt := rts[2*(k%2)] // nodes 0 and 2 in turn: every grant fetches the token
		if err := rt.Acquire(ctx); err != nil {
			t.Fatalf("cycle %d: %v", k, err)
		}
		rt.Release()
		if k%1000 == 999 {
			for i, rt := range rts {
				if n := rt.PendingTimers(); n > bound {
					t.Fatalf("after %d cycles node %d has %d timers armed, want <= %d", k+1, i, n, bound)
				}
			}
		}
	}
	for i, rt := range rts {
		rt.Stop()
		if n := rt.PendingTimers(); n != 0 {
			t.Errorf("node %d: %d timers armed after Stop", i, n)
		}
	}
}
