package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/mutex"
	"adaptivetoken/internal/node"
	"adaptivetoken/internal/protocol"
)

func newCluster(t *testing.T, n int, opts ...Option) *Cluster {
	t.Helper()
	opts = append([]Option{WithTimeUnit(100 * time.Microsecond)}, opts...)
	c, err := NewCluster(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Error("empty cluster must fail")
	}
	if _, err := NewCluster(3, WithVariant(protocol.Variant(99))); err == nil {
		t.Error("bad variant must fail")
	}
}

func TestClusterMutexRoundRobin(t *testing.T) {
	c := newCluster(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		m := c.Mutex(i)
		if err := m.Lock(ctx); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if _, held := c.Runtime(i).TryAttachment(); !held {
			t.Errorf("node %d should hold", i)
		}
		if err := m.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Mutex(0).Unlock(); err == nil {
		t.Error("double unlock must fail")
	}
}

func TestClusterMutexContention(t *testing.T) {
	c := newCluster(t, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var mu sync.Mutex
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				if err := c.Mutex(i).Lock(ctx); err != nil {
					t.Errorf("node %d: %v", i, err)
					return
				}
				mu.Lock()
				counter++
				mu.Unlock()
				if err := c.Mutex(i).Unlock(); err != nil {
					t.Errorf("node %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != 20 {
		t.Errorf("counter = %d, want 20", counter)
	}
}

func TestClusterTotalOrderBroadcast(t *testing.T) {
	const n = 4
	c := newCluster(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Every node publishes concurrently.
	var wg sync.WaitGroup
	const perNode = 5
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				if _, err := c.Broadcaster(i).Publish(ctx, fmt.Sprintf("m-%d-%d", i, k)); err != nil {
					t.Errorf("publish %d/%d: %v", i, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Everyone eventually delivers all n*perNode messages in the same
	// order.
	total := n * perNode
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for i := 0; i < n; i++ {
			if c.Broadcaster(i).Delivered() < total {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for i := 0; i < n; i++ {
				t.Logf("node %d delivered %d", i, c.Broadcaster(i).Delivered())
			}
			t.Fatal("timeout waiting for deliveries")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ref := c.Broadcaster(0).Log()
	for i := 1; i < n; i++ {
		logI := c.Broadcaster(i).Log()
		if len(logI) != len(ref) {
			t.Fatalf("node %d delivered %d, node 0 delivered %d", i, len(logI), len(ref))
		}
		if !slices.Equal(ref, logI) {
			t.Fatalf("node %d order diverges from node 0:\n%v\n%v", i, logI, ref)
		}
	}
}

func TestClusterSurvivesCheapLoss(t *testing.T) {
	c := newCluster(t, 4,
		WithFaults(faults.Plan{Seed: 11, DropCheap: 0.7}),
		WithResearchTimeout(50),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if err := c.Mutex(i).Lock(ctx); err != nil {
			t.Fatalf("node %d under loss: %v", i, err)
		}
		if err := c.Mutex(i).Unlock(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClusterVariantsWork(t *testing.T) {
	for _, v := range []protocol.Variant{
		protocol.RingToken, protocol.LinearSearch, protocol.DirectedSearch,
		protocol.PushProbe, protocol.Combined,
	} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			c := newCluster(t, 3, WithVariant(v))
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 3; i++ {
				if err := c.Mutex(i).Lock(ctx); err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
				if err := c.Mutex(i).Unlock(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestClusterOptionsApply(t *testing.T) {
	c := newCluster(t, 3,
		WithVariant(protocol.BinarySearch),
		WithHoldIdle(7),
		WithAdaptiveSpeed(1, 64),
		WithTrapGC(protocol.GCRotation),
		WithRecovery(5000),
	)
	cfg := c.Config()
	if cfg.HoldIdle != 7 || !cfg.AdaptiveSpeed || cfg.MaxHold != 64 ||
		cfg.TrapGC != protocol.GCRotation || cfg.RecoveryTimeout != 5000 {
		t.Errorf("config = %+v", cfg)
	}
	if c.Runtime(1).ID() != 1 {
		t.Error("accessors broken")
	}
}

// tcpRing starts an n-node TCP ring on loopback with dynamic ports; node 0
// bootstraps the token. The nodes close when the test ends.
func tcpRing(t *testing.T, n int, opts ...Option) []*LiveNode {
	t.Helper()
	opts = append([]Option{WithTimeUnit(100 * time.Microsecond), WithHoldIdle(2)}, opts...)
	nodes := make([]*LiveNode, n)
	t.Cleanup(func() {
		for _, ln := range nodes {
			if ln != nil {
				ln.Close()
			}
		}
	})
	// First pass: everyone listens on :0 with placeholder peer addrs.
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	var err error
	for i := 0; i < n; i++ {
		per := make([]string, n)
		copy(per, addrs)
		nodes[i], err = NewLiveNode(i, per, i == 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = nodes[i].Addr()
	}
	// Second pass: distribute the real addresses.
	for i, ln := range nodes {
		for j, a := range addrs {
			if i == j {
				continue
			}
			if err := ln.transport.SetPeerAddr(j, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nodes
}

func TestLiveNodeTCPRing(t *testing.T) {
	const n = 3
	nodes := tcpRing(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := nodes[i].Mutex.Lock(ctx); err != nil {
			t.Fatalf("node %d over TCP: %v", i, err)
		}
		if err := nodes[i].Mutex.Unlock(); err != nil {
			t.Fatal(err)
		}
	}
	if nodes[1].String() == "" {
		t.Error("empty node string")
	}
}

// TestLiveExclusionUnderDupAndDelay: one client per node locks concurrently
// while the fault plan duplicates and delays cheap messages, on a channel
// cluster and on a TCP ring. A duplicated message is two pooled boxes from
// one Deliver and a delayed one is a box held across a timer, so this is
// where a box freed twice or read after its free would show — under -race
// as a data race, and otherwise through the witness counter, which fails the
// test if two critical sections overlap. CI runs it with -race -count=10.
func TestLiveExclusionUnderDupAndDelay(t *testing.T) {
	const n = 4
	opts := []Option{WithFaults(faults.Plan{Seed: 5, DupCheap: 0.3, JitterProb: 0.3, JitterMax: 3})}
	t.Run("chan", func(t *testing.T) {
		c := newCluster(t, n, opts...)
		rts, ms := make([]*node.Runtime, n), make([]*mutex.Mutex, n)
		for i := range ms {
			rts[i], ms[i] = c.Runtime(i), c.Mutex(i)
		}
		lockConcurrently(t, rts, ms)
	})
	t.Run("tcp", func(t *testing.T) {
		rts, ms := make([]*node.Runtime, n), make([]*mutex.Mutex, n)
		for i, ln := range tcpRing(t, n, opts...) {
			rts[i], ms[i] = ln.Runtime, ln.Mutex
		}
		lockConcurrently(t, rts, ms)
	})
}

// lockConcurrently runs one goroutine per mutex, each taking its lock 20
// times, and fails if two of them were ever inside at once, or if the
// runtimes duplicated or delayed no message meanwhile.
func lockConcurrently(t *testing.T, rts []*node.Runtime, ms []*mutex.Mutex) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var inside atomic.Int32
	var overlaps atomic.Int64
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if err := m.Lock(ctx); err != nil {
					t.Errorf("node %d lock %d: %v", i, k, err)
					return
				}
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				runtime.Gosched()
				inside.Add(-1)
				if err := m.Unlock(); err != nil {
					t.Errorf("node %d unlock %d: %v", i, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d critical sections overlapped another", n)
	}
	faulted := map[string]int64{}
	for _, rt := range rts {
		for kind, n := range rt.MsgStats() {
			faulted[kind] += n
		}
	}
	if faulted["duplicated"] == 0 || faulted["delayed"] == 0 {
		t.Fatalf("the fault plan never fired: %v", faulted)
	}
}
