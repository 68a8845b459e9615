package tobcast

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"adaptivetoken/internal/node"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/transport"
)

func testRing(t *testing.T, n int) []*Broadcaster {
	t.Helper()
	cfg := protocol.Config{
		Variant:         protocol.BinarySearch,
		N:               n,
		HoldIdle:        2,
		ResearchTimeout: 500,
	}
	cn, err := transport.NewChannelNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	bs := make([]*Broadcaster, n)
	rts := make([]*node.Runtime, n)
	for i := 0; i < n; i++ {
		p, err := protocol.New(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := node.NewRuntime(p, cn.Endpoint(i), 100*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
		bs[i] = New(rt, n)
		rt.Start()
	}
	rts[0].Bootstrap()
	t.Cleanup(func() {
		cn.Close()
		for _, rt := range rts {
			rt.Stop()
		}
	})
	return bs
}

func waitDelivered(t *testing.T, bs []*Broadcaster, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, b := range bs {
			if b.Delivered() < want {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			for i, b := range bs {
				t.Logf("node %d: delivered=%d", i, b.Delivered())
			}
			t.Fatalf("timeout waiting for %d deliveries", want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPublishAssignsGaplessSequence(t *testing.T) {
	bs := testRing(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var seqs []uint64
	for i := 0; i < 6; i++ {
		seq, err := bs[i%3].Publish(ctx, fmt.Sprintf("m%d", i))
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs = %v, want 1..6 gapless", seqs)
		}
	}
	waitDelivered(t, bs, 6)
}

func TestAllNodesDeliverSameOrder(t *testing.T) {
	const n = 4
	bs := testRing(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	const perNode = 6
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perNode; k++ {
				if _, err := bs[i].Publish(ctx, fmt.Sprintf("p%d-%d", i, k)); err != nil {
					t.Errorf("node %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitDelivered(t, bs, n*perNode)

	ref := bs[0].Log()
	if len(ref) != n*perNode {
		t.Fatalf("node 0 logged %d entries, want %d", len(ref), n*perNode)
	}
	for i := 1; i < n; i++ {
		if !slices.Equal(ref, bs[i].Log()) {
			t.Fatalf("node %d order diverges", i)
		}
	}
}

func TestSubscribersSeeInOrderDelivery(t *testing.T) {
	bs := testRing(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var mu sync.Mutex
	var got []uint64
	bs[1].Subscribe(func(e Entry) {
		mu.Lock()
		got = append(got, e.Seq)
		mu.Unlock()
	})
	for i := 0; i < 5; i++ {
		if _, err := bs[0].Publish(ctx, "x"); err != nil {
			t.Fatal(err)
		}
	}
	waitDelivered(t, bs, 5)
	mu.Lock()
	defer mu.Unlock()
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("subscriber saw %v", got)
		}
	}
}

// TestMembershipOverTotalOrder drives the §5 dynamic-membership sketch end
// to end: view changes published through the total order converge to the
// same view at every node. Each node folds the changes into a sorted member
// set whose epoch counts the changes that took effect.
func TestMembershipOverTotalOrder(t *testing.T) {
	const n = 3
	bs := testRing(t, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	type view struct {
		seen    int // entries folded
		epoch   int
		members []int
	}
	var mu sync.Mutex
	views := make([]view, n)
	for i := 0; i < n; i++ {
		views[i].members = []int{0, 1, 2}
		bs[i].Subscribe(func(e Entry) {
			mu.Lock()
			defer mu.Unlock()
			v := &views[i]
			v.seen++
			var who int
			if _, err := fmt.Sscanf(e.Payload, "join %d", &who); err == nil {
				if at, in := slices.BinarySearch(v.members, who); !in {
					v.members = slices.Insert(v.members, at, who)
					v.epoch++
				}
			} else if _, err := fmt.Sscanf(e.Payload, "leave %d", &who); err == nil {
				if at, in := slices.BinarySearch(v.members, who); in {
					v.members = slices.Delete(v.members, at, at+1)
					v.epoch++
				}
			}
		})
	}

	for _, cmd := range []string{"join 7", "leave 1", "join 9", "leave 7"} {
		if _, err := bs[0].Publish(ctx, cmd); err != nil {
			t.Fatal(err)
		}
	}
	// Delivered counts an entry before the subscribers run, so wait for
	// the folds themselves.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		mu.Lock()
		done := true
		for _, v := range views {
			done = done && v.seen == 4
		}
		if done {
			break // mu stays locked for the checks below
		}
		mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for every node to fold 4 changes")
		}
	}
	defer mu.Unlock()
	want := views[0]
	if want.epoch != 4 || !slices.Equal(want.members, []int{0, 2, 9}) {
		t.Fatalf("final view = %+v, want epoch 4 members [0 2 9]", want)
	}
	for i := 1; i < n; i++ {
		if got := views[i]; got.epoch != want.epoch || !slices.Equal(got.members, want.members) {
			t.Fatalf("node %d view %+v != %+v", i, got, want)
		}
	}
}

func TestNextSeqFallsBackToMaxSeen(t *testing.T) {
	bs := testRing(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := bs[0].Publish(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	waitDelivered(t, bs, 1)
	// Simulate a token whose attachment was lost (regeneration): clear
	// it while holding, then publish — the maxSeen fallback must keep
	// the sequence gapless.
	seq, err := bs[1].Publish(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("seq = %d, want 2", seq)
	}
}
