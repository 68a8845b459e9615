package mutex

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"adaptivetoken/internal/node"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/transport"
)

func testCluster(t *testing.T, n int) []*Mutex {
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
	muxes := make([]*Mutex, n)
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
		muxes[i] = New(rt)
		rt.Start()
	}
	rts[0].Bootstrap()
	t.Cleanup(func() {
		cn.Close()
		for _, rt := range rts {
			rt.Stop()
		}
	})
	return muxes
}

func TestLockUnlock(t *testing.T) {
	muxes := testCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, m := range muxes {
		if err := m.Lock(ctx); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if _, held := m.rt.TryAttachment(); !held {
			t.Errorf("node %d should hold the token", i)
		}
		if err := m.Unlock(); err != nil {
			t.Fatal(err)
		}
		if err := m.Unlock(); !errors.Is(err, ErrNotHeld) {
			t.Errorf("node %d: second Unlock = %v, want ErrNotHeld", i, err)
		}
	}
}

func TestUnlockWithoutLock(t *testing.T) {
	muxes := testCluster(t, 2)
	if err := muxes[0].Unlock(); !errors.Is(err, ErrNotHeld) {
		t.Errorf("err = %v, want ErrNotHeld", err)
	}
}

func TestLocalGoroutinesSerialize(t *testing.T) {
	muxes := testCluster(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var mu sync.Mutex
	inCS, maxInCS := 0, 0
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if err := muxes[0].Lock(ctx); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				inCS++
				if inCS > maxInCS {
					maxInCS = inCS
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inCS--
				mu.Unlock()
				if err := muxes[0].Unlock(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if maxInCS != 1 {
		t.Errorf("local serialization broken: %d concurrent", maxInCS)
	}
}

func TestLockCanceledContext(t *testing.T) {
	muxes := testCluster(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := muxes[1].Lock(ctx); err == nil {
		muxes[1].Unlock()
		t.Skip("won the token before cancellation could be observed")
	}
	// The local queue slot must have been restored.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel2()
	if err := muxes[1].Lock(ctx2); err != nil {
		t.Fatalf("lock after canceled lock: %v", err)
	}
	muxes[1].Unlock()
}
