package node

import (
	"context"
	"sync"
	"testing"
	"time"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/transport"
)

// cluster builds n live runtimes on a channel network, bootstraps node 0,
// and returns a cleanup function.
func cluster(t *testing.T, cfg protocol.Config) ([]*Runtime, *transport.ChannelNetwork) {
	t.Helper()
	return clusterWithUnit(t, cfg, 100*time.Microsecond)
}

func clusterWithUnit(t *testing.T, cfg protocol.Config, unit time.Duration) ([]*Runtime, *transport.ChannelNetwork) {
	t.Helper()
	cn, err := transport.NewChannelNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	rts := make([]*Runtime, cfg.N)
	for i := 0; i < cfg.N; i++ {
		p, err := protocol.New(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(p, cn.Endpoint(i), unit)
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
		rt.Start()
	}
	rts[0].Bootstrap()
	t.Cleanup(func() {
		cn.Close()
		for _, rt := range rts {
			rt.Stop()
		}
	})
	return rts, cn
}

func liveConfig(n int) protocol.Config {
	return protocol.Config{
		Variant:         protocol.BinarySearch,
		N:               n,
		HoldIdle:        2, // keep the idle token from spinning madly
		ResearchTimeout: 500,
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(nil, nil, 0); err == nil {
		t.Error("nil args must fail")
	}
	cn, _ := transport.NewChannelNetwork(2)
	defer cn.Close()
	p, _ := protocol.New(1, liveConfig(2))
	if _, err := NewRuntime(p, cn.Endpoint(0), 0); err == nil {
		t.Error("id mismatch must fail")
	}
}

func TestAcquireReleaseSingleNode(t *testing.T) {
	rts, _ := cluster(t, liveConfig(1))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rts[0].Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if !rts[0].Proto().InCS() {
		t.Error("should be in CS")
	}
	rts[0].Release()
}

func TestAcquireAcrossRing(t *testing.T) {
	rts, _ := cluster(t, liveConfig(5))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Each node acquires in turn.
	for _, rt := range []*Runtime{rts[3], rts[1], rts[4], rts[0], rts[2]} {
		if err := rt.Acquire(ctx); err != nil {
			t.Fatalf("node %d: %v", rt.ID(), err)
		}
		rt.Release()
	}
}

func TestMutualExclusionUnderContention(t *testing.T) {
	const n = 6
	rts, _ := cluster(t, liveConfig(n))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var mu sync.Mutex
	inCS, maxInCS, entries := 0, 0, 0

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		rt := rts[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if err := rt.Acquire(ctx); err != nil {
					t.Errorf("node %d acquire: %v", rt.ID(), err)
					return
				}
				mu.Lock()
				inCS++
				entries++
				if inCS > maxInCS {
					maxInCS = inCS
				}
				mu.Unlock()

				time.Sleep(time.Millisecond)

				mu.Lock()
				inCS--
				mu.Unlock()
				rt.Release()
			}
		}()
	}
	wg.Wait()
	if maxInCS != 1 {
		t.Errorf("mutual exclusion violated: %d concurrent holders", maxInCS)
	}
	if entries != n*5 {
		t.Errorf("entries = %d, want %d", entries, n*5)
	}
}

func TestAcquireContextCancel(t *testing.T) {
	rts, _ := cluster(t, liveConfig(3))
	bg, cancelBG := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelBG()

	// Node 1 takes the token and sits on it.
	if err := rts[1].Acquire(bg); err != nil {
		t.Fatal(err)
	}
	// Node 2's acquire times out while node 1 holds.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := rts[2].Acquire(ctx); err == nil {
		rts[2].Release() // raced the cancellation: it won the token
	}
	rts[1].Release()
	// The system still works afterwards.
	if err := rts[2].Acquire(bg); err != nil {
		t.Fatalf("post-cancel acquire: %v", err)
	}
	rts[2].Release()
}

func TestAttachmentTravelsWithToken(t *testing.T) {
	rts, _ := cluster(t, liveConfig(4))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := rts[2].Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rts[2].SetAttachment("42"); err != nil {
		t.Fatal(err)
	}
	rts[2].Release()

	if err := rts[3].Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	got, ok := rts[3].TryAttachment()
	if !ok || got != "42" {
		t.Errorf("attachment = %q ok=%v, want 42", got, ok)
	}
	rts[3].Release()
	if _, ok := rts[3].TryAttachment(); ok {
		t.Error("attachment must not be readable outside CS")
	}
	if err := rts[3].SetAttachment("x"); err == nil {
		t.Error("set outside holding must fail")
	}
}

func TestAppDataDelivery(t *testing.T) {
	cfg := liveConfig(3)
	cn, err := transport.NewChannelNetwork(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	rts := make([]*Runtime, cfg.N)
	got := make(chan transport.AppData, 16)
	for i := 0; i < cfg.N; i++ {
		p, err := protocol.New(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRuntime(p, cn.Endpoint(i), 100*time.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		rt.OnApp(func(d transport.AppData) { got <- d })
		rts[i] = rt
		rt.Start()
	}
	defer func() {
		cn.Close()
		for _, rt := range rts {
			rt.Stop()
		}
	}()
	rts[0].Bootstrap()

	if err := rts[0].BroadcastApp(3, transport.AppData{Seq: 1, Node: 0, Payload: "hello"}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	deadline := time.After(5 * time.Second)
	for seen < 3 {
		select {
		case d := <-got:
			if d.Payload != "hello" {
				t.Fatalf("payload = %q", d.Payload)
			}
			seen++
		case <-deadline:
			t.Fatalf("only %d of 3 deliveries", seen)
		}
	}
}

// TestGrantAfterCanceledAcquireAutoReleases: if the acquire was canceled
// and the token arrives later, the runtime must hand it straight back so
// the ring keeps moving — otherwise the token would be parked at a node
// nobody is waiting on.
func TestGrantAfterCanceledAcquireAutoReleases(t *testing.T) {
	rts, _ := cluster(t, liveConfig(3))
	bg, cancelBG := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelBG()

	// Node 1 holds the token hostage while node 2's acquire gets canceled.
	if err := rts[1].Acquire(bg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := rts[2].Acquire(ctx)
	if err == nil {
		rts[2].Release()
		t.Skip("acquire won before cancellation was observed")
	}
	// Release node 1; the trap for node 2 fires, node 2 auto-releases,
	// and the ring is healthy: node 0 can still acquire.
	rts[1].Release()
	if err := rts[0].Acquire(bg); err != nil {
		t.Fatalf("ring stalled after canceled acquire: %v", err)
	}
	rts[0].Release()
}

func TestConcurrentAcquireOnOneRuntimeRejected(t *testing.T) {
	rts, _ := cluster(t, liveConfig(2))
	bg, cancelBG := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancelBG()
	// Node 1 blocks waiting for the token (node 0 holds it first).
	if err := rts[0].Acquire(bg); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- rts[1].Acquire(bg) }()
	time.Sleep(20 * time.Millisecond) // let the first acquire register
	if err := rts[1].Acquire(bg); err == nil {
		t.Error("second concurrent Acquire must be rejected")
		rts[1].Release()
	}
	rts[0].Release()
	if err := <-errCh; err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	rts[1].Release()
}

func TestStopIsIdempotentAndAcquireFailsAfterStop(t *testing.T) {
	rts, _ := cluster(t, liveConfig(2))
	rts[1].Stop()
	rts[1].Stop()
	if err := rts[1].Acquire(context.Background()); err == nil {
		t.Error("acquire after stop must fail")
	}
}
