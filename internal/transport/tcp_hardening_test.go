package transport

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptivetoken/internal/protocol"
)

// cheapEnv builds a droppable (cheap) protocol envelope.
func cheapEnv(to int) Envelope {
	return Envelope{To: to, Proto: &protocol.Message{Kind: protocol.MsgSearch, To: to}}
}

// expensiveEnv builds a correctness-bearing protocol envelope.
func expensiveEnv(to int) Envelope {
	return Envelope{To: to, Proto: &protocol.Message{Kind: protocol.MsgToken, To: to}}
}

// TestBackpressureDropPolicy fills a peer lane toward an unreachable
// address: cheap messages beyond the queue bound must be dropped with a
// counter, never blocking the sender.
func TestBackpressureDropPolicy(t *testing.T) {
	a, err := NewTCP(0, []string{"127.0.0.1:0", "127.0.0.1:1"},
		Options{QueueLen: 8, Policy: PolicyDrop, BackoffMin: time.Hour, BackoffMax: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// The writer takes at most one envelope off the queue before parking
	// in the dial backoff; everything past QueueLen+1 must drop.
	const sends = 64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < sends; i++ {
			if err := a.Send(cheapEnv(1)); err != nil {
				t.Errorf("cheap send %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("drop policy blocked a cheap sender")
	}
	st := a.Stats()
	if st.DroppedBackpressure == 0 {
		t.Fatalf("expected backpressure drops, stats %+v", st)
	}
	if st.Enqueued+st.DroppedBackpressure != sends {
		t.Fatalf("enqueued %d + dropped %d != %d sends", st.Enqueued, st.DroppedBackpressure, sends)
	}
	if st.QueueDepth == 0 || st.QueueDepth > 8 {
		t.Fatalf("queue depth %d outside (0, 8]", st.QueueDepth)
	}
}

// TestBackpressureExpensiveBlocks pins the policy split: under PolicyDrop a
// full queue blocks an expensive (token) send instead of dropping it, and
// Close unblocks the stuck sender.
func TestBackpressureExpensiveBlocks(t *testing.T) {
	a, err := NewTCP(0, []string{"127.0.0.1:0", "127.0.0.1:1"},
		Options{QueueLen: 2, Policy: PolicyDrop, BackoffMin: time.Hour, BackoffMax: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the lane with expensive messages (never droppable).
	for i := 0; i < 3; i++ { // queue 2 + 1 in the writer's hand
		if err := a.Send(expensiveEnv(1)); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- a.Send(expensiveEnv(1)) }()
	select {
	case err := <-blocked:
		t.Fatalf("expensive send on a full lane returned early: %v", err)
	case <-time.After(100 * time.Millisecond):
		// good: still blocked
	}
	if st := a.Stats(); st.DroppedBackpressure != 0 {
		t.Fatalf("expensive messages were dropped: %+v", st)
	}
	a.Close()
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("blocked send must fail after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the stuck sender")
	}
}

// TestBackpressureBlockPolicy pins PolicyBlock: nothing is ever dropped;
// senders wait for the queue to drain.
func TestBackpressureBlockPolicy(t *testing.T) {
	b, err := NewTCP(1, []string{"", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP(0, []string{"127.0.0.1:0", b.Addr()},
		Options{QueueLen: 4, Policy: PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const sends = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < sends; i++ {
			if err := a.Send(cheapEnv(1)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	got := 0
	timeout := time.After(10 * time.Second)
	for got < sends {
		select {
		case _, ok := <-b.Recv():
			if !ok {
				t.Fatal("receiver closed early")
			}
			got++
		case <-timeout:
			t.Fatalf("received %d/%d", got, sends)
		}
	}
	wg.Wait()
	st := a.Stats()
	if st.DroppedBackpressure != 0 || st.DroppedWriteError != 0 {
		t.Fatalf("block policy dropped messages: %+v", st)
	}
	if st.Frames != sends {
		t.Fatalf("frames %d != sends %d", st.Frames, sends)
	}
	if st.Flushes > st.Frames {
		t.Fatalf("flushes %d > frames %d", st.Flushes, st.Frames)
	}
}

// TestReconnectFlappingListener kills and revives the peer's listener
// mid-stream: the writer must tear the connection down, retry with
// backoff, reconnect to the revived listener, and deliver fresh traffic —
// with the reconnects/dial-retries counters recording the outage.
func TestReconnectFlappingListener(t *testing.T) {
	b, err := NewTCP(1, []string{"", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a, err := NewTCP(0, []string{"127.0.0.1:0", addr},
		Options{QueueLen: 64, Policy: PolicyDrop, BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Phase 1: traffic flows.
	if err := a.Send(cheapEnv(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
	case <-time.After(5 * time.Second):
		t.Fatal("phase 1 delivery timeout")
	}

	// Flap: kill the peer endpoint entirely (listener + conns).
	b.Close()

	// Drive sends until the writer notices the dead connection. TCP may
	// buffer a few writes before the RST surfaces, so keep sending.
	deadline := time.Now().Add(10 * time.Second)
	for a.Stats().Reconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never noticed the dead connection")
		}
		a.Send(cheapEnv(1))
		time.Sleep(2 * time.Millisecond)
	}

	// Revive the listener on the same port. A bind race with the old
	// socket is possible; retry briefly.
	var b2 *TCP
	for i := 0; i < 100; i++ {
		b2, err = NewTCP(1, []string{"", addr})
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("revive listener: %v", err)
	}
	defer b2.Close()

	// Phase 2: traffic must flow again over a fresh connection.
	delivered := make(chan struct{})
	go func() {
		for e := range b2.Recv() {
			if e.Proto != nil {
				close(delivered)
				return
			}
		}
	}()
	sendUntil := time.Now().Add(10 * time.Second)
	for {
		a.Send(cheapEnv(1))
		select {
		case <-delivered:
			st := a.Stats()
			if st.Reconnects == 0 {
				t.Fatalf("no reconnect recorded: %+v", st)
			}
			return
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(sendUntil) {
			t.Fatalf("no delivery after listener revival; stats %+v", a.Stats())
		}
	}
}

// TestWriteBatching pushes a burst through one lane and checks the writer
// coalesced frames into fewer flushes.
func TestWriteBatching(t *testing.T) {
	b, err := NewTCP(1, []string{"", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP(0, []string{"127.0.0.1:0", b.Addr()}, Options{QueueLen: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const sends = 512
	for i := 0; i < sends; i++ {
		if err := a.Send(Envelope{To: 1, App: &AppData{Seq: uint64(i), Payload: fmt.Sprint(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// All envelopes must arrive, in order, exactly once.
	timeout := time.After(10 * time.Second)
	for i := 0; i < sends; i++ {
		select {
		case e := <-b.Recv():
			if e.App == nil || e.App.Seq != uint64(i) {
				t.Fatalf("slot %d got %+v", i, e)
			}
		case <-timeout:
			t.Fatalf("received %d/%d", i, sends)
		}
	}
	st := a.Stats()
	if st.Frames != sends {
		t.Fatalf("frames %d != %d", st.Frames, sends)
	}
	if st.Flushes >= sends {
		t.Fatalf("no batching: %d flushes for %d frames", st.Flushes, sends)
	}
	if st.BatchedWrites == 0 {
		t.Fatal("batched-writes counter never moved")
	}
}

// TestOversizeEnvelopeIsCounted sends a payload the frame encoder refuses:
// it must be dropped with DroppedEncode, not silently, and the lane must
// keep carrying the traffic behind it.
func TestOversizeEnvelopeIsCounted(t *testing.T) {
	b, err := NewTCP(1, []string{"", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP(0, []string{"127.0.0.1:0", b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if err := a.Send(Envelope{To: 1, App: &AppData{Seq: 1, Payload: strings.Repeat("x", MaxFrame+1)}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Envelope{To: 1, App: &AppData{Seq: 2, Payload: "fits"}}); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-b.Recv():
		if e.App == nil || e.App.Seq != 2 {
			t.Fatalf("got %+v, want the envelope behind the oversize one", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the envelope behind the oversize one never arrived")
	}
	st := a.Stats()
	if st.DroppedEncode != 1 || st.Frames != 1 || st.Enqueued != 2 {
		t.Fatalf("DroppedEncode %d, Frames %d, Enqueued %d; want 1, 1, 2", st.DroppedEncode, st.Frames, st.Enqueued)
	}
}
