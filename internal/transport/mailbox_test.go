package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivetoken/internal/protocol"
)

// recvN reads n envelopes off the mailbox, failing the test on an early close
// or a stall.
func recvN(t *testing.T, m *mailbox, n int, each func(Envelope)) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case e, ok := <-m.out:
			if !ok {
				t.Fatalf("mailbox closed after %d of %d envelopes", i, n)
			}
			each(e)
		case <-deadline:
			t.Fatalf("stalled after %d of %d envelopes", i, n)
		}
	}
}

// One producer, every way an envelope can reach out: straight in while the
// consumer keeps up, through the queue once a burst outruns the buffer, and
// back to straight in after the queue drains. Received order must be sent
// order throughout.
func TestMailboxFIFOAcrossDirectAndQueued(t *testing.T) {
	m := newMailbox()
	defer m.close()
	const total = 100_000
	next := 0
	check := func(e Envelope) {
		if e.From != next {
			t.Fatalf("envelope %d arrived in place %d", e.From, next)
		}
		next++
	}
	sent := 0
	put := func(n int) {
		for i := 0; i < n; i++ {
			if !m.put(Envelope{From: sent}) {
				t.Fatal("put refused on an open mailbox")
			}
			sent++
		}
	}
	// Bursts with nobody reading: sizes on both sides of the buffer, so
	// some stay direct and some overflow, each drained before the next.
	for burst := 1; sent < total/2; burst = burst%(3*mailboxBuffer) + 1 {
		put(burst)
		recvN(t, m, burst, check)
	}
	// Producer and consumer running free: the boundary is crossed whenever
	// one overtakes the other.
	done := make(chan struct{})
	go func() {
		defer close(done)
		put(total - sent)
	}()
	recvN(t, m, total-next, check)
	<-done
}

// Several producers: each one's envelopes arrive in the order it put them.
func TestMailboxMultiProducerPerSenderOrder(t *testing.T) {
	m := newMailbox()
	defer m.close()
	const producers, each = 4, 20_000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !m.put(Envelope{From: p, To: i}) {
					t.Error("put refused on an open mailbox")
					return
				}
			}
		}(p)
	}
	var next [producers]int
	recvN(t, m, producers*each, func(e Envelope) {
		if e.To != next[e.From] {
			t.Fatalf("producer %d: envelope %d arrived in place %d", e.From, e.To, next[e.From])
		}
		next[e.From]++
	})
	wg.Wait()
}

// put racing close: no send on a closed channel (that would panic), Recv
// closes, and put reports false from then on.
func TestMailboxPutRacesClose(t *testing.T) {
	for round := 0; round < 100; round++ {
		m := newMailbox()
		var wg sync.WaitGroup
		var accepted atomic.Int64
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m.put(Envelope{}) {
					accepted.Add(1)
					runtime.Gosched() // on one CPU, let close have a turn
				}
			}()
		}
		// A reader, so the producers alternate between the direct and the
		// queued path while close comes in.
		received := make(chan int)
		go func() {
			n := 0
			for range m.out {
				n++
			}
			received <- n
		}()
		for accepted.Load() < int64(round) {
			runtime.Gosched()
		}
		m.close()
		wg.Wait()
		if n := <-received; int64(n) > accepted.Load() {
			t.Fatalf("received %d envelopes, only %d were accepted", n, accepted.Load())
		}
		if m.put(Envelope{}) {
			t.Fatal("put accepted after close")
		}
		m.close() // idempotent
	}
}

// Once delivered, an envelope is out of the mailbox's reach: the queue slot
// it sat in is cleared. Every message gets a finalizer; all of them must run
// while the mailbox itself stays alive.
func TestMailboxLetsDeliveredEnvelopesGo(t *testing.T) {
	m := newMailbox()
	defer m.close()
	const n = 1000
	var freed atomic.Int64
	// Nobody reads while these go in, so all but the buffer's worth sit in
	// the overflow queue.
	for i := 0; i < n; i++ {
		msg := &protocol.Message{Kind: protocol.MsgSearch, Hops: i}
		runtime.SetFinalizer(msg, func(*protocol.Message) { freed.Add(1) })
		m.put(Envelope{Proto: msg})
	}
	recvN(t, m, n, func(Envelope) {})
	// Finalizers run on their own goroutine after a collection finds the
	// object unreachable; collect until they have all run.
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d delivered messages are still reachable", n-freed.Load(), n)
		}
		runtime.GC()
		runtime.Gosched()
	}
	runtime.KeepAlive(m)
}
