package transport

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"adaptivetoken/internal/protocol"
)

// maxLinkBytes bounds what one link — a lane at the sender, a connection
// on each side and a reader at the receiver — keeps on the heap once its
// traffic has been delivered.
const maxLinkBytes = 8 << 10

// liveHeap is the heap that survives a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// star brings up endpoint 0 and n peers that know each other's addresses.
func star(t *testing.T, n int) []*TCP {
	t.Helper()
	addrs := make([]string, n+1)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	eps := make([]*TCP, n+1)
	for i := range eps {
		ep, err := NewTCP(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	for i := 1; i <= n; i++ {
		if err := eps[0].SetPeerAddr(i, eps[i].Addr()); err != nil {
			t.Fatal(err)
		}
		if err := eps[i].SetPeerAddr(0, eps[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return eps
}

// exchange sends one application frame with the given payload size each
// way between endpoint 0 and every peer, and waits until all of them have
// arrived.
func exchange(t *testing.T, eps []*TCP, size int) {
	t.Helper()
	payload := strings.Repeat("x", size)
	for i := 1; i < len(eps); i++ {
		if err := eps[0].Send(Envelope{To: i, App: &AppData{Payload: payload}}); err != nil {
			t.Fatal(err)
		}
		if err := eps[i].Send(Envelope{To: 0, App: &AppData{Payload: payload}}); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(ep *TCP, n int) {
		deadline := time.After(10 * time.Second)
		for ; n > 0; n-- {
			select {
			case e := <-ep.Recv():
				if e.App == nil || len(e.App.Payload) != size {
					t.Fatalf("endpoint %d got %+v", ep.ID(), e)
				}
			case <-deadline:
				t.Fatalf("endpoint %d: %d frames missing", ep.ID(), n)
			}
		}
	}
	recv(eps[0], len(eps)-1)
	for _, ep := range eps[1:] {
		recv(ep, 1)
	}
}

// linkFootprint runs traffic over a star of endpoint 0 and 32 peers — 64
// links, each a lane, two connection ends and a reader — and fails if the
// links then keep more than maxLinkBytes of live heap on average. A star
// of the same size carries the same traffic and closes first, so the
// net package's lazy globals and the runtime's records of exited
// goroutines and of threads it started are in the baseline. The writer
// drops a grown buffer only after its write returns, which can be just
// after the peer has the frame, so the footprint is read until it settles.
func linkFootprint(t *testing.T, traffic func([]*TCP)) {
	const peers = 32
	warm := star(t, peers)
	traffic(warm)
	for _, ep := range warm {
		ep.Close()
	}
	eps := star(t, peers)
	base := liveHeap()
	traffic(eps)
	var perLink int64
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		perLink = (int64(liveHeap()) - int64(base)) / (2 * peers)
		if perLink <= maxLinkBytes || time.Now().After(deadline) {
			break
		}
	}
	t.Logf("%d B per link", perLink)
	if perLink > maxLinkBytes {
		t.Errorf("a link holds %d B, want <= %d", perLink, maxLinkBytes)
	}
	runtime.KeepAlive(eps)
}

// TestTCPLinkFootprint gates what an established link costs: one frame
// each way on every link of the star.
func TestTCPLinkFootprint(t *testing.T) {
	linkFootprint(t, func(eps []*TCP) { exchange(t, eps, 16) })
}

// TestTCPLinkFootprintAfterLargeFrame adds one near-MaxFrame payload each
// way between endpoint 0 and peer 1: once it is delivered, neither the
// sender's batch buffer, nor the receiver's payload buffer, nor its reader
// may keep it.
func TestTCPLinkFootprintAfterLargeFrame(t *testing.T) {
	linkFootprint(t, func(eps []*TCP) {
		exchange(t, eps, 16)
		exchange(t, eps[:2], MaxFrame-64)
	})
}

// TestSendKeepsNoBox pins the box contract on every send path: Send keeps
// no box it is given, so the sender may overwrite and free its box at once,
// and the receiver reads what was sent — Served and Attach included — from
// a box of its own; the Served vector went with the message. Over TCP, application payloads are checked the same
// way. In process the copy is taken while the sender still holds its box,
// so the two can never be one; a box decoded off a socket may be the
// sender's freed box back from the pool, which is no sharing.
func TestSendKeepsNoBox(t *testing.T) {
	cn, err := NewChannelNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	eps := star(t, 1)
	for _, c := range []struct {
		name     string
		from, to Endpoint
		remote   bool // over a socket: application payloads ride along
	}{
		{"chan", cn.Endpoint(0), cn.Endpoint(1), false},
		{"tcp", eps[0], eps[1], true},
		{"tcp-self", eps[0], eps[0], false},
	} {
		t.Run(c.name, func(t *testing.T) {
			const sends = 100
			to := c.to.ID()
			sent := make([]*protocol.Message, sends)
			app := &AppData{}
			for i := 0; i < sends; i++ {
				m := NewProto()
				*m = protocol.Message{Kind: protocol.MsgToken, To: to, Round: uint64(i), Attach: "sent",
					Served: []uint64{0, uint64(i) + 1}}
				sent[i] = m
				if err := c.from.Send(Envelope{To: to, Proto: m}); err != nil {
					t.Fatal(err)
				}
				*m = protocol.Message{Kind: protocol.MsgSearch, Round: 1 << 40, Attach: "overwritten",
					Served: []uint64{1 << 40}}
				FreeProto(m)
				if !c.remote {
					continue
				}
				*app = AppData{Seq: uint64(i), Payload: "sent"}
				if err := c.from.Send(Envelope{To: to, App: app}); err != nil {
					t.Fatal(err)
				}
				*app = AppData{Seq: 1 << 40, Payload: "overwritten"}
			}
			perSend := 1
			if c.remote {
				perSend = 2
			}
			deadline := time.After(10 * time.Second)
			for i := 0; i < perSend*sends; i++ {
				select {
				case e := <-c.to.Recv():
					want, isApp := uint64(i/perSend), i%perSend == 1
					if p := e.Proto; p != nil {
						if isApp || p.Kind != protocol.MsgToken || p.Round != want || p.Attach != "sent" ||
							!slices.Equal(p.Served, []uint64{0, want + 1}) {
							t.Fatalf("frame %d: got %+v, want token round %d", i, *p, want)
						}
						if !c.remote && p == sent[want] {
							t.Fatalf("frame %d: received the box that was sent", i)
						}
					}
					if a := e.App; a != nil && (!isApp || a.Seq != want || a.Payload != "sent") {
						t.Fatalf("frame %d: got %+v, want app seq %d", i, *a, want)
					}
				case <-deadline:
					t.Fatalf("received %d/%d", i, perSend*sends)
				}
			}
		})
	}
}

// TestTCPConcurrentSendersShareALane has several goroutines send into one
// short lane under PolicyBlock, so senders keep waiting for room together:
// every frame must arrive once, each sender's in its order, none dropped.
func TestTCPConcurrentSendersShareALane(t *testing.T) {
	b, err := NewTCP(1, []string{"", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := NewTCP(0, []string{"127.0.0.1:0", b.Addr()}, Options{QueueLen: 4, Policy: PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const senders, sends = 4, 200
	for s := 0; s < senders; s++ {
		go func() {
			for i := 0; i < sends; i++ {
				if err := a.Send(Envelope{To: 1, App: &AppData{Node: s, Seq: uint64(i)}}); err != nil {
					t.Errorf("sender %d, send %d: %v", s, i, err)
					return
				}
			}
		}()
	}
	next := make([]uint64, senders)
	timeout := time.After(10 * time.Second)
	for got := 0; got < senders*sends; got++ {
		select {
		case e := <-b.Recv():
			if s := e.App.Node; e.App.Seq != next[s] {
				t.Fatalf("sender %d: got seq %d, want %d", s, e.App.Seq, next[s])
			}
			next[e.App.Node]++
		case <-timeout:
			t.Fatalf("received %d/%d", got, senders*sends)
		}
	}
	st := a.Stats()
	if st.Enqueued != senders*sends || st.Frames != senders*sends || st.QueueDepth != 0 ||
		st.DroppedBackpressure != 0 || st.DroppedWriteError != 0 {
		t.Fatalf("stats %+v after %d sends", st, senders*sends)
	}
}
