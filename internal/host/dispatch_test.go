package host

import (
	"slices"
	"sync"
	"testing"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
)

// dupAll duplicates every message.
type dupAll struct{}

func (dupAll) OnMessage(bool) faults.Verdict { return faults.Verdict{Dup: true} }

// keepNet keeps every delivered copy.
type keepNet struct{ got []protocol.Message }

func (n *keepNet) Deliver(m protocol.Message, _ sim.Time) { n.got = append(n.got, m) }

// TestDispatchDupClonesServed: a duplicated token reaches two holders, and
// each holder writes its satisfaction record in place, on the live runtime
// from two goroutines. So the second copy carries a clone: each copy reads
// what was sent plus its own holder's write, never the other's. Run under
// -race.
func TestDispatchDupClonesServed(t *testing.T) {
	net := &keepNet{}
	h, err := New(Config{
		Clock:   &stubClock{},
		Network: net,
		Faults:  dupAll{},
		Machine: func(int) *protocol.Node { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := []uint64{0, 3, 0, 5}
	m := protocol.Message{Kind: protocol.MsgToken, From: 0, To: 1, Served: slices.Clone(sent)}
	h.Dispatch(&m)
	if len(net.got) != 2 {
		t.Fatalf("%d copies delivered, want 2", len(net.got))
	}
	var wg sync.WaitGroup
	for i := range net.got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net.got[i].Served[2] = uint64(10 + i)
		}()
	}
	wg.Wait()
	for i, c := range net.got {
		want := slices.Clone(sent)
		want[2] = uint64(10 + i)
		if !slices.Equal(c.Served, want) {
			t.Errorf("copy %d carries %v, want %v", i, c.Served, want)
		}
	}

	// A message without a record is duplicated without one.
	net.got = nil
	search := protocol.Message{Kind: protocol.MsgSearch, From: 0, To: 1}
	h.Dispatch(&search)
	if len(net.got) != 2 || net.got[0].Served != nil || net.got[1].Served != nil {
		t.Fatalf("duplicated search delivered as %+v", net.got)
	}
}
