package protocol

import (
	"math"
	"testing"
	"unsafe"
)

// TestNodeLayout pins the sizes a 10⁶-node ring multiplies: the node itself
// (DESIGN.md §13 has the field table that adds up to it), a trap entry, and
// the message every simulated hop copies once.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got > 176 {
		t.Errorf("Node is %d bytes, want at most 176: a field that is not written per hop belongs in nodeCold", got)
	}
	if got := unsafe.Sizeof(trapEntry{}); got != 24 {
		t.Errorf("trapEntry is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Message{}); got != 136 {
		t.Errorf("Message is %d bytes, want 136", got)
	}
}

// TestColdStateAllocatedOnFirstRealWrite: what the token-hop and search-hop
// handlers write leaves the cold state unallocated — including the empty
// attachment every token of a ring without an application carries — every
// read of it answers as the zero value would, and each kind of cold write
// allocates it exactly when the value changes.
func TestColdStateAllocatedOnFirstRealWrite(t *testing.T) {
	cfg := Config{Variant: BinarySearch, N: 16, TrapGC: GCRotation, AdaptiveSpeed: true, MinHold: 1, MaxHold: 8, RecoveryTimeout: 100}
	n := newNode(t, 3, cfg)
	n.HandleMessage(1, Message{Kind: MsgToken, From: 2, To: 3, Round: 5}) // idle: an adaptive hold
	n.Request(2)                                                          // the holder's own request, granted on the spot
	n.Release(3)
	n.HandleMessage(4, Message{Kind: MsgSearch, From: 11, To: 3, Requester: 11, ReqSeq: 1, Window: 8}) // trapped and served
	n.HandleMessage(4, Message{Kind: MsgSearch, From: 12, To: 3, Requester: 12, ReqSeq: 1, Window: 8}) // trapped and forwarded
	if n.HasToken() || n.TrapCount() != 1 {
		t.Fatalf("setup: holding %v with %d traps, want the token gone and one trap left", n.HasToken(), n.TrapCount())
	}
	n.HandleMessage(5, Message{Kind: MsgRecoveryProbe, From: 7, To: 3})
	n.HandleMessage(6, Message{Kind: MsgRecoveryReply, From: 7, To: 3, HasToken: true})
	n.HandleTimer(7, TimerRecoveryDecide, 1)
	if n.cold != nil {
		t.Fatalf("token, search and stray recovery traffic allocated the cold state: %+v", *n.cold)
	}
	if n.Attachment() != "" || n.ViewEpoch() != 0 || n.RecoveryActive() || !n.member(15) || n.liveCount() != 16 || n.liveMin() != 0 {
		t.Fatal("a node without cold state must read as one whose cold state is zero")
	}

	writes := map[string]func(n *Node){
		"attachment from the application": func(n *Node) {
			n.GiveToken(0)
			if err := n.SetAttachment("seq=1"); err != nil {
				t.Fatal(err)
			}
		},
		"attachment off the token": func(n *Node) {
			n.HandleMessage(1, Message{Kind: MsgToken, From: 2, To: 3, Round: 1, Attach: "seq=1"})
		},
		"membership view": func(n *Node) {
			n.ApplyView(1, ViewUpdate{Epoch: 1, Members: []int{0, 3, 5}})
		},
		"recovery round": func(n *Node) {
			n.Request(1)
			n.HandleTimer(101, TimerRecovery, 1)
		},
	}
	for name, write := range writes {
		n := newNode(t, 3, cfg)
		write(n)
		if n.cold == nil {
			t.Errorf("%s: not stored", name)
		}
	}
	directed := newNode(t, 3, Config{Variant: DirectedSearch, N: 16})
	directed.Request(1)
	if c := directed.cold; c == nil || c.probeWindow != 8 || c.probePos != 11 {
		t.Errorf("directed search cursor not stored: %+v", c)
	}

	// An attachment cleared again is a real write too.
	n = newNode(t, 3, cfg)
	n.HandleMessage(1, Message{Kind: MsgToken, From: 2, To: 3, Round: 1, Attach: "seq=1"})
	n.HandleMessage(2, Message{Kind: MsgToken, From: 2, To: 3, Round: 2})
	if got := n.Attachment(); got != "" {
		t.Errorf("attachment %q after an empty one arrived", got)
	}
}

// TestSuccMatchesRing: a node's successor step is the paper's x^{+k}, the
// residue of x+k modulo N, wraps and negative steps included.
func TestSuccMatchesRing(t *testing.T) {
	for _, size := range []int{1, 2, 7, 64} {
		n := newNode(t, 0, Config{Variant: RingToken, N: size})
		for id := 0; id < size; id++ {
			for k := -3 * size; k <= 3*size; k++ {
				if got, want := n.succ(id, k), ((id+k)%size+size)%size; got != want {
					t.Fatalf("N=%d: succ(%d, %d) = %d, want %d", size, id, k, got, want)
				}
			}
		}
	}
}

// TestInitRejectsRingBeyondInt32: positions are stored as int32, so a ring
// they could not number is refused, not wrapped.
func TestInitRejectsRingBeyondInt32(t *testing.T) {
	size := math.MaxInt32
	size++ // wraps negative where int is 32 bits: refused either way
	if _, err := New(0, Config{Variant: RingToken, N: size}); err == nil {
		t.Fatalf("a ring of %d positions was accepted", size)
	}
}
