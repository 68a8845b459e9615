// Package transport carries protocol and application messages between live
// nodes. Two implementations are provided:
//
//   - ChannelNetwork — in-process delivery over goroutines and channels,
//     with fault injection (cheap-message loss, delay, partitions) for
//     tests;
//   - TCP — length-prefixed binary frames (frame.go) over real sockets
//     (stdlib net), one listener per node with lazily dialed, persistent
//     peer connections.
//
// Both implement Endpoint. The protocol's "expensive" messages (token
// transfers) are never dropped by the fault injector — mirroring the
// paper's split between correctness-bearing and cheap messages.
package transport

import (
	"fmt"
	"sync"

	"adaptivetoken/internal/protocol"
)

// AppData is an application payload riding the transport next to protocol
// traffic (used by the total-order broadcast service).
type AppData struct {
	// Seq is the global total-order sequence number.
	Seq uint64
	// Node is the publisher.
	Node int
	// Kind tags the payload for the application.
	Kind string
	// Payload is the opaque application data.
	Payload string
}

// Envelope is the wire unit: exactly one of Proto or App is set.
type Envelope struct {
	From  int
	To    int
	Proto *protocol.Message
	App   *AppData
}

// Validate checks the envelope shape.
func (e Envelope) Validate() error {
	if (e.Proto == nil) == (e.App == nil) {
		return fmt.Errorf("transport: envelope must carry exactly one of proto/app")
	}
	return nil
}

// protoPool recycles the message boxes an Envelope carries.
var protoPool = sync.Pool{New: func() any { return new(protocol.Message) }}

// NewProto returns a zeroed message box for an outgoing Envelope.Proto,
// recycled through FreeProto where possible.
func NewProto() *protocol.Message { return protoPool.Get().(*protocol.Message) }

// FreeProto zeroes m — so a pooled box keeps no Served or Attach data
// alive — and hands it back for NewProto to reuse. Only the owner of m may
// free it, once, and nothing may read m afterwards (see Endpoint.Recv).
func FreeProto(m *protocol.Message) {
	*m = protocol.Message{}
	protoPool.Put(m)
}

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// ID returns the node's ring position.
	ID() int
	// Send transmits an envelope; e.To selects the destination.
	Send(e Envelope) error
	// Recv returns the channel of incoming envelopes. It is closed when
	// the endpoint closes. The receiver owns each envelope's Proto box —
	// in process it is the very box the sender sent — and may hand it to
	// FreeProto once done with it. The transport never frees a box itself,
	// so a box it drops, or encodes for a remote peer, is left to the
	// garbage collector, and a sender whose receiver does not free may
	// send one box again.
	Recv() <-chan Envelope
	// Close shuts the endpoint down and releases its goroutines.
	Close() error
}

// mailbox is an unbounded, order-preserving queue in front of a channel. It
// decouples senders from a slow consumer without unbounded goroutines or
// arbitrary buffer sizes.
//
// Delivered order is put order. put sends straight into out, without waking
// the pump, only while nothing that was put earlier can still be on its way
// there: the overflow queue is empty and the pump holds no popped envelope
// in hand. Direct sends happen under mu, so they are ordered among
// themselves; everything else goes through queue and the pump, one envelope
// at a time, and while the pump stands between its pop and its send inHand
// turns later puts into the queue behind it.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []Envelope // overflow: what out had no room for, oldest first
	// inHand is set when the pump pops an envelope and cleared when it next
	// takes mu, by which time that envelope is in out (or the mailbox is
	// shutting down).
	inHand bool
	closed bool

	out  chan Envelope
	quit chan struct{} // closed on shutdown: unblocks a stuck delivery
	done chan struct{}
}

// mailboxBuffer is the room in out. One is enough for the direct put of a
// token hop, where the receiver is idle; the rest absorbs the handful of
// searches and replies that reach a node while its receive loop is busy with
// one message, so that they too skip the pump. Bursts beyond it overflow
// into queue, which has no bound. Close may leave up to this many envelopes
// readable on Recv before it reports closed.
const mailboxBuffer = 16

func newMailbox() *mailbox {
	m := &mailbox{
		out:  make(chan Envelope, mailboxBuffer),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	go m.pump()
	return m
}

// put enqueues an envelope; it reports false after close. The closed check
// and any send into out share one critical section, and the pump closes out
// only once closed is set, so put never sends on a closed channel.
func (m *mailbox) put(e Envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	if len(m.queue) == 0 && !m.inHand {
		select {
		case m.out <- e:
			return true
		default:
		}
	}
	m.queue = append(m.queue, e)
	m.cond.Signal()
	return true
}

// close shuts the mailbox down; undelivered queued envelopes are dropped and
// the out channel closes. It waits for the pump goroutine to exit.
func (m *mailbox) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.done
		return
	}
	m.closed = true
	close(m.quit)
	m.cond.Signal()
	m.mu.Unlock()
	<-m.done
}

// pump moves the overflow queue into out. It clears each slot it pops and
// lets the backing array go once the queue drains: a delivered envelope, and
// the message behind it, must not stay reachable from the mailbox.
func (m *mailbox) pump() {
	defer close(m.done)
	defer close(m.out)
	for {
		m.mu.Lock()
		m.inHand = false
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		e := m.queue[0]
		m.queue[0] = Envelope{}
		m.queue = m.queue[1:]
		if len(m.queue) == 0 {
			m.queue = nil
		}
		m.inHand = true
		m.mu.Unlock()
		select {
		case m.out <- e:
		case <-m.quit:
			return
		}
	}
}
