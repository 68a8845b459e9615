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

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// ID returns the node's ring position.
	ID() int
	// Send transmits an envelope; e.To selects the destination.
	Send(e Envelope) error
	// Recv returns the channel of incoming envelopes. It is closed when
	// the endpoint closes.
	Recv() <-chan Envelope
	// Close shuts the endpoint down and releases its goroutines.
	Close() error
}

// mailbox is an unbounded, order-preserving queue pumped to a channel. It
// decouples senders from a slow consumer without unbounded goroutines or
// arbitrary buffer sizes.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Envelope
	closed bool

	out  chan Envelope
	quit chan struct{} // closed on shutdown: unblocks a stuck delivery
	done chan struct{}
}

func newMailbox() *mailbox {
	m := &mailbox{
		out:  make(chan Envelope),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	go m.pump()
	return m
}

// put enqueues an envelope; it reports false after close.
func (m *mailbox) put(e Envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.queue = append(m.queue, e)
	m.cond.Signal()
	return true
}

// close shuts the mailbox down; undelivered envelopes are dropped and the
// out channel closes. It waits for the pump goroutine to exit.
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

func (m *mailbox) pump() {
	defer close(m.done)
	defer close(m.out)
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		e := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()
		select {
		case m.out <- e:
		case <-m.quit:
			return
		}
	}
}
