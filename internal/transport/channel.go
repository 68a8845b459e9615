package transport

import (
	"fmt"
	"sync"
)

// ChannelNetwork is an in-process network of endpoints connected by
// mailboxes — the live analogue of the simulation driver's message plane.
// It models topology only (severed links, partitions); message-level fault
// injection (loss, duplication, jitter) lives in the host layer, where it
// is dispatch-sequence-keyed and therefore recordable and replayable —
// attach a faults.Injector to the node runtimes instead.
type ChannelNetwork struct {
	mu     sync.Mutex
	eps    []*channelEndpoint
	cut    map[[2]int]bool // severed directed links
	closed bool
}

// NewChannelNetwork builds a network of n endpoints.
func NewChannelNetwork(n int) (*ChannelNetwork, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: network of %d nodes", n)
	}
	cn := &ChannelNetwork{cut: make(map[[2]int]bool)}
	cn.eps = make([]*channelEndpoint, n)
	for i := 0; i < n; i++ {
		cn.eps[i] = &channelEndpoint{id: i, net: cn, mbox: newMailbox()}
	}
	return cn, nil
}

// Endpoint returns node id's endpoint.
func (cn *ChannelNetwork) Endpoint(id int) Endpoint { return cn.eps[id] }

// Isolate severs (or heals) every link to and from id — a node partition.
func (cn *ChannelNetwork) Isolate(id int, severed bool) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	for i := range cn.eps {
		if i == id {
			continue
		}
		cn.cut[[2]int{id, i}] = severed
		cn.cut[[2]int{i, id}] = severed
	}
}

// Close shuts the whole network down: all endpoints close.
func (cn *ChannelNetwork) Close() error {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return nil
	}
	cn.closed = true
	cn.mu.Unlock()
	for _, ep := range cn.eps {
		ep.mbox.close()
	}
	return nil
}

// deliver routes an envelope. Called with the envelope already validated.
func (cn *ChannelNetwork) deliver(e Envelope) error {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return fmt.Errorf("transport: network closed")
	}
	if e.To < 0 || e.To >= len(cn.eps) {
		cn.mu.Unlock()
		return fmt.Errorf("transport: destination %d out of range", e.To)
	}
	if cn.cut[[2]int{e.From, e.To}] {
		cn.mu.Unlock()
		return nil // partitioned: silently dropped, like a dead link
	}
	dst := cn.eps[e.To]
	cn.mu.Unlock()
	dst.mbox.put(e)
	return nil
}

// channelEndpoint is one node's attachment to a ChannelNetwork.
type channelEndpoint struct {
	id   int
	net  *ChannelNetwork
	mbox *mailbox
}

var _ Endpoint = (*channelEndpoint)(nil)

// ID implements Endpoint.
func (ep *channelEndpoint) ID() int { return ep.id }

// Send implements Endpoint.
func (ep *channelEndpoint) Send(e Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	e.From = ep.id
	return ep.net.deliver(e)
}

// Recv implements Endpoint.
func (ep *channelEndpoint) Recv() <-chan Envelope { return ep.mbox.out }

// Close implements Endpoint. Closing one endpoint only closes its inbox;
// use ChannelNetwork.Close to tear the whole network down.
func (ep *channelEndpoint) Close() error {
	ep.mbox.close()
	return nil
}
