package host

import (
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/transport"
)

// EndpointNetwork is the live Network: it ships messages over a
// transport.Endpoint. Fault-injected extra delay is realized by holding the
// send back on the host clock — the transport itself stays fault-free and
// only models topology (links, partitions).
type EndpointNetwork struct {
	ep    transport.Endpoint
	clock Clock
}

// NewEndpointNetwork wraps ep; clock schedules delayed (jittered) sends.
func NewEndpointNetwork(ep transport.Endpoint, clock Clock) *EndpointNetwork {
	return &EndpointNetwork{ep: ep, clock: clock}
}

// Deliver implements Network.
func (n *EndpointNetwork) Deliver(m protocol.Message, extra sim.Time) {
	// Box m once, in a box from the transport's pool: the envelope carries
	// the box to the receiver, which owns it from here on and frees it back
	// to the pool (transport.Endpoint.Recv).
	mc := transport.NewProto()
	*mc = m
	if extra <= 0 {
		n.send(mc)
		return
	}
	n.sendAfter(mc, extra)
}

// sendAfter is its own method so that its closure does not make Deliver's
// locals escape on the undelayed path.
func (n *EndpointNetwork) sendAfter(m *protocol.Message, extra sim.Time) {
	n.clock.AfterFunc(extra, func() { n.send(m) })
}

func (n *EndpointNetwork) send(m *protocol.Message) {
	// Unreachable peer: protocol-level timeouts (research, recovery)
	// repair the damage; nothing to do here.
	_ = n.ep.Send(transport.Envelope{To: m.To, Proto: m})
}
