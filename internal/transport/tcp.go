package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// BackpressurePolicy selects what Send does when a peer's bounded outbound
// queue is full.
type BackpressurePolicy int

const (
	// PolicyDrop (the default) drops cheap messages when the peer queue is
	// full, counting them in Stats.DroppedBackpressure. Correctness-bearing
	// ("expensive") protocol messages and application payloads are never
	// dropped by policy — they block until the queue drains, mirroring the
	// fault injector's §4.4 safe subset. Cheap loss is repaired by the
	// protocol's research timeout.
	PolicyDrop BackpressurePolicy = iota
	// PolicyBlock blocks every send until the queue has room. No message is
	// ever dropped by backpressure, at the price of a sender stalling for
	// as long as the peer stays unreachable with a full queue.
	PolicyBlock
)

// String renders the policy name ("drop"/"block").
func (p BackpressurePolicy) String() string {
	if p == PolicyBlock {
		return "block"
	}
	return "drop"
}

// ParsePolicy parses "drop" or "block".
func ParsePolicy(s string) (BackpressurePolicy, error) {
	switch s {
	case "drop":
		return PolicyDrop, nil
	case "block":
		return PolicyBlock, nil
	}
	return PolicyDrop, fmt.Errorf("transport: unknown backpressure policy %q (want drop|block)", s)
}

// Options tunes the hardened TCP endpoint. The zero value gives the
// defaults.
type Options struct {
	// QueueLen bounds the encoded frames waiting in each peer's outbound
	// queue (default 512).
	QueueLen int
	// Policy selects the full-queue behavior (default PolicyDrop).
	Policy BackpressurePolicy
	// BackoffMin/BackoffMax bound the jittered exponential dial backoff
	// (defaults 5ms and 1s).
	BackoffMin, BackoffMax time.Duration
}

func (o Options) withDefaults() Options {
	if o.QueueLen <= 0 {
		o.QueueLen = 512
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 5 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = time.Second
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = o.BackoffMin
	}
	return o
}

// Stats are the transport's telemetry counters, snapshotted by Stats().
// All fields are cumulative except QueueDepth (a gauge: frames waiting in
// peer queues at snapshot time).
type Stats struct {
	// Enqueued counts envelopes Send accepted for a remote peer: encoded
	// into its queue, or refused by the encoder and counted in
	// DroppedEncode too. Self-sends and backpressure drops are excluded.
	Enqueued int64 `json:"enqueued"`
	// Frames counts frames written to sockets. A batch is counted just
	// before its write, so the snapshot is never behind what the peer has
	// received; a batch whose write fails moves to DroppedWriteError.
	Frames int64 `json:"frames"`
	// Flushes counts socket writes (one per batch).
	Flushes int64 `json:"flushes"`
	// BatchedWrites counts frames that shared a flush with at least one
	// other frame — the payoff of write batching.
	BatchedWrites int64 `json:"batched_writes"`
	// DroppedBackpressure counts cheap envelopes dropped because the peer
	// queue held QueueLen frames under PolicyDrop.
	DroppedBackpressure int64 `json:"dropped_backpressure"`
	// DroppedWriteError counts frames abandoned when a socket write
	// failed mid-batch. Delivery of such frames is ambiguous (the peer may
	// have read a prefix of the batch); the transport never re-sends them —
	// at-most-once — so this is an upper bound on loss, repaired by the
	// protocol's research/recovery timeouts.
	DroppedWriteError int64 `json:"dropped_write_error"`
	// DroppedEncode counts envelopes the frame encoder refused (payload
	// over MaxFrame); they never reach the socket.
	DroppedEncode int64 `json:"dropped_encode"`
	// Reconnects counts connections torn down after a write error.
	Reconnects int64 `json:"reconnects"`
	// DialRetries counts failed dial attempts (the peer was unreachable;
	// the writer retried after a jittered backoff).
	DialRetries int64 `json:"dial_retries"`
	// QueueDepth is the total number of frames waiting in peer queues; a
	// frame the writer holds in hand while it dials is not waiting.
	QueueDepth int64 `json:"queue_depth"`
}

// TCP is an Endpoint over real sockets, hardened for sustained load: one
// listener per node; per-peer persistent connections owned by a writer
// goroutine; length-prefixed framing (frame.go), encoded by Send into the
// peer's lane; write batching with flush-on-idle (the writer takes every
// frame the lane holds into one socket write); bounded per-peer outbound
// queues with an explicit backpressure policy (block vs drop-with-counter);
// and reconnection with jittered exponential backoff, so peers that start
// late or flap are absorbed without losing the connection state machine.
type TCP struct {
	id   int
	ln   net.Listener
	opts Options

	mu      sync.Mutex
	addrs   []string
	peers   map[int]*tcpPeer
	inbound map[net.Conn]struct{}
	closed  bool

	quit   chan struct{}
	ctx    context.Context // canceled on Close: aborts in-flight dials
	cancel context.CancelFunc
	mbox   *mailbox
	vecs   *vectors // Served vectors Send has encoded, for readers to refill
	wg     sync.WaitGroup

	enqueued      atomic.Int64
	frames        atomic.Int64
	flushes       atomic.Int64
	batchedWrites atomic.Int64
	droppedFull   atomic.Int64
	droppedWrite  atomic.Int64
	droppedEncode atomic.Int64
	reconnects    atomic.Int64
	dialRetries   atomic.Int64
}

// maxKeptBuf caps the buffers a link keeps between uses. A lane's batch
// buffer or a reader's payload buffer that grew past it — to carry one large
// application payload, say — is dropped after use, so a single big frame
// does not pin up to MaxFrame on both ends of the link for its lifetime.
const maxKeptBuf = 64 << 10

// tcpPeer is one outbound lane: frames already encoded by Send, waiting in
// one byte buffer for the dedicated writer goroutine that owns the
// connection. The lane keeps no Envelope and no message box.
type tcpPeer struct {
	id   int
	wake chan struct{} // one slot: pending holds frames the writer has not taken

	mu      sync.Mutex
	pending []byte // encoded frames, oldest first
	frames  int    // frames in pending
	// inHand is set while the writer, waiting on a dial, has claimed the
	// first frame of pending: that frame no longer counts against QueueLen,
	// as an envelope taken off a queue would not.
	inHand bool
	// room is non-nil only while a sender waits for the lane to drain; the
	// writer closes it when frames leave the queue.
	room chan struct{}
}

// waiting is the number of frames that count against QueueLen. p.mu held.
func (p *tcpPeer) waiting() int {
	if p.inHand {
		return p.frames - 1
	}
	return p.frames
}

// freed wakes every sender waiting for room. p.mu held.
func (p *tcpPeer) freed() {
	if p.room != nil {
		close(p.room)
		p.room = nil
	}
}

var _ Endpoint = (*TCP)(nil)

// NewTCP creates the endpoint for node id, listening on addrs[id]. The
// addrs slice maps every ring position to its host:port. Options (at most
// one) tune queue bounds, backpressure policy and dial backoff.
func NewTCP(id int, addrs []string, opts ...Options) (*TCP, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("transport: id %d outside address list of %d", id, len(addrs))
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCP{
		id:      id,
		ln:      ln,
		opts:    o.withDefaults(),
		addrs:   append([]string(nil), addrs...),
		peers:   make(map[int]*tcpPeer),
		inbound: make(map[net.Conn]struct{}),
		quit:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
		mbox:    newMailbox(),
		vecs:    newVectors(len(addrs)),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's actual address (useful with ":0" ports).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeerAddr updates the address of peer id — needed when peers bind ":0"
// ports and exchange their real addresses after startup. An established
// connection to the old address keeps draining; the next (re)dial uses the
// new address.
func (t *TCP) SetPeerAddr(id int, addr string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.addrs) {
		return fmt.Errorf("transport: peer %d outside address list of %d", id, len(t.addrs))
	}
	t.addrs[id] = addr
	return nil
}

// peerAddr reads peer id's current address.
func (t *TCP) peerAddr(id int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addrs[id]
}

// ID implements Endpoint.
func (t *TCP) ID() int { return t.id }

// Recv implements Endpoint.
func (t *TCP) Recv() <-chan Envelope { return t.mbox.out }

// Stats snapshots the transport telemetry counters.
func (t *TCP) Stats() Stats {
	s := Stats{
		Enqueued:            t.enqueued.Load(),
		Frames:              t.frames.Load(),
		Flushes:             t.flushes.Load(),
		BatchedWrites:       t.batchedWrites.Load(),
		DroppedBackpressure: t.droppedFull.Load(),
		DroppedWriteError:   t.droppedWrite.Load(),
		DroppedEncode:       t.droppedEncode.Load(),
		Reconnects:          t.reconnects.Load(),
		DialRetries:         t.dialRetries.Load(),
	}
	t.mu.Lock()
	for _, p := range t.peers {
		p.mu.Lock()
		s.QueueDepth += int64(p.waiting())
		p.mu.Unlock()
	}
	t.mu.Unlock()
	return s
}

// Send implements Endpoint. An envelope to a remote peer is encoded into
// the peer's outbound lane before Send returns, so the transport keeps
// nothing of it but the Served vector, which it refills for a token it reads,
// and the frame is written asynchronously by the lane's writer goroutine;
// Send never performs network I/O itself. A self-send puts a pooled copy of
// the box in the inbox. A lane holding QueueLen frames applies the
// backpressure policy: under PolicyDrop, cheap protocol messages are dropped
// with a counter while expensive (correctness-bearing) messages and
// application payloads block; under PolicyBlock everything blocks. An
// envelope the encoder refuses is counted in DroppedEncode and never reaches
// the socket.
func (t *TCP) Send(e Envelope) error {
	if err := e.Validate(); err != nil {
		return err
	}
	e.From = t.id
	if e.To == t.id {
		if !t.mbox.put(ownBox(e)) {
			return errors.New("transport: endpoint closed")
		}
		return nil
	}
	p, err := t.peer(e.To)
	if err != nil {
		return err
	}
	droppable := t.opts.Policy == PolicyDrop && e.Proto != nil && !e.Proto.Kind.Expensive()
	p.mu.Lock()
	for p.waiting() >= t.opts.QueueLen {
		if droppable {
			p.mu.Unlock()
			t.droppedFull.Add(1)
			return nil
		}
		if p.room == nil {
			p.room = make(chan struct{})
		}
		room := p.room
		p.mu.Unlock()
		select {
		case <-room:
		case <-t.quit:
			return errors.New("transport: endpoint closed")
		}
		p.mu.Lock()
	}
	t.enqueued.Add(1)
	b, err := appendFrame(p.pending, e)
	if err != nil {
		p.mu.Unlock()
		t.droppedEncode.Add(1)
		return nil
	}
	p.pending = b
	p.frames++
	p.mu.Unlock()
	if e.Proto != nil {
		t.vecs.put(e.Proto.Served)
	}
	select {
	case p.wake <- struct{}{}:
	default:
	}
	return nil
}

// peer returns (creating if needed) the outbound lane to node id.
func (t *TCP) peer(id int) (*tcpPeer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errors.New("transport: endpoint closed")
	}
	if id < 0 || id >= len(t.addrs) {
		return nil, fmt.Errorf("transport: peer %d outside address list of %d", id, len(t.addrs))
	}
	if p, ok := t.peers[id]; ok {
		return p, nil
	}
	p := &tcpPeer{id: id, wake: make(chan struct{}, 1)}
	t.peers[id] = p
	t.wg.Add(1)
	go t.writeLoop(p)
	return p, nil
}

// writeLoop owns peer p's connection. Woken by Send, it (re)dials if it
// has no connection — with jittered exponential backoff, holding the first
// pending frame in hand meanwhile — then swaps every pending frame out of
// the lane and flushes them with a single socket write. On a write error
// the connection is torn down and the batch abandoned (delivery ambiguous —
// at-most-once); on a dial error nothing was written, so retrying is
// always safe. The lane's two buffers alternate between Send and the
// writer; one that grew past maxKeptBuf is dropped after its write.
func (t *TCP) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	var spare []byte
	rng := jitterSeed(t.id, p.id)
	for {
		select {
		case <-p.wake:
		case <-t.quit:
			return
		}
		// Establish the connection first: by the time the dial succeeds,
		// everything that queued up behind the frame in hand joins the
		// same batch.
		if conn == nil {
			p.mu.Lock()
			if p.frames == 0 {
				p.mu.Unlock()
				continue
			}
			p.inHand = true
			p.freed()
			p.mu.Unlock()
		}
		backoff := t.opts.BackoffMin
		for conn == nil {
			var d net.Dialer
			c, err := d.DialContext(t.ctx, "tcp", t.peerAddr(p.id))
			if err == nil {
				conn = c
				break
			}
			t.dialRetries.Add(1)
			select {
			case <-time.After(jittered(&rng, backoff)):
			case <-t.quit:
				return
			}
			backoff *= 2
			if backoff > t.opts.BackoffMax {
				backoff = t.opts.BackoffMax
			}
		}
		p.mu.Lock()
		batch, n := p.pending, int64(p.frames)
		p.pending, p.frames, p.inHand = spare[:0], 0, false
		p.freed()
		p.mu.Unlock()
		if n == 0 {
			spare = batch
			continue
		}
		// Account before the write makes the bytes visible to the peer, so
		// Stats is never behind what a receiver has already drained; a
		// failed write moves the batch to DroppedWriteError.
		batched := int64(0)
		if n > 1 {
			batched = n
		}
		t.frames.Add(n)
		t.flushes.Add(1)
		t.batchedWrites.Add(batched)
		if _, err := conn.Write(batch); err != nil {
			conn.Close()
			conn = nil
			t.frames.Add(-n)
			t.flushes.Add(-1)
			t.batchedWrites.Add(-batched)
			t.reconnects.Add(1)
			t.droppedWrite.Add(n)
		}
		spare = nil
		if cap(batch) <= maxKeptBuf {
			spare = batch[:0]
		}
	}
}

// jitterSeed derives a deterministic per-lane jitter state.
func jitterSeed(id, peer int) uint64 {
	return uint64(id)*0x9e3779b97f4a7c15 + uint64(peer)*0xbf58476d1ce4e5b9 + 1
}

// jittered returns a uniformly random duration in [d/2, d) from a tiny
// inline splitmix64 — deterministic per lane, so backoff storms desynchronize
// without global coordination.
func jittered(state *uint64, d time.Duration) time.Duration {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	half := uint64(d) / 2
	if half == 0 {
		return d
	}
	return time.Duration(half + z%half)
}

// acceptLoop accepts peer connections and spawns a reader per connection.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one connection into the mailbox. Any framing
// violation drops the connection — the sender will reconnect.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	fr := newFrameReader(conn, t.vecs)
	var e Envelope
	for {
		if err := fr.next(&e); err != nil {
			return
		}
		if e.Validate() != nil {
			continue // malformed peer traffic: ignore
		}
		if !t.mbox.put(e) {
			return
		}
		e = Envelope{} // the mailbox has it; an idle link keeps none alive
	}
}

// Close implements Endpoint: it stops the listener, unblocks senders and
// writer goroutines, tears down connections, waits for every goroutine,
// and closes the inbox. Frames still queued are dropped.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.quit)
	t.cancel()
	for conn := range t.inbound {
		conn.Close()
	}
	t.mu.Unlock()
	err := t.ln.Close()
	t.wg.Wait()
	t.mbox.close()
	return err
}
