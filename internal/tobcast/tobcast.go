// Package tobcast implements totally ordered broadcast — the paper's
// motivating group-communication application — over the adaptive
// token-passing layer. Sequence numbers are assigned under token
// possession, so all nodes deliver the same messages in the same global
// order (the operational counterpart of appending to the history H while
// holding the token). The sequence counter rides on the token itself as its
// attachment ("the token can carry enough information, e.g., round
// number").
package tobcast

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"adaptivetoken/internal/node"
	"adaptivetoken/internal/transport"
)

// Entry is one delivered broadcast.
type Entry struct {
	// Seq is the global sequence number, 1-based and gapless.
	Seq uint64
	// Node is the publisher.
	Node int
	// Payload is the application data.
	Payload string
}

// Broadcaster publishes and delivers totally ordered messages for one node.
type Broadcaster struct {
	rt *node.Runtime
	n  int

	mu        sync.Mutex
	nextDeliv uint64           // next sequence number to deliver
	pendingRx map[uint64]Entry // out-of-order buffer
	log       []Entry          // delivered history (the local prefix H_x)
	subs      []func(Entry)
	maxSeen   uint64 // freshest sequence number observed anywhere
}

// New wraps a runtime as a broadcaster for a ring of n nodes. It registers
// the runtime's application handler; call before Start-ing traffic that
// uses app data for anything else.
func New(rt *node.Runtime, n int) *Broadcaster {
	b := &Broadcaster{
		rt:        rt,
		n:         n,
		nextDeliv: 1,
		pendingRx: make(map[uint64]Entry),
	}
	rt.OnApp(b.onApp)
	return b
}

// Subscribe registers fn to run on every delivery, in order. Handlers run
// on the transport goroutine; keep them short.
func (b *Broadcaster) Subscribe(fn func(Entry)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs = append(b.subs, fn)
}

// Publish broadcasts payload with a globally agreed sequence number. It
// blocks until the token is acquired and the message is disseminated (not
// until all deliveries complete).
func (b *Broadcaster) Publish(ctx context.Context, payload string) (uint64, error) {
	if err := b.rt.Acquire(ctx); err != nil {
		return 0, err
	}
	defer b.rt.Release()

	seq, err := b.nextSeq()
	if err != nil {
		return 0, err
	}
	if err := b.rt.SetAttachment(strconv.FormatUint(seq, 10)); err != nil {
		return 0, err
	}
	d := transport.AppData{Seq: seq, Node: b.rt.ID(), Payload: payload}
	if err := b.rt.BroadcastApp(b.n, d); err != nil {
		return 0, fmt.Errorf("tobcast: disseminate seq %d: %w", seq, err)
	}
	return seq, nil
}

// nextSeq computes the next global sequence number from the token
// attachment, falling back to the freshest locally observed number (covers
// a regenerated token whose attachment was lost with the crashed holder).
func (b *Broadcaster) nextSeq() (uint64, error) {
	att, ok := b.rt.TryAttachment()
	if !ok {
		return 0, fmt.Errorf("tobcast: token not held")
	}
	var last uint64
	if att != "" {
		v, err := strconv.ParseUint(att, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("tobcast: corrupt token attachment %q: %v", att, err)
		}
		last = v
	}
	b.mu.Lock()
	if b.maxSeen > last {
		last = b.maxSeen
	}
	b.mu.Unlock()
	return last + 1, nil
}

// onApp buffers and delivers incoming broadcasts in sequence order.
func (b *Broadcaster) onApp(d transport.AppData) {
	b.mu.Lock()
	if d.Seq > b.maxSeen {
		b.maxSeen = d.Seq
	}
	if d.Seq >= b.nextDeliv {
		b.pendingRx[d.Seq] = Entry{Seq: d.Seq, Node: d.Node, Payload: d.Payload}
	}
	var ready []Entry
	for {
		e, ok := b.pendingRx[b.nextDeliv]
		if !ok {
			break
		}
		delete(b.pendingRx, b.nextDeliv)
		b.nextDeliv++
		b.log = append(b.log, e)
		ready = append(ready, e)
	}
	subs := append(make([]func(Entry), 0, len(b.subs)), b.subs...)
	b.mu.Unlock()

	for _, e := range ready {
		for _, fn := range subs {
			fn(e)
		}
	}
}

// Delivered returns the number of in-order deliveries so far.
func (b *Broadcaster) Delivered() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.nextDeliv - 1)
}

// Log returns a copy of the delivered history — the node's local prefix
// history in the paper's sense, in delivery order.
func (b *Broadcaster) Log() []Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Entry(nil), b.log...)
}
