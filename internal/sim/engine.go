// Package sim provides the deterministic discrete-event simulation kernel
// used to reproduce the paper's performance evaluation (§4.3). It implements
// the paper's cost model: rules affecting only local state cost zero time,
// message passing costs constant time (one simulated time unit per hop by
// default).
//
// The kernel is single-goroutine and fully deterministic: events at equal
// times fire in scheduling order, and all randomness flows from a seeded
// SplitMix64 generator, so every experiment is exactly reproducible from its
// seed.
//
// The event core is allocation-free in steady state: events are typed value
// records (message delivery, timer firing, or a closure escape hatch) stored
// in a slab with a free-list. Scheduling a message or timer copies the
// payload into a recycled slab slot — no closure, no per-event heap object,
// no interface boxing — and that is the only copy the engine makes on the way
// in: both by-value message doors write the slot through one pointer-taking
// helper. On the way out an event is dispatched where it lies, its payload
// passed to the handler straight from the slot, and the slot is recycled
// after the handler returns, by index. See DESIGN.md §8 ("Allocation
// discipline": slot hygiene, copy discipline).
//
// Ordering is a timing wheel of wheelSize buckets indexed by at&wheelMask
// for events inside the horizon [now, now+W) — the paper's cost model puts
// nearly every event at now+1, which the wheel schedules and pops in O(1) —
// backed by a far-future overflow 4-ary min-heap of (at, seq, slot) keys
// that cascades into the wheel as the clock advances (DESIGN.md §10). The
// order is (at, seq): equal-time FIFO.
package sim

import (
	"errors"
	"slices"

	"adaptivetoken/internal/protocol"
)

// Time is a point in simulated time, in abstract time units (the paper's
// "message delays").
type Time int64

// Handler consumes the engine's typed events: message deliveries scheduled
// with AtMessage/AfterMessage and timer firings scheduled with
// AtTimer/AfterTimer. The effects interpreter of internal/host implements
// it; tests may substitute their own.
type Handler interface {
	// Arrive processes one delivered message.
	Arrive(m protocol.Message)
	// FireTimer fires one armed timer at node.
	FireTimer(node int, tm protocol.Timer)
}

// eventOp discriminates the typed event records.
type eventOp uint8

const (
	// opFunc is the closure escape hatch (At/After) used by workload
	// injection, bootstrap and tests.
	opFunc eventOp = iota
	// opMessage delivers rec.msg via the handler.
	opMessage
	// opTimer fires rec.tm at rec.node via the handler.
	opTimer
)

// eventRec is one scheduled event's payload, stored by value in the slab.
// Exactly one of the op-specific fields is meaningful. next chains records
// into a timing-wheel bucket (stored as slab index + 1 so the zero value
// means end-of-chain); the overflow heap ignores it.
type eventRec struct {
	op   eventOp
	node int32
	next int32
	fn   func()
	msg  protocol.Message
	tm   protocol.Timer
}

// heapEntry is the ordering key of one far-future event: fire time, FIFO
// tie-breaker, and the slab slot holding its payload. Keeping the key small
// (24 bytes) makes overflow-heap sifts cheap; the fat payload never moves.
type heapEntry struct {
	at  Time
	seq uint64
	idx int32
}

// Engine is a discrete-event simulator: a scheduler of timestamped typed
// events and a virtual clock.
type Engine struct {
	now Time

	// Buckets are intrusive FIFO chains through the slab (eventRec.next),
	// one per slot; slot s holds the unique time t in
	// [now, now+wheelSize) with t&wheelMask == s. occ is the slot-occupancy
	// bitmap the next-event scan runs over; overflow holds events at or
	// beyond the horizon, cascaded in by advance. All indices in head/tail
	// are slab index + 1 (0 = empty).
	wheelHead []int32
	wheelTail []int32
	occ       []uint64
	wheelLen  int         // pending events linked into buckets
	overflow  []heapEntry // 4-ary min-heap of events at >= now+wheelSize

	recs    []eventRec // payload slab, indexed by heapEntry.idx / chain links
	free    []int32    // recycled slab slots
	seq     uint64
	rng     *RNG
	events  int
	handler Handler
}

// NewEngine returns an engine with its clock at zero and randomness seeded
// by seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:       NewRNG(seed),
		wheelHead: make([]int32, wheelSize),
		wheelTail: make([]int32, wheelSize),
		occ:       make([]uint64, wheelSize/64),
	}
}

// SetHandler installs the consumer of typed message/timer events. It must
// be set before the first AtMessage/AtTimer call.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Events returns the number of events executed so far.
func (e *Engine) Events() int { return e.events }

// Pending returns the number of scheduled, not yet executed events.
func (e *Engine) Pending() int {
	return e.wheelLen + len(e.overflow)
}

// ErrPastEvent is returned when scheduling strictly before the current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// alloc grabs a slab slot from the free-list (or grows the slab). The
// caller fills the returned record, then hands the slot to schedule.
func (e *Engine) alloc() (int32, *eventRec) {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.recs = append(e.recs, eventRec{})
		idx = int32(len(e.recs) - 1)
	}
	return idx, &e.recs[idx]
}

// Reserve makes room in the slab for n more pending events, so a caller that
// is about to schedule a known number — a whole workload's requests — pays
// for one allocation of the right size instead of the slab doubling its way
// there under it.
func (e *Engine) Reserve(n int) {
	e.recs = slices.Grow(e.recs, max(0, n-len(e.free)))
}

// schedule keys slab slot idx at time t. Equal-time events dispatch in
// schedule order: the wheel appends to a FIFO bucket, and its overflow
// cascades in (at, seq) order strictly before any same-time direct append
// can happen — see DESIGN.md §10 for the ordering argument.
func (e *Engine) schedule(t Time, idx int32) {
	e.seq++
	if t < e.now+wheelSize {
		e.wheelLink(int(t)&wheelMask, idx)
	} else {
		heapPush(&e.overflow, heapEntry{at: t, seq: e.seq, idx: idx})
	}
}

// At schedules fn to run at absolute time t. Events at equal times run in
// scheduling order. This is the closure escape hatch for workload injection
// and tests; the protocol hot paths use the typed AtMessage/AtTimer.
func (e *Engine) At(t Time, fn func()) error {
	if t < e.now {
		return ErrPastEvent
	}
	idx, rec := e.alloc()
	rec.op = opFunc
	rec.fn = fn
	e.schedule(t, idx)
	return nil
}

// After schedules fn to run d time units from now. Negative delays are
// clamped to zero.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	// Scheduling now or later can never fail.
	_ = e.At(e.now+d, fn)
}

// AtMessage schedules delivery of m at absolute time t via the handler.
func (e *Engine) AtMessage(t Time, m protocol.Message) error {
	if t < e.now {
		return ErrPastEvent
	}
	e.storeMessage(t, &m)
	return nil
}

// AfterMessage schedules delivery of m after d time units. Negative delays
// are clamped to zero.
func (e *Engine) AfterMessage(d Time, m protocol.Message) {
	if d < 0 {
		d = 0
	}
	e.storeMessage(e.now+d, &m)
}

// storeMessage copies *m into a slab slot keyed at t >= now: the one copy
// behind both by-value doors above.
func (e *Engine) storeMessage(t Time, m *protocol.Message) {
	if e.handler == nil {
		panic("sim: AtMessage without a Handler (call SetHandler first)")
	}
	idx, rec := e.alloc()
	rec.op = opMessage
	rec.msg = *m
	e.schedule(t, idx)
}

// AtTimer schedules timer tm to fire at node at absolute time t via the
// handler.
func (e *Engine) AtTimer(t Time, node int, tm protocol.Timer) error {
	if t < e.now {
		return ErrPastEvent
	}
	if e.handler == nil {
		panic("sim: AtTimer without a Handler (call SetHandler first)")
	}
	idx, rec := e.alloc()
	rec.op = opTimer
	rec.node = int32(node)
	rec.tm = tm
	e.schedule(t, idx)
	return nil
}

// AfterTimer schedules timer tm to fire at node after d time units.
// Negative delays are clamped to zero.
func (e *Engine) AfterTimer(d Time, node int, tm protocol.Timer) {
	if d < 0 {
		d = 0
	}
	_ = e.AtTimer(e.now+d, node, tm)
}

// dispatch runs the event in slab slot idx where it lies, then recycles the
// slot. Only the op's own payload leaves the slot, as the argument of the
// call; the 184-byte record is never copied out. The slot stays off the
// free-list while the callback runs, so nothing the callback schedules can
// overwrite it, and it is recycled afterwards by index, not through a
// pointer taken before the call: the callback may have grown the slab and
// moved every record, but the index still names the same slot. Clearing the
// reference-bearing fields keeps recycled slots from retaining messages or
// closures.
func (e *Engine) dispatch(idx int32) {
	e.events++
	switch slot := &e.recs[idx]; slot.op {
	case opFunc:
		slot.fn()
	case opMessage:
		e.handler.Arrive(slot.msg)
	case opTimer:
		e.handler.FireTimer(int(slot.node), slot.tm)
	}
	slot := &e.recs[idx]
	slot.fn = nil
	slot.msg.Attach = ""
	slot.msg.Served = nil
	slot.next = 0
	e.free = append(e.free, idx)
}

// Step executes the earliest pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	s := int(e.now) & wheelMask
	if e.wheelHead[s] == 0 {
		t, ok := e.nextAt()
		if !ok {
			return false
		}
		e.advance(t)
		s = int(e.now) & wheelMask
	}
	e.popBucket(s)
	return true
}

// RunUntil executes events until the clock would pass limit or the queue
// drains. Events scheduled exactly at limit still run. It returns the
// number of events executed.
//
// This is the batch-dispatch hot path: each same-timestamp bucket drains
// as one back-to-back sweep — no scheduler consultation between events —
// and events a handler schedules at the current time join the tail of the
// sweep, exactly where the (at, seq) order puts them.
func (e *Engine) RunUntil(limit Time) int {
	n := 0
	for {
		t, ok := e.nextAt()
		if !ok || t > limit {
			break
		}
		if t > e.now {
			e.advance(t)
		}
		s := int(e.now) & wheelMask
		for e.wheelHead[s] != 0 {
			e.popBucket(s)
			n++
		}
	}
	if e.now < limit {
		e.advance(limit)
	}
	return n
}

// Drain executes events until none remain or maxEvents have run. It returns
// the number of events executed.
func (e *Engine) Drain(maxEvents int) int {
	n := 0
	for n < maxEvents && e.Step() {
		n++
	}
	return n
}

// entryLess is the event order: fire time, then scheduling order (FIFO at
// equal times).
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends entry and sifts it up the 4-ary overflow heap.
func heapPush(hp *[]heapEntry, entry heapEntry) {
	*hp = append(*hp, entry)
	h := *hp
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// heapPop removes and returns the minimum entry.
func heapPop(hp *[]heapEntry) heapEntry {
	h := *hp
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	*hp = h[:last]
	siftDown(*hp, 0)
	return top
}

// siftDown restores heap order below i. A 4-ary layout halves the tree
// height of a binary heap; the extra sibling comparisons stay in one cache
// line because the keys are 24 bytes.
func siftDown(h []heapEntry, i int) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			return
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[best]) {
				best = j
			}
		}
		if !entryLess(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
