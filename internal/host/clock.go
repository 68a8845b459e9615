package host

import (
	"slices"
	"sync"
	"time"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
)

// SimClock adapts the discrete-event engine to the host Clock: Now is the
// virtual time, AfterFunc schedules on the engine's event scheduler.
type SimClock struct {
	Eng *sim.Engine
}

// Now implements Clock.
func (c SimClock) Now() sim.Time { return c.Eng.Now() }

// AfterFunc implements Clock.
func (c SimClock) AfterFunc(d sim.Time, fn func()) { c.Eng.After(d, fn) }

// AfterTimer implements TimerScheduler: armed timers become typed event
// records in the engine's slab instead of captured closures.
func (c SimClock) AfterTimer(d sim.Time, node int, tm protocol.Timer) {
	c.Eng.AfterTimer(d, node, tm)
}

// WallClock is the live Clock: Now is wall time since construction divided
// by the protocol time unit, and both timer paths fire through a serializer
// (the owning runtime's lock). Stop cancels every outstanding timer;
// callbacks already in flight are dropped by the serializer's stopped check,
// so Stop never blocks on timer goroutines and no timer leaks past shutdown.
//
// Protocol timers take the typed AfterTimer path, which also cancels what
// can never fire usefully: arming (node, Kind, Gen) drops every outstanding
// timer of that node and kind with a lower Gen. That is sound because the
// state machine checks a firing's Gen against a per-kind counter that only
// grows (see protocol.Timer), so a lower generation would be ignored on
// arrival; equal generations are all kept. Without it every request leaves
// its research and recovery timers armed for thousands of units.
//
// The typed timers are records in a short list behind ONE time.Timer, which
// is reprogrammed only when a record falls due before the wake-up already
// pending. A request's timers lie seconds ahead and are superseded by the
// next request, so a busy node arms and drops them without touching the Go
// runtime's timer heap or allocating; the wake-up fires about once per
// timeout, finds nothing due and moves itself to the earliest record.
//
// The closure AfterFunc path carries no generation and cancels nothing; it
// serves fault-delayed sends, one time.Timer each.
type WallClock struct {
	unit  time.Duration
	start time.Time
	run   func(fn func())
	sink  func(node int, tm protocol.Timer)

	mu      sync.Mutex
	timers  map[*time.Timer]struct{} // AfterFunc path
	typed   []wallTimer              // AfterTimer path, in arming order; superseding keeps it short
	wake    *time.Timer              // fires the due records of typed; nil until the first AfterTimer
	wakeAt  time.Time                // when wake will fire or has fired undelivered; zero: no wake-up pending
	stopped bool
}

// wallTimer is one armed AfterTimer record.
type wallTimer struct {
	due  time.Time
	node int
	tm   protocol.Timer
}

// NewWallClock builds a wall clock with the given protocol time unit. run
// executes timer callbacks on the owner's execution context (typically:
// take the runtime lock, check for shutdown, call fn).
func NewWallClock(unit time.Duration, run func(fn func())) *WallClock {
	return &WallClock{
		unit:   unit,
		start:  time.Now(),
		run:    run,
		timers: make(map[*time.Timer]struct{}),
	}
}

// SetTimerSink names the receiver of fired AfterTimer records (typically
// Host.FireTimer); it runs inside the serializer. Set it before the first
// AfterTimer.
func (c *WallClock) SetTimerSink(sink func(node int, tm protocol.Timer)) {
	c.sink = sink
}

// Now implements Clock.
func (c *WallClock) Now() sim.Time {
	return sim.Time(time.Since(c.start) / c.unit)
}

// AfterFunc implements Clock.
func (c *WallClock) AfterFunc(d sim.Time, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	var handle *time.Timer
	handle = time.AfterFunc(time.Duration(d)*c.unit, func() {
		c.mu.Lock()
		delete(c.timers, handle)
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
		c.run(fn)
	})
	c.timers[handle] = struct{}{}
}

// AfterTimer implements TimerScheduler.
func (c *WallClock) AfterTimer(d sim.Time, node int, tm protocol.Timer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	if c.sink == nil {
		panic("host: WallClock.AfterTimer before SetTimerSink")
	}
	c.typed = slices.DeleteFunc(c.typed, func(old wallTimer) bool {
		return old.node == node && old.tm.Kind == tm.Kind && old.tm.Gen < tm.Gen
	})
	due := time.Now().Add(time.Duration(d) * c.unit)
	c.typed = append(c.typed, wallTimer{due: due, node: node, tm: tm})
	c.wakeBy(due)
}

// wakeBy makes sure a wake-up is pending at or before due. A pending
// wake-up that comes earlier is left alone, also when the record it was
// programmed for is gone: it then finds nothing due. Called with c.mu held.
func (c *WallClock) wakeBy(due time.Time) {
	if !c.wakeAt.IsZero() && !due.Before(c.wakeAt) {
		return
	}
	c.wakeAt = due
	if c.wake == nil {
		c.wake = time.AfterFunc(time.Until(due), c.fire)
		return
	}
	c.wake.Reset(time.Until(due))
}

func (c *WallClock) fire() { c.run(c.deliverDue) }

// deliverDue runs inside the serializer, where no arming can interleave
// with a delivery: it hands the due records to the sink one at a time,
// earliest first, each taken off the list only just before, so a record
// superseded or stopped at any moment before its turn never reaches the
// sink. Then it programs the wake-up for the earliest record left.
func (c *WallClock) deliverDue() {
	// Read once: what a delivery arms for right now falls after it and
	// gets a wake-up of its own, so the serializer is not held for a chain
	// of zero-delay timers.
	now := time.Now()
	for {
		c.mu.Lock()
		first, next := -1, -1
		for i, wt := range c.typed {
			switch {
			case wt.due.After(now):
				if next < 0 || wt.due.Before(c.typed[next].due) {
					next = i
				}
			case first < 0 || wt.due.Before(c.typed[first].due):
				first = i
			}
		}
		if first < 0 {
			c.wakeAt = time.Time{}
			if next >= 0 {
				c.wakeBy(c.typed[next].due)
			}
			c.mu.Unlock()
			return
		}
		wt := c.typed[first]
		c.typed = slices.Delete(c.typed, first, first+1)
		c.mu.Unlock()
		c.sink(wt.node, wt.tm)
	}
}

// Stop cancels all outstanding timers and rejects new ones.
func (c *WallClock) Stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopped = true
	for t := range c.timers {
		t.Stop()
	}
	c.timers = map[*time.Timer]struct{}{}
	if c.wake != nil {
		c.wake.Stop()
	}
	c.typed = nil
}

// Outstanding returns the number of armed, unfired timers (0 after Stop) —
// the shutdown leak check.
func (c *WallClock) Outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.timers) + len(c.typed)
}
