package host

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
)

// armPaths are the clock's two ways to arm a timer; the leak and Stop-race
// tests run against both. i numbers the timers of one test; fired counts
// deliveries.
var armPaths = []struct {
	name string
	arm  func(c *WallClock, d sim.Time, i int, fired *atomic.Int64)
}{
	{"AfterFunc", func(c *WallClock, d sim.Time, _ int, fired *atomic.Int64) {
		c.AfterFunc(d, func() { fired.Add(1) })
	}},
	// One generation throughout: nothing is superseded, every timer must
	// fire or be stopped.
	{"AfterTimer", func(c *WallClock, d sim.Time, _ int, _ *atomic.Int64) {
		c.AfterTimer(d, 0, protocol.Timer{Kind: protocol.TimerHold, Gen: 1})
	}},
	{"AfterTimer rising generations", func(c *WallClock, d sim.Time, i int, _ *atomic.Int64) {
		c.AfterTimer(d, 0, protocol.Timer{Kind: protocol.TimerHold, Gen: uint64(i)})
	}},
}

// lockedClock builds a clock whose serializer is a plain mutex and whose
// timer sink counts into fired.
func lockedClock(fired *atomic.Int64) *WallClock {
	var mu sync.Mutex
	c := NewWallClock(time.Nanosecond, func(fn func()) {
		mu.Lock()
		defer mu.Unlock()
		fn()
	})
	c.SetTimerSink(func(int, protocol.Timer) { fired.Add(1) })
	return c
}

// TestWallClockZeroDelayNoLeak hammers the clock with zero-delay timers:
// every timer must either fire (and deregister itself) or be canceled —
// Outstanding() must reach 0, never counting a fired timer forever.
// Zero-delay timers fire on another goroutine possibly before the arming
// call's caller resumes; the registration must not lose that race.
func TestWallClockZeroDelayNoLeak(t *testing.T) {
	for _, p := range armPaths {
		t.Run(p.name, func(t *testing.T) {
			var fired atomic.Int64
			c := lockedClock(&fired)
			const timers = 2000
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < timers/4; i++ {
						p.arm(c, 0, g*timers+i, &fired)
					}
				}(g)
			}
			wg.Wait()
			deadline := time.Now().Add(10 * time.Second)
			for c.Outstanding() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("Outstanding()=%d never reached 0 (fired %d/%d)",
						c.Outstanding(), fired.Load(), timers)
				}
				time.Sleep(time.Millisecond)
			}
			c.Stop()
			if n := c.Outstanding(); n != 0 {
				t.Fatalf("Outstanding()=%d after Stop", n)
			}
		})
	}
}

// TestWallClockStopRace races Stop against concurrent arming and firing:
// whatever the interleaving, Outstanding() is 0 once Stop returns and no
// timer entry survives.
func TestWallClockStopRace(t *testing.T) {
	for _, p := range armPaths {
		t.Run(p.name, func(t *testing.T) {
			for round := 0; round < 50; round++ {
				var fired atomic.Int64
				c := lockedClock(&fired)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						p.arm(c, sim.Time(i%3), i, &fired)
					}
				}()
				time.Sleep(time.Duration(round%5) * 10 * time.Microsecond)
				c.Stop()
				wg.Wait()
				if n := c.Outstanding(); n != 0 {
					t.Fatalf("round %d: Outstanding()=%d after Stop", round, n)
				}
			}
		})
	}
}

const hour = sim.Time(time.Hour)

// TestWallClockSupersedesLowerGenerations: arming a kind at generation G
// cancels that node's outstanding timers of the kind below G and nothing
// else.
func TestWallClockSupersedesLowerGenerations(t *testing.T) {
	var fired atomic.Int64
	c := lockedClock(&fired)
	defer c.Stop()
	for gen := uint64(1); gen <= 1000; gen++ {
		c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerResearch, Gen: gen})
	}
	if n := c.Outstanding(); n != 1 {
		t.Fatalf("Outstanding()=%d after 1000 rising generations of one kind, want 1", n)
	}
	// Other kinds, other nodes, equal and lower generations are all kept.
	c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerRecovery, Gen: 2000})
	c.AfterTimer(hour, 1, protocol.Timer{Kind: protocol.TimerResearch, Gen: 2000})
	c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerResearch, Gen: 1000})
	c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerResearch, Gen: 999})
	if n := c.Outstanding(); n != 5 {
		t.Fatalf("Outstanding()=%d, want 5: only lower generations of the same node and kind are superseded", n)
	}
	c.AfterFunc(hour, func() {})
	c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerResearch, Gen: 1001})
	if n := c.Outstanding(); n != 4 {
		t.Fatalf("Outstanding()=%d, want 4 (research 1001, recovery, node 1's research, the closure)", n)
	}
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d one-hour timers fired", n)
	}
}

// TestWallClockEqualGenerationsBothFire: a re-armed timer repeats its
// generation, and neither copy may be taken for stale.
func TestWallClockEqualGenerationsBothFire(t *testing.T) {
	got := make(chan protocol.Timer, 2)
	c := NewWallClock(time.Microsecond, func(fn func()) { fn() })
	c.SetTimerSink(func(_ int, tm protocol.Timer) { got <- tm })
	defer c.Stop()
	c.AfterTimer(1, 3, protocol.Timer{Kind: protocol.TimerResearch, Gen: 7, Delay: 1})
	c.AfterTimer(2, 3, protocol.Timer{Kind: protocol.TimerResearch, Gen: 7, Delay: 2})
	for i := 0; i < 2; i++ {
		select {
		case tm := <-got:
			if tm.Kind != protocol.TimerResearch || tm.Gen != 7 {
				t.Fatalf("sink got %+v", tm)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 2 equal-generation timers fired", i)
		}
	}
}

// TestWallClockSupersededNeverReachesSink: the wake-up for generation 1 has
// already fired and sits in front of the serializer — too late to stop it —
// when generation 2 is armed. Generation 1 must still not be delivered.
func TestWallClockSupersededNeverReachesSink(t *testing.T) {
	var mu sync.Mutex
	entered, left := make(chan struct{}, 1), make(chan struct{}, 1)
	c := NewWallClock(time.Nanosecond, func(fn func()) {
		entered <- struct{}{}
		mu.Lock()
		fn()
		mu.Unlock()
		left <- struct{}{}
	})
	var sunk []protocol.Timer // guarded by mu
	c.SetTimerSink(func(_ int, tm protocol.Timer) { sunk = append(sunk, tm) })
	defer c.Stop()

	mu.Lock() // the owner is busy, as a runtime is while it applies a step
	c.AfterTimer(0, 0, protocol.Timer{Kind: protocol.TimerHold, Gen: 1})
	<-entered // generation 1 has fired and waits for the owner
	c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerHold, Gen: 2})
	mu.Unlock()
	<-left

	mu.Lock()
	defer mu.Unlock()
	if len(sunk) != 0 {
		t.Fatalf("superseded timer reached the sink: %+v", sunk)
	}
	if n := c.Outstanding(); n != 1 {
		t.Fatalf("Outstanding()=%d, want 1 (generation 2)", n)
	}
}

// TestWallClockWakeFollowsEarliest: all typed timers share one wake-up. A
// record armed for before the pending wake-up pulls it forward; a record
// left behind when the earliest one is superseded still fires at its own
// time, after a wake-up that found nothing due; records come out earliest
// first whatever the arming order.
func TestWallClockWakeFollowsEarliest(t *testing.T) {
	type firing struct {
		tm protocol.Timer
		at time.Time
	}
	got := make(chan firing, 8)
	c := NewWallClock(time.Millisecond, func(fn func()) { fn() })
	c.SetTimerSink(func(_ int, tm protocol.Timer) { got <- firing{tm, time.Now()} })
	defer c.Stop()

	start := time.Now()
	c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerRecovery, Gen: 1})
	c.AfterTimer(60, 0, protocol.Timer{Kind: protocol.TimerResearch, Gen: 1}) // pulls the wake-up forward
	c.AfterTimer(5, 0, protocol.Timer{Kind: protocol.TimerHold, Gen: 1})      // and again
	c.AfterTimer(30, 0, protocol.Timer{Kind: protocol.TimerPushRound, Gen: 1})
	c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerHold, Gen: 2}) // the 5 ms record is gone, its wake-up stays

	for _, want := range []struct {
		kind  protocol.TimerKind
		after time.Duration
	}{{protocol.TimerPushRound, 30 * time.Millisecond}, {protocol.TimerResearch, 60 * time.Millisecond}} {
		select {
		case f := <-got:
			if f.tm.Kind != want.kind || f.tm.Gen != 1 {
				t.Fatalf("sink got %+v, want kind %v", f.tm, want.kind)
			}
			if d := f.at.Sub(start); d < want.after {
				t.Fatalf("%v fired %v after arming, before its %v delay", want.kind, d, want.after)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v never fired", want.kind)
		}
	}
	if n := c.Outstanding(); n != 2 {
		t.Fatalf("Outstanding()=%d, want 2 (the one-hour recovery and hold)", n)
	}
}

// TestWallClockArmingDoesNotAllocate: superseding a far-off timer of the
// same kind — what a node's every request does — neither allocates nor
// creates a time.Timer.
func TestWallClockArmingDoesNotAllocate(t *testing.T) {
	var fired atomic.Int64
	c := lockedClock(&fired)
	defer c.Stop()
	gen := uint64(0)
	arm := func() {
		gen++
		c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerResearch, Gen: gen})
		c.AfterTimer(hour, 0, protocol.Timer{Kind: protocol.TimerRecovery, Gen: gen})
	}
	arm() // creates the wake-up and sizes the list
	wake := c.wake
	if allocs := testing.AllocsPerRun(1000, arm); allocs != 0 {
		t.Fatalf("%v allocations per request's two timers, want 0", allocs)
	}
	if c.wake != wake || c.Outstanding() != 2 {
		t.Fatalf("wake-up replaced or records piled up: Outstanding()=%d", c.Outstanding())
	}
}
