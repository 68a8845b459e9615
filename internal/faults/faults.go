// Package faults injects deterministic, seed-reproducible message faults
// into the simulation driver: per-class loss and duplication (cheap
// messages only, unless explicitly marked unsafe), bounded delivery jitter
// (which yields reordering), and node pause/resume windows.
//
// The injector owns its own RNG, separate from the engine's, so a faulty
// run perturbs the simulation only through the faults themselves: replaying
// a recorded schedule reproduces the exact execution without drawing any
// randomness. Every decision is keyed by the global message dispatch
// sequence number, which makes recorded schedules replayable and — because
// removing a later action never disturbs the sequence alignment of earlier
// ones — shrinkable.
package faults

import (
	"fmt"

	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/sim"
)

// Op is one fault operation applied to a dispatched message.
type Op string

const (
	OpDrop  Op = "drop"  // message vanishes
	OpDup   Op = "dup"   // message is delivered twice
	OpDelay Op = "delay" // extra delivery delay (reordering)
)

// Action is one recorded fault decision: at global dispatch sequence Seq,
// apply Op. Delay is the extra delivery time for OpDelay, and for OpDup the
// extra delay of the duplicate copy (0 = duplicate arrives with the usual
// model delay).
type Action struct {
	Seq   uint64 `json:"seq"`
	Op    Op     `json:"op"`
	Delay int64  `json:"delay,omitempty"`
}

// Pause freezes a node for [At, At+Dur): deliveries, timers, requests and
// releases targeting the node are queued and drained at resume, driving the
// protocol's recovery paths.
type Pause struct {
	Node int   `json:"node"`
	At   int64 `json:"at"`
	Dur  int64 `json:"dur"`
}

// ChurnOp is one membership event kind.
type ChurnOp string

const (
	ChurnJoin  ChurnOp = "join"  // node enters the view (epoch bump, state sync)
	ChurnLeave ChurnOp = "leave" // graceful departure, deferred until token-safe
	ChurnCrash ChurnOp = "crash" // fail-stop: node dies and leaves the view at once
)

// ChurnEvent is one deterministic membership event: at simulation time At,
// apply Op to Node. Like Pauses, churn events are time-keyed (not
// sequence-keyed) so they replay verbatim and shrink independently of the
// message stream.
type ChurnEvent struct {
	Op   ChurnOp `json:"op"`
	Node int     `json:"node"`
	At   int64   `json:"at"`
}

// Plan is a fault policy: probabilities and bounds from which the injector
// draws deterministic decisions. The zero Plan injects nothing.
type Plan struct {
	Seed uint64 `json:"seed"`

	// DropCheap / DupCheap are per-message probabilities for cheap
	// (non-token-bearing) messages. The paper's §4.4 safe subset.
	DropCheap float64 `json:"drop_cheap,omitempty"`
	DupCheap  float64 `json:"dup_cheap,omitempty"`

	// JitterProb / JitterMax add an extra uniform delay in [1, JitterMax]
	// to any message (cheap or token-bearing; delaying is always safe)
	// with probability JitterProb.
	JitterProb float64 `json:"jitter_prob,omitempty"`
	JitterMax  int64   `json:"jitter_max,omitempty"`

	// DropToken / DupToken break the safe subset: they apply to
	// token-bearing messages and require Unsafe to be set. They exist so
	// the torture harness can plant real safety bugs and prove the
	// checkers catch them.
	Unsafe    bool    `json:"unsafe,omitempty"`
	DropToken float64 `json:"drop_token,omitempty"`
	DupToken  float64 `json:"dup_token,omitempty"`

	// Pauses are deterministic node freeze windows.
	Pauses []Pause `json:"pauses,omitempty"`

	// Churn are deterministic membership events (join/leave/crash).
	Churn []ChurnEvent `json:"churn,omitempty"`
}

// Validate enforces the safe-subset rule and probability ranges.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"DropCheap", p.DropCheap}, {"DupCheap", p.DupCheap},
		{"JitterProb", p.JitterProb},
		{"DropToken", p.DropToken}, {"DupToken", p.DupToken},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("faults: %s = %v out of [0,1]", pr.name, pr.v)
		}
	}
	if (p.DropToken > 0 || p.DupToken > 0) && !p.Unsafe {
		return fmt.Errorf("faults: token-bearing loss/duplication requires Plan.Unsafe (the §4.4 safe subset excludes it)")
	}
	if p.JitterMax < 0 {
		return fmt.Errorf("faults: JitterMax = %d negative", p.JitterMax)
	}
	if p.JitterProb > 0 && p.JitterMax == 0 {
		return fmt.Errorf("faults: JitterProb set but JitterMax is 0")
	}
	for _, pa := range p.Pauses {
		if pa.Dur <= 0 || pa.At < 0 || pa.Node < 0 {
			return fmt.Errorf("faults: malformed pause %+v", pa)
		}
	}
	for _, ce := range p.Churn {
		if ce.At < 0 || ce.Node < 0 {
			return fmt.Errorf("faults: malformed churn event %+v", ce)
		}
		switch ce.Op {
		case ChurnJoin, ChurnLeave, ChurnCrash:
		default:
			return fmt.Errorf("faults: unknown churn op %q", ce.Op)
		}
	}
	return nil
}

// Schedule is the replayable record of a faulty run: the concrete actions
// taken, keyed by dispatch sequence, plus the pause windows.
type Schedule struct {
	Actions []Action     `json:"actions,omitempty"`
	Pauses  []Pause      `json:"pauses,omitempty"`
	Churn   []ChurnEvent `json:"churn,omitempty"`
}

// Verdict is the injector's decision for one dispatched message.
type Verdict struct {
	Drop     bool
	Dup      bool
	Delay    sim.Time // extra delay for the primary delivery
	DupDelay sim.Time // extra delay for the duplicate copy
}

// Injector decides the fate of each dispatched message. In policy mode it
// draws from a Plan with its own RNG and records every decision; in replay
// mode it applies a recorded Schedule verbatim and draws nothing.
type Injector struct {
	plan    Plan
	rng     *sim.RNG
	seq     uint64
	actions []Action
	replay  map[uint64][]Action
	pauses  []Pause
	churn   []ChurnEvent
	stats   *metrics.Messages
}

// NewInjector builds a policy-mode injector for the plan.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		plan:   plan,
		rng:    sim.NewRNG(plan.Seed),
		pauses: append([]Pause(nil), plan.Pauses...),
		churn:  append([]ChurnEvent(nil), plan.Churn...),
		stats:  metrics.NewMessages(),
	}, nil
}

// Replay builds a replay-mode injector that reproduces a recorded schedule.
func Replay(sched Schedule) *Injector {
	byseq := make(map[uint64][]Action, len(sched.Actions))
	for _, a := range sched.Actions {
		byseq[a.Seq] = append(byseq[a.Seq], a)
	}
	return &Injector{
		replay: byseq,
		pauses: append([]Pause(nil), sched.Pauses...),
		churn:  append([]ChurnEvent(nil), sched.Churn...),
		stats:  metrics.NewMessages(),
	}
}

// OnMessage decides the fate of the next dispatched message. The expensive
// flag marks token-bearing messages (the unsafe class).
func (in *Injector) OnMessage(expensive bool) Verdict {
	seq := in.seq
	in.seq++
	if in.replay != nil {
		var v Verdict
		for _, a := range in.replay[seq] {
			switch a.Op {
			case OpDrop:
				v.Drop = true
				in.stats.IncDropped()
			case OpDup:
				v.Dup = true
				v.DupDelay = sim.Time(a.Delay)
				in.stats.IncDuplicated()
			case OpDelay:
				v.Delay = sim.Time(a.Delay)
				in.stats.IncDelayed()
			}
		}
		return v
	}

	var v Verdict
	drop, dup := in.plan.DropCheap, in.plan.DupCheap
	if expensive {
		drop, dup = in.plan.DropToken, in.plan.DupToken
	}
	if drop > 0 && in.rng.Float64() < drop {
		v.Drop = true
		in.record(Action{Seq: seq, Op: OpDrop})
		in.stats.IncDropped()
		return v
	}
	if dup > 0 && in.rng.Float64() < dup {
		v.Dup = true
		v.DupDelay = in.jitter()
		in.record(Action{Seq: seq, Op: OpDup, Delay: int64(v.DupDelay)})
		in.stats.IncDuplicated()
	}
	if in.plan.JitterProb > 0 && in.rng.Float64() < in.plan.JitterProb {
		v.Delay = 1 + sim.Time(in.rng.Intn(int(in.plan.JitterMax)))
		in.record(Action{Seq: seq, Op: OpDelay, Delay: int64(v.Delay)})
		in.stats.IncDelayed()
	}
	return v
}

// jitter draws the duplicate copy's extra delay (possibly 0).
func (in *Injector) jitter() sim.Time {
	if in.plan.JitterMax <= 0 {
		return 0
	}
	return sim.Time(in.rng.Intn(int(in.plan.JitterMax) + 1))
}

func (in *Injector) record(a Action) {
	in.actions = append(in.actions, a)
}

// Pauses returns the node freeze windows the driver must schedule.
func (in *Injector) Pauses() []Pause {
	return append([]Pause(nil), in.pauses...)
}

// Churn returns the membership events the driver must schedule.
func (in *Injector) Churn() []ChurnEvent {
	return append([]ChurnEvent(nil), in.churn...)
}

// Schedule returns the replayable record of every decision taken so far.
func (in *Injector) Schedule() Schedule {
	return Schedule{
		Actions: append([]Action(nil), in.actions...),
		Pauses:  append([]Pause(nil), in.pauses...),
		Churn:   append([]ChurnEvent(nil), in.churn...),
	}
}

// Stats returns the injector's fault counters ("dropped", "duplicated",
// "delayed") as a snapshot.
func (in *Injector) Stats() map[string]int64 { return in.stats.Snapshot() }
