package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// simCell is one simulated ring under one Poisson load.
type simCell struct {
	variant protocol.Variant
	n       int
	gap     float64
}

// simSpec is a simulator workload: every repeat builds each cell's ring
// afresh and serves requests on it. Repeats replay the same seed, so their
// counts must agree to the last digit and only host time varies.
type simSpec struct {
	cells    []simCell
	requests int
	// warm is the length of the warm-up run a set-up sample makes on each
	// freshly built ring.
	warm int
	// probe indexes the cell whose responsiveness and waits are the
	// workload's reported ones.
	probe int
}

// simMaxTime bounds a run in simulated time (bench.PaperOptions' bound).
const simMaxTime sim.Time = 50_000_000

func fig9Cells() []simCell {
	var cells []simCell
	for _, n := range []int{8, 16, 32, 64, 100, 128, 256, 512, 1000} {
		for _, v := range []protocol.Variant{protocol.RingToken, protocol.LinearSearch, protocol.BinarySearch} {
			cells = append(cells, simCell{v, n, 10})
		}
	}
	return cells
}

// config is bench's figureConfig: rotation GC wherever there are traps.
func (c simCell) config() protocol.Config {
	cfg := protocol.Config{Variant: c.variant, N: c.n}
	if c.variant != protocol.RingToken {
		cfg.TrapGC = protocol.GCRotation
	}
	return cfg
}

func (c simCell) String() string { return fmt.Sprintf("%s n=%d gap=%g", c.variant, c.n, c.gap) }

// simCounts are the figures of a repeat that must repeat exactly.
type simCounts struct {
	events, grants, issued         int
	msgs, tokenMsgs, searchMsgs    int64
	probeResp, probeP50, probeP99  float64
	probeGrants                    int
	deliver, timer, request, obsGr int64 // traced passes only
}

// simRep is one repeat: its counts and the host time and allocation of its
// RunWorkload calls (ring construction is outside both).
type simRep struct {
	counts    simCounts
	run       time.Duration
	alloc     uint64
	peakBytes float64 // live heap per node with every ring of the repeat alive; first repeat only
}

// stepCounter is the traced pass's observer on the simulator: counts by
// step kind, no clock reads, so the counts can be held against the
// untraced pass's.
type stepCounter struct {
	deliver, timer, request, grants int64
}

func (c *stepCounter) OnStep(s host.Step) {
	switch s.Kind {
	case host.StepDeliver:
		c.deliver++
	case host.StepTimer:
		c.timer++
	case host.StepRequest:
		c.request++
	}
	if s.Effects.Granted {
		c.grants++
	}
}

func (c *stepCounter) OnFault(host.FaultEvent) {}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runRep builds and runs every cell once. measureMem keeps the rings alive
// to the end and sizes them together with a forced collection on either
// side; traced attaches a stepCounter to every ring.
func (s simSpec) runRep(seed uint64, measureMem, traced bool, rep *report) (simRep, error) {
	var out simRep
	var obs *stepCounter
	opts := driver.Options{Seed: seed}
	if traced {
		obs = &stepCounter{}
		opts.Observer = obs
	}
	var base uint64
	var alive []*driver.Runner
	nodes := 0
	if measureMem {
		base = heapAlloc()
	}
	for i, c := range s.cells {
		probe := i == s.probe
		r, err := driver.New(c.config(), opts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", c, err)
		}
		a0 := totalAlloc()
		t0 := time.Now()
		end, err := r.RunWorkload(workload.Poisson{N: c.n, MeanGap: c.gap}, s.requests, simMaxTime)
		out.run += time.Since(t0)
		out.alloc += totalAlloc() - a0
		if err != nil {
			return out, fmt.Errorf("%s: %w", c, err)
		}
		if measureMem {
			alive = append(alive, r)
			nodes += c.n
		}
		if err := r.InvariantErr(); err != nil {
			rep.violate("%s: single-token invariant: %v", c, err)
		}
		if tc := r.TokenCount(); tc != 1 {
			rep.violate("%s: token count %d, want 1", c, tc)
		}
		res := r.Summarize(end)
		if res.Grants != res.Issued {
			rep.violate("%s: %d grants for %d issued requests", c, res.Grants, res.Issued)
		}
		k := &out.counts
		k.events += res.SimEvents
		k.grants += res.Grants
		k.issued += res.Issued
		k.msgs += res.TotalMessages
		k.tokenMsgs += res.Messages[protocol.MsgToken.String()] + res.Messages[protocol.MsgTokenReturn.String()]
		k.searchMsgs += res.Messages[protocol.MsgSearch.String()]
		if probe {
			waits := r.Waits.Samples()
			sort.Float64s(waits)
			k.probeResp = res.Responsiveness.Mean
			k.probeP50 = groupedQuantile(waits, 0.50)
			k.probeP99 = groupedQuantile(waits, 0.99)
			k.probeGrants = res.Grants
		}
	}
	if measureMem {
		out.peakBytes = (float64(heapAlloc()) - float64(base)) / float64(nodes)
		runtime.KeepAlive(alive)
	}
	if obs != nil {
		out.counts.deliver, out.counts.timer = obs.deliver, obs.timer
		out.counts.request, out.counts.obsGr = obs.request, obs.grants
	}
	return out, nil
}

// setupSample is what a user pays before the first timed request: building
// every ring of the workload and a short warm-up run on each.
func (s simSpec) setupSample(seed uint64) (time.Duration, error) {
	t0 := time.Now()
	for _, c := range s.cells {
		r, err := driver.New(c.config(), driver.Options{Seed: seed})
		if err != nil {
			return 0, err
		}
		if _, err := r.RunWorkload(workload.Poisson{N: c.n, MeanGap: c.gap}, s.warm, simMaxTime); err != nil {
			return 0, fmt.Errorf("warm-up %s: %w", c, err)
		}
	}
	return time.Since(t0), nil
}

// repeatFor runs repeats until their RunWorkload time fills window (at least
// one), holding every repeat's counts against the first's.
func (s simSpec) repeatFor(cfg runConfig, window time.Duration, traced bool, rep *report) ([]simRep, error) {
	var reps []simRep
	var spent time.Duration
	name := "repeat"
	if traced {
		name = "traced_repeat"
	}
	for len(reps) == 0 || spent < window {
		var r simRep
		err := cfg.spans.timed(name, "", func() (err error) {
			r, err = s.runRep(cfg.seed, len(reps) == 0, traced, rep)
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(reps) > 0 && r.counts != reps[0].counts {
			rep.violate("repeat %d of the same seed counted %+v, the first %+v", len(reps), r.counts, reps[0].counts)
		}
		reps = append(reps, r)
		spent += r.run
	}
	return reps, nil
}

// rates reduces repeats to the medians the report carries.
func rates(reps []simRep) (eventsPerS, grantsPerS float64) {
	var ev, gr samples
	for _, r := range reps {
		ev = append(ev, float64(r.counts.events)/r.run.Seconds())
		gr = append(gr, float64(r.counts.grants)/r.run.Seconds())
	}
	return ev.median(), gr.median()
}

func (s simSpec) run(cfg runConfig) (*report, error) {
	rep := newReport()
	untraced := cfg.window
	if cfg.trace {
		untraced = cfg.window / 2
	}

	var setups samples
	for i := 0; i < cfg.setups; i++ {
		d, err := s.setupSample(cfg.seed)
		if err != nil {
			return nil, err
		}
		setups.addDuration(d)
	}
	rep.set("setup_s", setups.median()/1e9)
	rep.note("setup_s", "median of %d set-ups", len(setups))

	reps, err := s.repeatFor(cfg, untraced, false, rep)
	if err != nil {
		return nil, err
	}
	first := reps[0].counts
	eventsPerS, grantsPerS := rates(reps)
	for _, r := range reps {
		rep.attempted += int64(r.counts.issued)
		rep.failed += int64(r.counts.issued - r.counts.grants)
	}
	grants := float64(first.grants)
	rep.set("grants_per_s", grantsPerS)
	rep.note("grants_per_s", "simulated grants per host second, median of %d repeats", len(reps))
	rep.set("msgs_per_grant", float64(first.msgs)/grants)
	rep.set("resp_mean_ticks", first.probeResp)
	rep.set("wait_p50_ticks", first.probeP50)
	rep.set("wait_p99_ticks", first.probeP99)
	rep.note("resp_mean_ticks", "%s, %d grants", s.cells[s.probe], first.probeGrants)
	var alloc samples
	for _, r := range reps {
		alloc = append(alloc, float64(r.alloc))
	}
	rep.set("alloc_bytes_per_grant", alloc.median()/grants)
	rep.set("peak_bytes_per_node", reps[0].peakBytes)
	rep.note("peak_bytes_per_node", "every ring of a repeat, after its run")

	// The simulator's own units, for the per-layer table.
	nsPerEvent := 1e9 / eventsPerS
	rep.set("sim_events_per_s", eventsPerS)
	rep.set("sim_alloc_bytes_per_event", alloc.median()/float64(first.events))
	rep.set("driver.ns_per_event", nsPerEvent)
	rep.set("protocol.token_msgs_per_grant", float64(first.tokenMsgs)/grants)
	rep.set("protocol.search_msgs_per_grant", float64(first.searchMsgs)/grants)

	if !cfg.trace {
		return rep, nil
	}
	traced, err := s.repeatFor(cfg, cfg.window-untraced, true, rep)
	if err != nil {
		return nil, err
	}
	tc := traced[0].counts
	rep.set("driver.deliver_steps", float64(tc.deliver))
	rep.set("driver.timer_steps", float64(tc.timer))
	rep.set("driver.request_steps", float64(tc.request))
	rep.set("driver.grants", float64(tc.obsGr))
	// An observer must not change what it observes.
	tc.deliver, tc.timer, tc.request, tc.obsGr = 0, 0, 0, 0
	if tc != first {
		rep.violate("traced repeat counted %+v, untraced %+v", tc, first)
	}
	if o := traced[0].counts; o.obsGr != int64(first.grants) || o.request != int64(first.issued) {
		rep.violate("observer saw %d grants and %d requests, the driver %d and %d", o.obsGr, o.request, first.grants, first.issued)
	}
	tracedEvents, _ := rates(traced)
	rep.set("trace.overhead_pct", 100*(eventsPerS-tracedEvents)/eventsPerS)
	rep.note("trace.overhead_pct", "on sim_events_per_s, %d traced repeats", len(traced))
	return rep, nil
}
