package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adaptivetoken/internal/core"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/loadgen"
	"adaptivetoken/internal/mutex"
	"adaptivetoken/internal/node"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/transport"
)

// liveUnit is the wall-clock length of one protocol time unit on the live
// rings (core's default), the scale that turns measured latency into the
// ticks the simulator counts in.
const liveUnit = time.Millisecond

// liveSpec is a live workload: a ring of real runtimes in this process and
// a client load on its distributed mutex.
type liveSpec struct {
	tcp   bool
	nodes int
	// visit lists the nodes a closed loop's one client locks at in turn.
	// Empty means an open loop at rate sessions per second, each session at
	// a seeded uniformly random node.
	visit    []int
	rate     float64
	maxOut   int           // open loop: sessions in flight before arrivals are shed
	timeout  time.Duration // per acquire
	warmLoop time.Duration // how long the workload's own loop runs, untimed, in set-up
}

// ring is a running live ring, over either transport.
type ring struct {
	mutexes  []*mutex.Mutex
	runtimes []*node.Runtime
	// transport sums the TCP endpoints' counters that the report uses; nil
	// on the channel ring.
	transport func() transport.Stats
	shut      func()
	retries   int
}

// close stops every node, then checks that none left a timer armed.
func (r *ring) close(rep *report) {
	r.shut()
	for i, rt := range r.runtimes {
		if n := rt.PendingTimers(); n != 0 {
			rep.violate("node %d: %d timers still armed after close", i, n)
		}
	}
}

func newChanRing(n int, obs host.Observer) (*ring, error) {
	var opts []core.Option
	if obs != nil {
		opts = append(opts, core.WithObserver(obs))
	}
	c, err := core.NewCluster(n, opts...)
	if err != nil {
		return nil, err
	}
	r := &ring{shut: func() { _ = c.Close() }} // Close only reports the network's double close
	for i := 0; i < n; i++ {
		r.mutexes = append(r.mutexes, c.Mutex(i))
		r.runtimes = append(r.runtimes, c.Runtime(i))
	}
	return r, nil
}

// reserveAddrs binds n ephemeral loopback listeners and closes them, leaving
// n addresses that were free a moment ago.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// bringUpAttempts bounds the retries of a ring whose reserved port was
// taken between the reservation and the bind.
const bringUpAttempts = 8

// newTCPRing starts n core.LiveNode members on loopback TCP. A reserved
// port can be taken in the gap before its node binds it — by the outgoing
// connection of a node already up — so a bind error retries the whole ring
// on fresh ports and is counted.
func newTCPRing(n int, obs host.Observer) (*ring, error) {
	var opts []core.Option
	if obs != nil {
		opts = append(opts, core.WithObserver(obs))
	}
	for attempt := 0; ; attempt++ {
		addrs, err := reserveAddrs(n)
		if err != nil {
			return nil, err
		}
		nodes := make([]*core.LiveNode, n)
		shut := func() {
			for _, ln := range nodes {
				if ln != nil {
					_ = ln.Close() // always nil
				}
			}
		}
		// The bootstrap node comes up last, so the token meets listeners.
		for i := n - 1; i >= 0 && err == nil; i-- {
			nodes[i], err = core.NewLiveNode(i, addrs, i == 0, opts...)
		}
		if err == nil {
			r := &ring{shut: shut, retries: attempt}
			for _, ln := range nodes {
				r.mutexes = append(r.mutexes, ln.Mutex)
				r.runtimes = append(r.runtimes, ln.Runtime)
			}
			r.transport = func() transport.Stats {
				var sum transport.Stats
				for _, ln := range nodes {
					s := ln.TransportStats()
					sum.Frames += s.Frames
					sum.DroppedBackpressure += s.DroppedBackpressure
					sum.DroppedWriteError += s.DroppedWriteError
					sum.Reconnects += s.Reconnects
					sum.QueueDepth += s.QueueDepth
				}
				return sum
			}
			return r, nil
		}
		shut()
		if !errors.Is(err, syscall.EADDRINUSE) || attempt+1 == bringUpAttempts {
			return nil, fmt.Errorf("tcp ring bring-up, attempt %d: %w", attempt+1, err)
		}
	}
}

// msgCounts are a ring's dispatch counters summed over its runtimes.
type msgCounts struct{ total, token, search int64 }

func (r *ring) msgs() msgCounts {
	var c msgCounts
	for _, rt := range r.runtimes {
		for kind, n := range rt.MsgStats() {
			switch kind {
			case "dropped", "duplicated", "delayed": // fault counters, not messages
				continue
			case protocol.MsgToken.String(), protocol.MsgTokenReturn.String():
				c.token += n
			case protocol.MsgSearch.String():
				c.search += n
			}
			c.total += n
		}
	}
	return c
}

// witness is the critical-section check every live workload holds: between
// Lock and Unlock the counter must read exactly 1.
type witness struct {
	in       atomic.Int32
	overlaps atomic.Int64
}

func (w *witness) enter() {
	if w.in.Add(1) != 1 {
		w.overlaps.Add(1)
	}
}

func (w *witness) leave() { w.in.Add(-1) }

// load is what a window of client sessions measured. Latencies are exact
// nanosecond samples.
type load struct {
	acquire, unlock, late samples
	sessions, failed      int64
	shed, maxOut          int64
	wall                  time.Duration
}

// session is one acquire/release against node's mutex, timed from due. It
// reports the acquire latency and whether Lock succeeded.
func (r *ring) session(ctx context.Context, nd int, due time.Time, tr *liveTracer, w *witness) (acquire, unlock time.Duration, ok bool) {
	if tr != nil {
		tr.begin(nd, due)
	}
	err := r.mutexes[nd].Lock(ctx)
	acquire = time.Since(due)
	if tr != nil {
		tr.end(nd, err == nil)
	}
	if err != nil {
		return acquire, 0, false
	}
	w.enter()
	w.leave()
	t := time.Now()
	err = r.mutexes[nd].Unlock()
	return acquire, time.Since(t), err == nil
}

// closedLoop is one client that takes the lock at each listed node in turn
// for d: its next request goes out only when the previous one is released,
// with no think time and no hold, and every grant has to fetch the token from
// the node that held it last. The due time of a request is the instant it is
// made. (Two clients locking concurrently were tried first: whether a node
// re-grants itself or serves the other's search is then a race, and every
// metric, messages per grant included, moved 13-23 % between identical runs.)
func (r *ring) closedLoop(visit []int, d, timeout time.Duration, tr *liveTracer, w *witness) *load {
	out := &load{maxOut: 1}
	start := time.Now()
	deadline := start.Add(d)
	// One context serves every Lock of the window: it expires a timeout
	// after the window, which bounds a wedged acquire without allocating a
	// context per operation.
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(timeout))
	defer cancel()
	for now, k := start, 0; now.Before(deadline); now, k = time.Now(), k+1 {
		acq, unl, ok := r.session(ctx, visit[k%len(visit)], now, tr, w)
		out.sessions++
		if !ok {
			out.failed++
			continue
		}
		out.acquire.addDuration(acq)
		out.unlock.addDuration(unl)
	}
	out.wall = time.Since(start)
	return out
}

// openLoop issues sessions on a Poisson schedule drawn from seed, whatever
// the ring's latency: a session's due time is its scheduled arrival, so a
// late pacer and a queue at the node both count against the system. An
// arrival that finds maxOut sessions in flight is shed and counts as failed.
func (r *ring) openLoop(s liveSpec, seed uint64, d time.Duration, tr *liveTracer, w *witness) (*load, error) {
	count := int(s.rate*d.Seconds()*1.5) + 64
	offsets, err := loadgen.Schedule(loadgen.Config{
		Arrivals: loadgen.Poisson{Rate: s.rate}, Seed: seed, Duration: d,
	}, count)
	if err != nil {
		return nil, err
	}
	for i, off := range offsets {
		if off >= d {
			offsets = offsets[:i]
			break
		}
	}
	pick := sim.NewRNG(seed ^ 0x6e6f6465) // "node": the target draw is its own stream
	targets := make([]int, len(offsets))
	for i := range targets {
		targets[i] = pick.Intn(s.nodes)
	}

	type outcome struct {
		acquire, unlock time.Duration
		ok              bool
	}
	outcomes := make([]outcome, len(offsets))
	issued := make([]bool, len(offsets))
	out := &load{}
	// In a traced pass a node's sessions queue here rather than inside the
	// mutex, so the tracer sees one request per node at a time and can name
	// the wait as its own stage.
	var turn []sync.Mutex
	if tr != nil {
		turn = make([]sync.Mutex, s.nodes)
	}
	slots := make(chan struct{}, s.maxOut)
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range offsets {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		out.late.addDuration(time.Since(due))
		select {
		case slots <- struct{}{}:
		default:
			out.shed++
			continue
		}
		if n := inFlight.Add(1); n > out.maxOut {
			out.maxOut = n
		}
		issued[i] = true
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), due.Add(s.timeout))
			nd, o := targets[i], &outcomes[i]
			if turn != nil {
				turn[nd].Lock()
			}
			o.acquire, o.unlock, o.ok = r.session(ctx, nd, due, tr, w)
			if turn != nil {
				turn[nd].Unlock()
			}
			cancel()
			inFlight.Add(-1)
			<-slots
		}(i, due)
	}
	wg.Wait()
	out.wall = time.Since(start)
	for i, o := range outcomes {
		if !issued[i] {
			continue
		}
		out.sessions++
		if !o.ok {
			out.failed++
			continue
		}
		out.acquire.addDuration(o.acquire)
		out.unlock.addDuration(o.unlock)
	}
	out.sessions += out.shed
	out.failed += out.shed
	return out, nil
}

func (s liveSpec) load(r *ring, seed uint64, d time.Duration, tr *liveTracer, w *witness) (*load, error) {
	if len(s.visit) > 0 {
		return r.closedLoop(s.visit, d, s.timeout, tr, w), nil
	}
	return r.openLoop(s, seed, d, tr, w)
}

// bringUp builds the ring and warms it: two acquires at every node in turn,
// which dials the links a search from anywhere uses, then the workload's own
// loop for a moment, so the timed window meets established connections,
// grown buffers and a token already in rotation.
func (s liveSpec) bringUp(seed uint64, obs host.Observer) (*ring, error) {
	var r *ring
	var err error
	if s.tcp {
		r, err = newTCPRing(s.nodes, obs)
	} else {
		r, err = newChanRing(s.nodes, obs)
	}
	if err != nil {
		return nil, err
	}
	w := &witness{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for pass := 0; pass < 2; pass++ {
		for nd := 0; nd < s.nodes; nd++ {
			if _, _, ok := r.session(ctx, nd, time.Now(), nil, w); !ok {
				r.shut()
				return nil, fmt.Errorf("warm-up acquire at node %d failed", nd)
			}
		}
	}
	if _, err := s.load(r, seed, s.warmLoop, nil, w); err != nil {
		r.shut()
		return nil, err
	}
	return r, nil
}

// windowResult is a load with the ring's counters over the same interval.
type windowResult struct {
	load      *load
	msgs      msgCounts
	transport transport.Stats
	queueMax  int64
	alloc     uint64
}

// window runs the load for d on r, reading the ring's counters on either
// side and sampling the transport's queue depth meanwhile.
func (s liveSpec) window(r *ring, seed uint64, d time.Duration, tr *liveTracer, w *witness) (*windowResult, error) {
	res := &windowResult{}
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if r.transport != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if q := r.transport().QueueDepth; q > res.queueMax {
						res.queueMax = q
					}
				}
			}
		}()
	}
	m0 := r.msgs()
	var t0 transport.Stats
	if r.transport != nil {
		t0 = r.transport()
	}
	a0 := totalAlloc()
	l, err := s.load(r, seed, d, tr, w)
	res.alloc = totalAlloc() - a0
	close(stop)
	sampler.Wait()
	if err != nil {
		return nil, err
	}
	m1 := r.msgs()
	res.load = l
	res.msgs = msgCounts{m1.total - m0.total, m1.token - m0.token, m1.search - m0.search}
	if r.transport != nil {
		t1 := r.transport()
		res.transport = transport.Stats{
			Frames:              t1.Frames - t0.Frames,
			DroppedBackpressure: t1.DroppedBackpressure - t0.DroppedBackpressure,
			DroppedWriteError:   t1.DroppedWriteError - t0.DroppedWriteError,
			Reconnects:          t1.Reconnects - t0.Reconnects,
		}
	}
	return res, nil
}

func (s liveSpec) run(cfg runConfig) (*report, error) {
	rep := newReport()
	untraced := cfg.window
	if cfg.trace {
		untraced = cfg.window / 2
	}

	// Set-up is sampled: every sample brings a ring up and warms it; the
	// last ring stays up for the window. Each sample also sizes its warmed
	// ring against the heap just before it was built, so the window's own
	// sample buffers are never in the footprint.
	var setups, peaks samples
	var r *ring
	retries := 0
	for i := 0; i < cfg.setups; i++ {
		if r != nil {
			r.close(rep)
		}
		base := heapAlloc()
		t0 := time.Now()
		var err error
		if r, err = s.bringUp(cfg.seed, nil); err != nil {
			return nil, err
		}
		setups.addDuration(time.Since(t0))
		retries += r.retries
		peaks = append(peaks, (float64(heapAlloc())-float64(base))/float64(s.nodes))
	}
	rep.set("setup_s", setups.median()/1e9)
	rep.note("setup_s", "median of %d bring-ups with warm-up", len(setups))
	rep.set("live.setup_retries", float64(retries))

	w := &witness{}
	res, err := s.window(r, cfg.seed, untraced, nil, w)
	r.close(rep)
	if err != nil {
		return nil, err
	}

	l := res.load
	granted := float64(len(l.acquire))
	if granted == 0 {
		return nil, errors.New("no session completed in the window")
	}
	rep.attempted, rep.failed = l.sessions, l.failed
	grantsPerS := granted / l.wall.Seconds()
	acq := l.acquire.sorted()
	p50, _ := acq.quantile(0.5)
	tail, pct := acq.tail()
	ticks := float64(liveUnit)
	rep.set("grants_per_s", grantsPerS)
	rep.note("grants_per_s", "%d sessions in %.2fs", len(acq), l.wall.Seconds())
	rep.set("msgs_per_grant", float64(res.msgs.total)/granted)
	rep.set("resp_mean_ticks", acq.mean()/ticks)
	rep.set("wait_p50_ticks", p50/ticks)
	rep.set("wait_p99_ticks", tail/ticks)
	rep.note("wait_p99_ticks", "p%g of n=%d", pct, len(acq))
	rep.set("alloc_bytes_per_grant", float64(res.alloc)/granted)
	rep.set("peak_bytes_per_node", peaks.median())
	rep.note("peak_bytes_per_node", "median of %d warmed rings", len(peaks))

	rep.set("live_acquire_p50_us", p50/1e3)
	rep.set("live_acquire_p99_us", tail/1e3)
	rep.note("live_acquire_p99_us", "p%g of n=%d", pct, len(acq))
	rep.set("mutex.lock_us_p50", p50/1e3)
	rep.set("mutex.unlock_us_p50", l.unlock.median()/1e3)
	rep.set("node.msgs_per_grant", float64(res.msgs.total)/granted)
	rep.set("protocol.token_msgs_per_grant", float64(res.msgs.token)/granted)
	rep.set("protocol.search_msgs_per_grant", float64(res.msgs.search)/granted)
	if s.tcp {
		t := res.transport
		rep.set("transport.frames_per_grant", float64(t.Frames)/granted)
		rep.set("transport.dropped", float64(t.DroppedBackpressure+t.DroppedWriteError))
		rep.set("transport.reconnects", float64(t.Reconnects))
		rep.set("transport.queue_depth_max", float64(res.queueMax))
	}
	if len(s.visit) == 0 {
		late := l.late.sorted()
		lp50, _ := late.quantile(0.5)
		ltail, lpct := late.tail()
		rep.set("loadgen.late_us_p50", lp50/1e3)
		rep.set("loadgen.late_us_p99", ltail/1e3)
		rep.note("loadgen.late_us_p99", "p%g of n=%d arrivals", lpct, len(late))
		rep.set("loadgen.shed", float64(l.shed))
	}
	rep.set("loadgen.max_in_flight", float64(l.maxOut))

	if cfg.trace {
		tr := newLiveTracer()
		tr2, err := s.bringUp(cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		tr.reset()
		tres, err := s.window(tr2, cfg.seed, cfg.window-untraced, tr, w)
		tr2.close(rep)
		if err != nil {
			return nil, err
		}
		tr.report(rep, cfg.spans)
		tracedRate := float64(len(tres.load.acquire)) / tres.load.wall.Seconds()
		rep.set("trace.overhead_pct", 100*(grantsPerS-tracedRate)/grantsPerS)
		rep.note("trace.overhead_pct", "on grants_per_s, %d traced sessions", len(tres.load.acquire))
		rep.failed += tres.load.failed
		rep.attempted += tres.load.sessions
	}
	if n := w.overlaps.Load(); n != 0 {
		rep.violate("critical-section witness saw %d overlapping holders", n)
	}
	return rep, nil
}
