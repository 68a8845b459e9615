package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"adaptivetoken/internal/host"
	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/transport"
)

// The layer ladder times each package under internal/ from outside, through
// its public functions, in loops small enough to run before every traced
// pass. A rung's figure is what one call costs with nothing above it; the
// README says which end-to-end metric each rung should move.

// ladderScale sizes the loops: 1 is the full ladder, the tests run a
// hundredth.
type ladderScale struct{ div int }

func (s ladderScale) n(full int) int {
	if n := full / s.div; n > 16 {
		return n
	}
	return 16
}

type nopHandler struct{}

func (nopHandler) Arrive(protocol.Message)       {}
func (nopHandler) FireTimer(int, protocol.Timer) {}

// ladderWheel: schedule one event, run one event, on an engine whose
// handler does nothing. Delay 1 is the timing wheel's case (the paper's
// unit message delay); a delay past the wheel's horizon takes the overflow
// heap, which neither sim workload leans on.
func ladderWheel(rep *report, sc ladderScale) {
	const population = 64 // events in flight, as on a busy small ring
	n := sc.n(4_000_000)
	eng := sim.NewEngine(1)
	eng.SetHandler(nopHandler{})
	msg := protocol.Message{Kind: protocol.MsgToken, To: 1}
	for i := 0; i < population; i++ {
		eng.AfterMessage(1, msg)
	}
	a0 := totalAlloc()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		eng.AfterMessage(1, msg)
		eng.Step()
	}
	d := time.Since(t0)
	rep.set("sim.wheel_ns_per_event", float64(d)/float64(n))
	rep.set("sim.wheel_alloc_bytes_per_event", float64(totalAlloc()-a0)/float64(n))
	rep.note("sim.wheel_ns_per_event", "n=%d events", n)

	n = sc.n(1_000_000)
	far := sim.NewEngine(1)
	far.SetHandler(nopHandler{})
	tm := protocol.Timer{Kind: protocol.TimerHold}
	for i := 0; i < population; i++ {
		far.AfterTimer(sim.Time(20_000+i), 0, tm)
	}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		far.AfterTimer(sim.Time(20_000+i%1000), 0, tm)
		far.Step()
	}
	rep.set("sim.overflow_ns_per_event", float64(time.Since(t0))/float64(n))
	rep.note("sim.overflow_ns_per_event", "n=%d events", n)
}

// idleRing is the sim-idle configuration at a size that stays in cache.
func idleRing(n int) ([]*protocol.Node, error) {
	cfg := simCell{variant: protocol.BinarySearch, n: n}.config()
	nodes := make([]*protocol.Node, n)
	for i := range nodes {
		nd, err := protocol.New(i, cfg)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	return nodes, nil
}

// ladderTokenHop hands the token round an idle ring by calling the handler
// directly: the protocol's share of a simulated token-hop event.
func ladderTokenHop(rep *report, sc ladderScale) error {
	nodes, err := idleRing(16)
	if err != nil {
		return err
	}
	eff := nodes[0].GiveToken(0)
	if len(eff.Msgs) != 1 {
		return fmt.Errorf("token hop: bootstrap sent %d messages, want 1", len(eff.Msgs))
	}
	msg := eff.Msgs[0]
	n := sc.n(4_000_000)
	var scratch protocol.Effects
	t0 := time.Now()
	for i := 0; i < n; i++ {
		scratch.Reset()
		nodes[msg.To].HandleMessageInto(protocol.Time(i+1), msg, &scratch)
		if len(scratch.Msgs) != 1 {
			return fmt.Errorf("token hop %d: handler sent %d messages, want 1", i, len(scratch.Msgs))
		}
		msg = scratch.Msgs[0]
	}
	rep.set("protocol.token_hop_ns", float64(time.Since(t0))/float64(n))
	rep.note("protocol.token_hop_ns", "n=%d hops, ring of %d", n, len(nodes))
	return nil
}

// ladderSearchGrant routes a whole request by hand — request, search
// messages, the token's arrival, release — on a ring of 128: the protocol's
// share of a fig9 grant. Requesters are drawn from seed.
func ladderSearchGrant(rep *report, sc ladderScale, seed uint64) error {
	const ringSize = 128
	nodes, err := idleRing(ringSize)
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	queue := append([]protocol.Message(nil), nodes[0].GiveToken(0).Msgs...)
	var scratch protocol.Effects
	grants := sc.n(40_000)
	calls := 0
	now := protocol.Time(0)
	t0 := time.Now()
	for g := 0; g < grants; g++ {
		who := rng.Intn(ringSize)
		scratch.Reset()
		eff := nodes[who].Request(now)
		queue = append(queue, eff.Msgs...)
		granted := eff.Granted
		calls++
		// Deliver in order until the requester holds the token. The token
		// keeps rotating between requests, as it does in the simulator.
		for head := 0; !granted; head++ {
			if head == len(queue) {
				return fmt.Errorf("search grant %d: node %d never granted, no message in flight", g, who)
			}
			m := queue[head]
			now++
			scratch.Reset()
			nodes[m.To].HandleMessageInto(now, m, &scratch)
			calls++
			queue = append(queue, scratch.Msgs...)
			if scratch.Granted {
				if m.To != who {
					return fmt.Errorf("search grant %d: node %d granted, node %d asked", g, m.To, who)
				}
				granted = true
				queue = append(queue[:0], queue[head+1:]...)
			}
		}
		queue = append(queue, nodes[who].Release(now).Msgs...)
		calls++
	}
	rep.set("protocol.search_grant_ns", float64(time.Since(t0))/float64(grants))
	rep.set("protocol.handler_calls_per_grant", float64(calls)/float64(grants))
	rep.note("protocol.search_grant_ns", "n=%d grants, ring of %d", grants, ringSize)
	return nil
}

// tickClock and lastNetwork are the stubs host.Arrive runs over: time moves
// one unit per reading and the network keeps only the last message sent.
type tickClock struct{ now sim.Time }

func (c *tickClock) Now() sim.Time              { c.now++; return c.now }
func (c *tickClock) AfterFunc(sim.Time, func()) {}

type lastNetwork struct{ last protocol.Message }

func (n *lastNetwork) Deliver(m protocol.Message, _ sim.Time) { n.last = m }

// ladderHostArrive is the token hop again, through host.Arrive with no
// observer: handler plus effect interpretation, dispatch through the fault
// injector and the message counters.
func ladderHostArrive(rep *report, sc ladderScale) error {
	nodes, err := idleRing(16)
	if err != nil {
		return err
	}
	net := &lastNetwork{}
	h, err := host.New(host.Config{
		Clock:   &tickClock{},
		Network: net,
		Machine: func(id int) *protocol.Node { return nodes[id] },
	})
	if err != nil {
		return err
	}
	h.Apply(0, nodes[0].GiveToken(0))
	n := sc.n(4_000_000)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Arrive(net.last)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if net.last.Kind != protocol.MsgToken {
		return fmt.Errorf("host arrive: ring ended on a %s message, want the token", net.last.Kind)
	}
	rep.set("host.arrive_ns", float64(d)/float64(n))
	rep.set("host.arrive_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	rep.note("host.arrive_ns", "n=%d arrivals", n)
	return nil
}

// ladderTimerLate arms one-unit WallClock timers and reads how long after
// their due instant the callback ran: the floor under every live hold timer.
func ladderTimerLate(rep *report, sc ladderScale) {
	n := sc.n(1500)
	var mu sync.Mutex
	var late samples
	var wg sync.WaitGroup
	clock := host.NewWallClock(liveUnit, func(fn func()) { fn() })
	for i := 0; i < n; i++ {
		due := time.Now().Add(liveUnit)
		wg.Add(1)
		clock.AfterFunc(1, func() {
			d := time.Since(due)
			mu.Lock()
			late.addDuration(d)
			mu.Unlock()
			wg.Done()
		})
		time.Sleep(200 * time.Microsecond) // a few timers armed at any moment, as on a ring
	}
	wg.Wait()
	clock.Stop()
	s := late.sorted()
	p50, _ := s.quantile(0.5)
	tail, pct := s.tail()
	rep.set("host.timer_late_us_p50", p50/1e3)
	rep.set("host.timer_late_us_p99", tail/1e3)
	rep.note("host.timer_late_us_p99", "p%g of n=%d timers", pct, len(s))
}

func ladderRespRecord(rep *report, sc ladderScale) {
	n := sc.n(2_000_000)
	var r metrics.Responsiveness
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := int64(i) * 10
		r.RequestArrived(t)
		r.Granted(t + 3)
	}
	rep.set("metrics.resp_record_ns", float64(time.Since(t0))/float64(n))
	rep.note("metrics.resp_record_ns", "n=%d request/grant pairs", n)
	runtime.KeepAlive(&r)
}

// pingPong bounces one envelope between two endpoints; a hop is half a
// round trip.
func pingPong(a, b transport.Endpoint, rounds int) (time.Duration, error) {
	ping := transport.Envelope{From: a.ID(), To: b.ID(), Proto: &protocol.Message{Kind: protocol.MsgSearch, From: a.ID(), To: b.ID()}}
	pong := transport.Envelope{From: b.ID(), To: a.ID(), Proto: &protocol.Message{Kind: protocol.MsgSearch, From: b.ID(), To: a.ID()}}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if _, ok := <-b.Recv(); !ok {
				done <- errors.New("ping-pong: far endpoint closed")
				return
			}
			if err := b.Send(pong); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if err := a.Send(ping); err != nil {
			return 0, err
		}
		if _, ok := <-a.Recv(); !ok {
			return 0, errors.New("ping-pong: near endpoint closed")
		}
	}
	d := time.Since(t0)
	return d, <-done
}

// tcpPair starts two TCP endpoints on loopback under PolicyBlock, retrying
// on fresh ports if a reserved one was taken.
func tcpPair() (a, b *transport.TCP, err error) {
	opts := transport.Options{Policy: transport.PolicyBlock}
	for attempt := 0; attempt < bringUpAttempts; attempt++ {
		var addrs []string
		if addrs, err = reserveAddrs(2); err != nil {
			return nil, nil, err
		}
		if a, err = transport.NewTCP(0, addrs, opts); err == nil {
			if b, err = transport.NewTCP(1, addrs, opts); err == nil {
				return a, b, nil
			}
			a.Close()
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, nil, fmt.Errorf("tcp pair: %w", err)
}

func ladderTransport(rep *report, sc ladderScale) error {
	cn, err := transport.NewChannelNetwork(2)
	if err != nil {
		return err
	}
	rounds := sc.n(100_000)
	d, err := pingPong(cn.Endpoint(0), cn.Endpoint(1), rounds)
	cn.Close()
	if err != nil {
		return err
	}
	rep.set("transport.chan_hop_us", float64(d)/float64(2*rounds)/1e3)
	rep.note("transport.chan_hop_us", "n=%d round trips", rounds)

	a, b, err := tcpPair()
	if err != nil {
		return err
	}
	defer a.Close()
	defer b.Close()
	rounds = sc.n(10_000)
	if _, err := pingPong(a, b, 16); err != nil { // dials both directions
		return err
	}
	if d, err = pingPong(a, b, rounds); err != nil {
		return err
	}
	rep.set("transport.tcp_hop_us", float64(d)/float64(2*rounds)/1e3)
	rep.note("transport.tcp_hop_us", "n=%d round trips, loopback", rounds)

	// One-way flood: how fast frames stream when the writer can batch.
	flood := sc.n(200_000)
	env := transport.Envelope{From: 0, To: 1, Proto: &protocol.Message{Kind: protocol.MsgSearch, From: 0, To: 1}}
	s0 := a.Stats()
	sendErr := make(chan error, 1)
	t0 := time.Now()
	go func() {
		for i := 0; i < flood; i++ {
			if err := a.Send(env); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < flood; i++ {
		if _, ok := <-b.Recv(); !ok {
			return errors.New("tcp stream: receiver closed")
		}
	}
	d = time.Since(t0)
	if err := <-sendErr; err != nil {
		return err
	}
	s1 := a.Stats()
	rep.set("transport.tcp_stream_msgs_per_s", float64(flood)/d.Seconds())
	if flushes := s1.Flushes - s0.Flushes; flushes > 0 {
		rep.set("transport.frames_per_flush", float64(s1.Frames-s0.Frames)/float64(flushes))
	}
	rep.note("transport.tcp_stream_msgs_per_s", "n=%d envelopes, PolicyBlock", flood)
	return nil
}

// ladder runs every rung.
func ladder(sc ladderScale, seed uint64) (*report, error) {
	rep := newReport()
	rep.set("env.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	ladderWheel(rep, sc)
	if err := ladderTokenHop(rep, sc); err != nil {
		return nil, err
	}
	if err := ladderSearchGrant(rep, sc, seed); err != nil {
		return nil, err
	}
	if err := ladderHostArrive(rep, sc); err != nil {
		return nil, err
	}
	ladderTimerLate(rep, sc)
	ladderRespRecord(rep, sc)
	if err := ladderTransport(rep, sc); err != nil {
		return nil, err
	}
	return rep, nil
}
