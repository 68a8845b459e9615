package torture

// Live scenarios: the torture harness on real concurrent runtimes over an
// in-process channel transport — wall-clock timers, goroutine scheduling,
// per-node locks — with the same instrumentation as the simulated runs: one
// shared dispatch-sequence-keyed fault injector (recorded schedules replay
// and shrink exactly like simulated ones) and the churn conformance checker
// attached to every host.
//
// The workload is a sequential causal chain, so chain positions — not
// wall-clock times — are the deterministic clock. Between two acquires the
// harness settles the cluster: it waits until the released token is parked
// and two consecutive snapshots agree on a stable epoch. Membership events
// apply after a fixed completed acquire, at such a settle point. The
// checker is conformance.ChurnChecker, as in the simulated churn mixes: a
// view application (Runtime.ApplyView's StepView) or recovery traffic opens
// a stutter window, and every settle point hands the checker its snapshot
// (ChurnChecker.Repin), which closes the window at the first stable epoch.

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"adaptivetoken/internal/conformance"
	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/node"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/transport"
)

// liveUnit is the wall-clock length of one protocol time unit in live
// scenarios: short enough to keep a sweep fast, long enough that timer
// resolution noise stays well below the protocol timescales.
const liveUnit = 200 * time.Microsecond

// liveAcquireTimeout bounds one acquire; hitting it is a liveness failure.
const liveAcquireTimeout = 30 * time.Second

// liveSettleTimeout bounds one settle wait; hitting it means the cluster
// never re-quiesced — a liveness failure (e.g. the token stayed lost).
const liveSettleTimeout = 20 * time.Second

// liveConfigFor builds the protocol configuration a live scenario runs
// under: LinearSearch with the token parked (an idle hold far longer than
// any run), so all token movement is driven by the scenario's sequential
// request chain and the global dispatch sequence is deterministic. The
// other variants don't qualify: ring serves requests by rotation alone and
// binary search springs its traps only when the token moves — both make
// grants race wall-clock hold timers.
func liveConfigFor(sc Scenario, mix Mix) (protocol.Config, error) {
	v, err := parseVariant(sc.Variant)
	if err != nil {
		return protocol.Config{}, err
	}
	if v != protocol.LinearSearch {
		return protocol.Config{}, fmt.Errorf(
			"torture: live scenarios need a variant whose search reaches a parked token (linear); %s grants race the wall clock", v)
	}
	cfg := protocol.Config{
		Variant:         v,
		N:               sc.N,
		HoldIdle:        150_000, // 30 s parked: rotation never interleaves with the chain
		TrapGC:          protocol.GCNone,
		ResearchTimeout: 150,
	}
	if mix.Crash {
		// 2000 units = 400ms wall at liveUnit: far above a healthy acquire
		// (a few ms), fast enough that the crash repair stays test-sized.
		cfg.RecoveryTimeout = 2_000
	}
	return cfg, nil
}

// liveChurnOp is one membership event of a live scenario, keyed by chain
// position: it applies after the afterReq-th completed acquire.
type liveChurnOp struct {
	afterReq int
	op       faults.ChurnOp
	node     int
}

// liveChurnPlan derives a scenario's initial view and membership events.
// initial == nil means the full ring; a mix without churn has no events.
func liveChurnPlan(sc Scenario, mix Mix) (initial []int, ops []liveChurnOp, err error) {
	if !mix.Churn {
		return nil, nil, nil
	}
	at := 2 + int(sc.Seed%3)
	if at >= sc.Requests {
		at = sc.Requests / 2
	}
	switch sc.Mix {
	case "live-join":
		initial = make([]int, sc.N-1)
		for i := range initial {
			initial[i] = i
		}
		ops = []liveChurnOp{{afterReq: at, op: faults.ChurnJoin, node: sc.N - 1}}
	case "live-leave":
		victim := 1 + int(sc.Seed%uint64(sc.N-1))
		ops = []liveChurnOp{{afterReq: at, op: faults.ChurnLeave, node: victim}}
	case "live-crash-regen":
		// The token homes to node 0 between acquires (every decorated grant
		// returns to its interceptor, and node 0 is the only parker), so
		// crashing node 0 at a settle point provably loses the token and
		// forces the §5 probe/election repair on real wall clocks.
		ops = []liveChurnOp{{afterReq: at, op: faults.ChurnCrash, node: 0}}
	default:
		err = fmt.Errorf("torture: mix %q has no live churn plan", sc.Mix)
	}
	return initial, ops, err
}

// liveCluster bundles a live run's mutable state.
type liveCluster struct {
	rts    []*node.Runtime
	member []bool
	chk    *conformance.ChurnChecker // read and written under obs
	obs    *host.SyncObserver
	epoch  uint64 // view epoch of the last applied update
}

// members returns the current view, ascending.
func (c *liveCluster) members() []int {
	var out []int
	for id, in := range c.member {
		if in {
			out = append(out, id)
		}
	}
	return out
}

// view installs the current membership view at epoch c.epoch on every
// member; the joiner, if any, is seeded with the given state transfer.
func (c *liveCluster) view(joiner int, syncStamp, syncEpoch uint64) {
	u := protocol.ViewUpdate{Epoch: c.epoch, Members: c.members()}
	for _, id := range u.Members {
		v := u
		if id == joiner {
			v.SyncStamp, v.SyncEpoch = syncStamp, syncEpoch
		}
		c.rts[id].ApplyView(v)
	}
}

// probe snapshots every member's state under its runtime lock. A live
// snapshot cannot count messages in flight (DESIGN.md §6), so it reports
// InFlight 0 and counts a pending member as held work: its request, or
// the token answering it, may still be on the wire.
func (c *liveCluster) probe() driver.ChurnSnapshot {
	s := driver.ChurnSnapshot{
		ViewEpoch: c.epoch,
		Members:   c.members(),
		Nodes:     make([]driver.ChurnNodeState, len(c.rts)),
	}
	for _, id := range s.Members {
		c.rts[id].Inspect(func(n *protocol.Node) {
			s.Nodes[id] = driver.ChurnNodeState{
				Member:     true,
				HasToken:   n.HasToken(),
				InCS:       n.InCS(),
				Pending:    n.Pending(),
				Decorated:  n.DecoratedHold(),
				Recovering: n.RecoveryActive(),
				Round:      n.Round(),
				LastSeen:   n.LastSeen(),
				Epoch:      n.Epoch(),
				Traps:      n.TrapRequesters(nil),
			}
		})
		s.HeldWork = s.HeldWork || s.Nodes[id].Pending
	}
	return s
}

// settle blocks until two consecutive probes agree on the same stable
// epoch, handing the second to the checker (which re-pins from it if it
// is stuttering), and returns that snapshot. A conformance violation ends
// the wait at once: past it the run may never settle.
func (c *liveCluster) settle() (driver.ChurnSnapshot, error) {
	deadline := time.Now().Add(liveSettleTimeout)
	var prev driver.ChurnSnapshot
	for time.Now().Before(deadline) {
		s := c.probe()
		stable := false
		var cerr error
		c.obs.Sync(func() {
			if reflect.DeepEqual(prev, s) {
				stable = c.chk.Repin(s)
			}
			cerr = c.chk.Err()
		})
		if cerr != nil {
			return s, fmt.Errorf("torture: conformance: %w", cerr)
		}
		if stable {
			return s, nil
		}
		prev = s
		time.Sleep(time.Millisecond)
	}
	return driver.ChurnSnapshot{}, fmt.Errorf("torture: live: cluster never re-settled within %s (token lost, or a node stuck)", liveSettleTimeout)
}

// apply executes one membership event at a settle point. Crash leaves the
// checker stuttering (the §5 repair happens during the next acquire); join
// and leave settle again at once — view application moves no messages.
func (c *liveCluster) apply(op liveChurnOp) error {
	s, err := c.settle()
	if err != nil {
		return err
	}
	c.epoch++
	switch op.op {
	case faults.ChurnJoin:
		// State transfer: the freshest stamp and token epoch among the
		// current members seed the joiner, exactly like the sim driver.
		var syncStamp, syncEpoch uint64
		for _, ns := range s.Nodes {
			syncStamp = max(syncStamp, ns.LastSeen)
			syncEpoch = max(syncEpoch, ns.Epoch)
		}
		c.member[op.node] = true
		c.view(op.node, syncStamp, syncEpoch)
	case faults.ChurnLeave:
		if s.Nodes[op.node].HasToken {
			return fmt.Errorf("torture: live churn: leave victim %d holds the parked token", op.node)
		}
		c.member[op.node] = false
		c.view(-1, 0, 0)
	case faults.ChurnCrash:
		c.rts[op.node].Stop()
		c.member[op.node] = false
		c.view(-1, 0, 0)
		return nil // stay stuttering until the post-repair settle
	default:
		return fmt.Errorf("torture: live churn: unknown op %q", op.op)
	}
	_, err = c.settle()
	return err
}

// runLive executes one live scenario: a sequential acquire chain over real
// runtimes, membership events (if the mix has any) at deterministic chain
// positions, and churn conformance re-pinned at every settle point.
func runLive(sc Scenario, mix Mix, replay *faults.Schedule) Report {
	rep := Report{Scenario: sc}
	cfg, err := liveConfigFor(sc, mix)
	if err != nil {
		rep.Err = err
		return rep
	}
	initial, ops, err := liveChurnPlan(sc, mix)
	if err != nil {
		rep.Err = err
		return rep
	}
	inj, err := injectorFor(sc, mix, replay)
	if err != nil {
		rep.Err = err
		return rep
	}
	if replay != nil {
		rep.Schedule = *replay
	}
	shared := faults.Share(inj)
	chk, err := conformance.NewChurn(cfg, initial)
	if err != nil {
		rep.Err = err
		return rep
	}
	obs := host.NewSyncObserver(chk)

	cn, err := transport.NewChannelNetwork(sc.N)
	if err != nil {
		rep.Err = err
		return rep
	}
	rts := make([]*node.Runtime, sc.N)
	stop := func() {
		cn.Close()
		for _, rt := range rts {
			if rt != nil {
				rt.Stop()
			}
		}
	}
	for i := range rts {
		p, perr := protocol.New(i, cfg)
		if perr != nil {
			stop()
			rep.Err = perr
			return rep
		}
		rt, rerr := node.NewRuntime(p, cn.Endpoint(i), liveUnit,
			node.WithFaults(shared), node.WithObserver(obs))
		if rerr != nil {
			stop()
			rep.Err = rerr
			return rep
		}
		rts[i] = rt
		rt.Start()
	}

	c := &liveCluster{rts: rts, chk: chk, obs: obs, member: make([]bool, sc.N)}
	for i := range c.member {
		c.member[i] = initial == nil
	}
	if initial != nil {
		// A partial initial view opens a stutter window; the settle before
		// the first acquire re-pins from the bootstrapped cluster.
		for _, id := range initial {
			c.member[id] = true
		}
		c.epoch = 1
		c.view(-1, 0, 0)
	}
	rts[0].Bootstrap()

	// Sequential acquires: exactly one outstanding request at all times, so
	// the run is one causal chain and every injector draw lands on a
	// deterministic dispatch sequence number. Each released token must be
	// parked again before the next request goes out, or that request's
	// search races the token to the holder and the dispatch sequence
	// depends on who wins; the settle after the last acquire makes the run
	// END in a stable epoch.
	werr := func() error {
		if _, err := c.settle(); err != nil {
			return err
		}
		nextOp := 0
		for k := 0; k < sc.Requests; k++ {
			for nextOp < len(ops) && ops[nextOp].afterReq == k {
				if err := c.apply(ops[nextOp]); err != nil {
					return err
				}
				nextOp++
			}
			id := int((sc.Seed + uint64(k)) % uint64(sc.N))
			for !c.member[id] {
				id = (id + 1) % sc.N
			}
			ctx, cancel := context.WithTimeout(context.Background(), liveAcquireTimeout)
			aerr := rts[id].Acquire(ctx)
			cancel()
			if aerr != nil {
				return fmt.Errorf("torture: live acquire %d at node %d: %w", k, id, aerr)
			}
			rep.Grants++
			rts[id].Release()
			if _, err := c.settle(); err != nil {
				return err
			}
		}
		return nil
	}()

	stop() // all hosts quiescent: checker and schedule safe to read

	if replay == nil {
		rep.Schedule = shared.Schedule()
	}
	if werr != nil {
		rep.Err = werr
		return rep
	}
	if cerr := chk.Finish(); cerr != nil {
		rep.Err = fmt.Errorf("torture: conformance: %w", cerr)
	}
	rep.Steps = chk.Steps()
	return rep
}
