package torture

import (
	"context"
	"fmt"
	"time"

	"adaptivetoken/internal/conformance"
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

// liveConfigFor builds the protocol configuration a live scenario runs
// under: LinearSearch with the token parked (an effectively infinite idle
// hold), so all token movement is driven by the scenario's sequential
// request chain and the global dispatch sequence is deterministic. The
// other variants don't qualify: ring serves requests by rotation alone and
// binary search springs its traps only when the token moves — both make
// grants race wall-clock hold timers.
func liveConfigFor(sc Scenario) (protocol.Config, error) {
	v, err := parseVariant(sc.Variant)
	if err != nil {
		return protocol.Config{}, err
	}
	if v != protocol.LinearSearch {
		return protocol.Config{}, fmt.Errorf(
			"torture: live scenarios need a variant whose search reaches a parked token (linear); %s grants race the wall clock", v)
	}
	return protocol.Config{
		Variant:         v,
		N:               sc.N,
		HoldIdle:        30_000, // parked: rotation never interleaves with the chain
		TrapGC:          protocol.GCNone,
		ResearchTimeout: 150,
	}, nil
}

// runLive executes one scenario on real concurrent node runtimes over an
// in-process channel transport — wall-clock timers, goroutine scheduling,
// per-node locks — with the same instrumentation as the simulated runs:
// one shared dispatch-sequence-keyed fault injector (recorded schedules
// replay and shrink exactly like simulated ones) and, for conformance
// mixes, the spec trace checker attached to every host.
func runLive(sc Scenario, mix Mix, replay *faults.Schedule) Report {
	if mix.Churn {
		return runLiveChurn(sc, mix, replay)
	}
	rep := Report{Scenario: sc}
	cfg, err := liveConfigFor(sc)
	if err != nil {
		rep.Err = err
		return rep
	}

	var inj *faults.Injector
	if replay != nil {
		inj = faults.Replay(*replay)
		rep.Schedule = *replay
	} else {
		inj, err = faults.NewInjector(mix.Plan(sc))
		if err != nil {
			rep.Err = err
			return rep
		}
	}
	shared := faults.Share(inj)

	var chk *conformance.Checker
	var obs *host.SyncObserver
	if mix.Conformance {
		chk, err = conformance.New(cfg)
		if err != nil {
			rep.Err = err
			return rep
		}
		obs = host.NewSyncObserver(chk)
	}

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
		ropts := []node.Option{node.WithFaults(shared)}
		if obs != nil {
			ropts = append(ropts, node.WithObserver(obs))
		}
		rt, rerr := node.NewRuntime(p, cn.Endpoint(i), liveUnit, ropts...)
		if rerr != nil {
			stop()
			rep.Err = rerr
			return rep
		}
		rts[i] = rt
		rt.Start()
	}
	rts[0].Bootstrap()

	// checkerErr reads the live checker's verdict under the observer lock.
	checkerErr := func() error {
		if chk == nil {
			return nil
		}
		var cerr error
		obs.Sync(func() { cerr = chk.Err() })
		return cerr
	}

	// Sequential round-robin acquires: exactly one outstanding request at
	// all times, so the run is one causal chain and every injector draw
	// lands on a deterministic dispatch sequence number.
	werr := func() error {
		for k := 0; k < sc.Requests; k++ {
			id := int((sc.Seed + uint64(k)) % uint64(sc.N))
			ctx, cancel := context.WithTimeout(context.Background(), liveAcquireTimeout)
			aerr := rts[id].Acquire(ctx)
			cancel()
			if aerr != nil {
				return fmt.Errorf("torture: live acquire %d at node %d: %w", k, id, aerr)
			}
			rep.Grants++
			rts[id].Release()
			// Abort on the first conformance violation: past it (e.g. a
			// duplicated token) the execution is no longer a single chain.
			if cerr := checkerErr(); cerr != nil {
				return fmt.Errorf("torture: conformance: %w", cerr)
			}
			// The released token travels back to its interceptor. The next
			// request must not go out before it is parked there, or its
			// search races the token to the holder and the dispatch
			// sequence depends on who wins.
			if perr := waitTokenParked(rts); perr != nil {
				return perr
			}
		}
		return nil
	}()

	stop() // all hosts quiescent: checker and schedule safe to read

	if replay == nil {
		rep.Schedule = shared.Schedule()
	}
	switch {
	case werr != nil:
		rep.Err = werr
	case chk != nil:
		if cerr := chk.Finish(); cerr != nil {
			rep.Err = fmt.Errorf("torture: conformance: %w", cerr)
		}
		rep.Steps = chk.Steps()
	}
	return rep
}

// waitTokenParked blocks until some runtime holds the token idle.
func waitTokenParked(rts []*node.Runtime) error {
	deadline := time.Now().Add(liveAcquireTimeout)
	for {
		for _, rt := range rts {
			parked := false
			rt.Inspect(func(n *protocol.Node) { parked = n.HasToken() && !n.InCS() })
			if parked {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("torture: live: released token never came to rest within %s", liveAcquireTimeout)
		}
		time.Sleep(liveUnit / 4)
	}
}
