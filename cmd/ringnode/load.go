package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"adaptivetoken/internal/core"
	"adaptivetoken/internal/loadgen"
	"adaptivetoken/internal/orchestra"
)

// loadParams collects the -load* flag values.
type loadParams struct {
	id       int
	addrs    []string
	rate     float64
	pattern  string
	duration time.Duration
	hold     time.Duration
	timeout  time.Duration
	settle   time.Duration
	seed     uint64
	guard    string
	wait     bool // -wait-start: stdin-coordinated start/exit
	opts     []core.Option
}

// guardedLocker wraps the distributed mutex with the cross-process flock
// guard: while a session believes it is inside the critical section, the
// guard file must be exclusively flockable — a conflict means two
// processes are in their critical sections at once, a live
// mutual-exclusion (census) violation.
type guardedLocker struct {
	inner      loadgen.Locker
	guard      *fileGuard
	violations *atomic.Int64
}

func (g *guardedLocker) Lock(ctx context.Context) error {
	if err := g.inner.Lock(ctx); err != nil {
		return err
	}
	if !g.guard.TryEnter() {
		g.violations.Add(1)
	}
	return nil
}

func (g *guardedLocker) Unlock() error {
	g.guard.Exit()
	return g.inner.Unlock()
}

// runLoad is the -load entry point: start the node, coordinate with the
// orchestrator over stdin/stdout, generate the load, print the node's one
// report (LOAD_DONE), and fail loudly on guard violations or leaked timers.
func runLoad(p loadParams) error {
	ln, err := core.NewLiveNode(p.id, p.addrs, p.id == 0, p.opts...)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			ln.Close()
		}
	}()
	fmt.Printf("started %s (ring of %d, load mode)\n", ln, len(p.addrs))
	if addr := ln.MetricsAddr(); addr != "" {
		fmt.Printf("metrics at http://%s/metrics\n", addr)
	}

	var arrivals loadgen.Arrivals
	switch p.pattern {
	case "poisson", "":
		arrivals = loadgen.Poisson{Rate: p.rate}
	case "bursty":
		// Same long-run rate, 10% duty cycle: 10× bursts for ~100ms
		// separated by ~900ms silences.
		arrivals = &loadgen.OnOff{OnRate: 10 * p.rate, MeanOn: 0.1, MeanOff: 0.9}
	default:
		return fmt.Errorf("unknown -load-pattern %q (poisson|bursty)", p.pattern)
	}

	stdin := bufio.NewScanner(os.Stdin)
	if p.wait {
		if !awaitLine(stdin, "start") {
			return fmt.Errorf("stdin closed before start signal")
		}
	}

	var violations atomic.Int64
	var lk loadgen.Locker = ln.Mutex
	var guard *fileGuard
	if p.guard != "" {
		guard, err = openGuard(p.guard)
		if err != nil {
			return fmt.Errorf("-load-guard: %w", err)
		}
		defer guard.Close()
		lk = &guardedLocker{inner: lk, guard: guard, violations: &violations}
	}

	// Seed mixing: node i draws an independent stream; the cluster-wide
	// superposition of per-node Poisson processes is again Poisson.
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Arrivals:       arrivals,
		Seed:           p.seed + uint64(p.id)*0x9e3779b97f4a7c15,
		Duration:       p.duration,
		Hold:           p.hold,
		MaxInFlight:    64,
		AcquireTimeout: p.timeout,
	}, lk)
	if err != nil {
		return err
	}

	done := orchestra.LoadDone{
		Node:       p.id,
		Violations: violations.Load(),
		Report:     *rep,
		Messages:   ln.Runtime.MsgStatsSorted(),
		Transport:  ln.TransportStats(),
	}
	if tr := ln.Tracer(); tr != nil {
		done.Grants = tr.Stats().Grants
		done.Resp = tr.RespHist()
	}
	buf, err := json.Marshal(done)
	if err != nil {
		return err
	}
	fmt.Printf("LOAD_DONE %s\n", buf)

	if p.wait {
		// Keep the node and /metrics up until the orchestrator says exit.
		awaitLine(stdin, "exit")
	} else if p.settle > 0 {
		// Uncoordinated runs: linger so slower peers can finish their
		// in-flight sessions against a complete ring before this node
		// disappears.
		time.Sleep(p.settle)
	}
	closed = true
	if err := ln.Close(); err != nil {
		return err
	}
	if n := ln.Runtime.PendingTimers(); n != 0 {
		return fmt.Errorf("%d timers still armed after shutdown", n)
	}
	if v := violations.Load(); v != 0 {
		return fmt.Errorf("%d cross-process mutual-exclusion violations", v)
	}
	return nil
}

// awaitLine reads stdin until the expected line (or EOF — treated as the
// signal, so manual runs without an orchestrator don't hang forever).
func awaitLine(sc *bufio.Scanner, want string) bool {
	for sc.Scan() {
		if sc.Text() == want {
			return true
		}
	}
	return sc.Err() == nil && want == "exit" // bare EOF is an implicit exit, never an implicit start
}
