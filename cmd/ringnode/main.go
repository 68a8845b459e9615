// Command ringnode runs one live member of an adaptive token-passing ring
// over TCP. Start N processes with the same -peers list (comma-separated
// host:port, index = ring position) and distinct -id values; the node with
// -id 0 bootstraps the token. Each node then exercises the ring: it takes
// the distributed lock -locks times and publishes -pubs totally ordered
// messages, printing what it delivers.
//
// Example, three terminals:
//
//	ringnode -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	ringnode -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	ringnode -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// With -metrics-addr each node also serves live observability over HTTP:
// Prometheus metrics on /metrics, a liveness probe on /healthz, and the Go
// profiling handlers under /debug/pprof/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"adaptivetoken/internal/core"
	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/tobcast"
	"adaptivetoken/internal/transport"
)

// traceObserver logs every state-machine step and injected fault of this
// node's host to stderr — the live counterpart of the simulator's trace
// output, attached with -observe.
type traceObserver struct {
	id int
}

func (o traceObserver) OnStep(s host.Step) {
	switch s.Kind {
	case host.StepDeliver:
		fmt.Fprintf(os.Stderr, "[node %d] t=%-6d %-9s %s from %d\n",
			o.id, s.At, s.Kind, s.Msg.Kind, s.Msg.From)
	case host.StepTimer:
		fmt.Fprintf(os.Stderr, "[node %d] t=%-6d %-9s %v\n", o.id, s.At, s.Kind, s.Timer)
	default:
		fmt.Fprintf(os.Stderr, "[node %d] t=%-6d %-9s\n", o.id, s.At, s.Kind)
	}
}

func (o traceObserver) OnFault(f host.FaultEvent) {
	fmt.Fprintf(os.Stderr, "[node %d] t=%-6d FAULT %-6s %s\n", o.id, f.At, f.Kind, f.Msg.Kind)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ringnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ringnode", flag.ContinueOnError)
	var (
		id      = fs.Int("id", 0, "this node's ring position")
		peers   = fs.String("peers", "", "comma-separated host:port list, index = position")
		locks   = fs.Int("locks", 3, "critical sections to enter")
		pubs    = fs.Int("pubs", 3, "totally ordered messages to publish")
		wait    = fs.Duration("wait", 3*time.Second, "settle time before and after the workload")
		timeout = fs.Duration("timeout", 60*time.Second, "per-operation timeout")
		observe = fs.Bool("observe", false, "log every protocol step and fault to stderr")
		metrics = fs.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this host:port (:0 picks a free port)")
		shardID = fs.Int("shard", -1, "shard id label for metrics and traces when this ring is one shard of a sharded deployment (-1 = unsharded)")
		faultsJ = fs.String("faults", "", "fault plan as JSON (e.g. '{\"seed\":7,\"drop_cheap\":0.2}'); pauses are simulation-only")

		load        = fs.Bool("load", false, "run the open-loop client load generator instead of the demo workload")
		loadRate    = fs.Float64("load-rate", 20, "mean client arrivals per second on this node")
		loadPattern = fs.String("load-pattern", "poisson", "arrival process: poisson or bursty (on/off MMPP at the same long-run rate)")
		loadDur     = fs.Duration("load-duration", 10*time.Second, "load window length")
		loadHold    = fs.Duration("load-hold", 2*time.Millisecond, "critical-section hold per client session")
		loadTimeout = fs.Duration("load-timeout", 30*time.Second, "per-session acquire timeout (0 = unbounded)")
		loadSeed    = fs.Uint64("load-seed", 1, "arrival schedule seed (the node id is mixed in per node)")
		loadGuard   = fs.String("load-guard", "", "shared flock guard file: live cross-process mutual-exclusion check")
		waitStart   = fs.Bool("wait-start", false, "wait for 'start' on stdin before the load; print LOAD_DONE and wait for 'exit' after it")
		tpQueue     = fs.Int("transport-queue", 0, "frames each per-peer outbound queue holds at most (0 = transport default)")
		tpPolicy    = fs.String("transport-policy", "", "transport backpressure policy: drop or block (empty = default)")
		recovery    = fs.Int("recovery", 0, "token-loss recovery timeout in protocol time units (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := strings.Split(*peers, ",")
	if len(addrs) < 2 || *id < 0 || *id >= len(addrs) {
		return fmt.Errorf("need -peers with ≥2 addresses and -id within range")
	}

	var opts []core.Option
	if *faultsJ != "" {
		var plan faults.Plan
		if err := json.Unmarshal([]byte(*faultsJ), &plan); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		opts = append(opts, core.WithFaults(plan))
	}
	if *observe {
		opts = append(opts, core.WithObserver(traceObserver{id: *id}))
	}
	if *metrics != "" {
		opts = append(opts, core.WithMetricsAddr(*metrics))
	}
	if *shardID >= 0 {
		opts = append(opts, core.WithShard(*shardID))
	}
	if *tpQueue > 0 || *tpPolicy != "" {
		var topts transport.Options
		topts.QueueLen = *tpQueue
		if *tpPolicy != "" {
			pol, err := transport.ParsePolicy(*tpPolicy)
			if err != nil {
				return err
			}
			topts.Policy = pol
		}
		opts = append(opts, core.WithTransportOptions(topts))
	}
	if *recovery > 0 {
		opts = append(opts, core.WithRecovery(protocol.Time(*recovery)))
	}

	if *load {
		return runLoad(loadParams{
			id:       *id,
			addrs:    addrs,
			rate:     *loadRate,
			pattern:  *loadPattern,
			duration: *loadDur,
			hold:     *loadHold,
			timeout:  *loadTimeout,
			settle:   *wait,
			seed:     *loadSeed,
			guard:    *loadGuard,
			wait:     *waitStart,
			opts:     opts,
		})
	}

	ln, err := core.NewLiveNode(*id, addrs, *id == 0, opts...)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("started %s (ring of %d)\n", ln, len(addrs))
	if addr := ln.MetricsAddr(); addr != "" {
		fmt.Printf("metrics at http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}

	ln.Broadcaster.Subscribe(func(e tobcast.Entry) {
		fmt.Printf("  delivered #%d from node %d: %s\n", e.Seq, e.Node, e.Payload)
	})

	// Let peers come up.
	time.Sleep(*wait)

	for i := 0; i < *locks; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		start := time.Now()
		if err := ln.Mutex.Lock(ctx); err != nil {
			cancel()
			return fmt.Errorf("lock %d: %w", i, err)
		}
		fmt.Printf("lock %d acquired after %v\n", i, time.Since(start).Round(time.Millisecond))
		time.Sleep(50 * time.Millisecond) // critical section
		if err := ln.Mutex.Unlock(); err != nil {
			cancel()
			return err
		}
		cancel()
	}

	for i := 0; i < *pubs; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		seq, err := ln.Broadcaster.Publish(ctx, fmt.Sprintf("hello %d from node %d", i, *id))
		cancel()
		if err != nil {
			return fmt.Errorf("publish %d: %w", i, err)
		}
		fmt.Printf("published #%d\n", seq)
	}

	// Give deliveries time to land everywhere before exiting.
	time.Sleep(*wait)
	fmt.Printf("done: delivered %d totally ordered messages\n", ln.Broadcaster.Delivered())
	fmt.Println(ln.Runtime.Stats())
	return nil
}
