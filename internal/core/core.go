// Package core is the public facade of the adaptive token-passing library:
// it assembles the protocol state machines, a transport, the live node
// runtimes, and the application services (distributed mutex, totally
// ordered broadcast) into a Cluster — the API the examples and command-line
// tools consume.
//
// The protocol is the paper's System BinarySearch by default: a token
// circulates a logical ring for throughput and fairness, while requesters'
// "gimme" messages binary-search for it, giving O(log N) responsiveness
// under light load. Options select the baseline ring protocol, the search
// variants, trap garbage collection, adaptive token speed, and failure
// recovery.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"adaptivetoken/internal/faults"
	"adaptivetoken/internal/host"
	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/mutex"
	"adaptivetoken/internal/node"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/telemetry"
	"adaptivetoken/internal/tobcast"
	"adaptivetoken/internal/transport"
)

// Option customizes a Cluster.
type Option func(*settings)

type settings struct {
	cfg         protocol.Config
	timeUnit    time.Duration
	plan        faults.Plan
	observer    host.Observer
	metricsAddr string
	shard       int
	topts       *transport.Options
}

// WithVariant selects the protocol variant (default BinarySearch).
func WithVariant(v protocol.Variant) Option {
	return func(s *settings) { s.cfg.Variant = v }
}

// WithHoldIdle sets the fixed idle hold (token speed) in protocol time
// units.
func WithHoldIdle(d protocol.Time) Option {
	return func(s *settings) { s.cfg.HoldIdle = d }
}

// WithAdaptiveSpeed enables demand-adaptive token speed between the two
// hold bounds.
func WithAdaptiveSpeed(min, max protocol.Time) Option {
	return func(s *settings) {
		s.cfg.AdaptiveSpeed = true
		s.cfg.MinHold = min
		s.cfg.MaxHold = max
	}
}

// WithTrapGC selects trap garbage collection.
func WithTrapGC(mode protocol.GCMode) Option {
	return func(s *settings) { s.cfg.TrapGC = mode }
}

// WithResearchTimeout re-issues searches for unserved requests after d.
func WithResearchTimeout(d protocol.Time) Option {
	return func(s *settings) { s.cfg.ResearchTimeout = d }
}

// WithRecovery enables token-loss detection and regeneration after d.
func WithRecovery(d protocol.Time) Option {
	return func(s *settings) { s.cfg.RecoveryTimeout = d }
}

// WithTimeUnit sets the wall-clock length of one protocol time unit
// (default one millisecond).
func WithTimeUnit(d time.Duration) Option {
	return func(s *settings) { s.timeUnit = d }
}

// WithFaults injects faults from the plan into every node's dispatch path.
// All nodes draw from one shared, dispatch-sequence-keyed injector, so the
// recorded schedule (see Cluster.FaultSchedule) replays like a simulated
// one. Pause windows need simulated time and are rejected here.
func WithFaults(p faults.Plan) Option {
	return func(s *settings) { s.plan = p }
}

// WithObserver attaches o to every node's host: it receives each
// state-machine step and injected fault across the whole cluster,
// serialized through one mutex (wrap not required). This is how the
// conformance checker and metrics attach to live runs.
func WithObserver(o host.Observer) Option {
	return func(s *settings) { s.observer = o }
}

// WithShard marks this cluster or node as shard k of a sharded deployment:
// every series its /metrics endpoint exports carries a shard="k" label, so
// one scrape configuration covers all rings and dashboards can filter or
// aggregate by shard. Protocol behavior is unchanged — shards are
// independent rings; only the observability output is tagged.
func WithShard(k int) Option {
	return func(s *settings) { s.shard = k + 1 }
}

// WithMetricsAddr starts a live observability endpoint on addr (host:port;
// a :0 port picks a free one) serving Prometheus text on /metrics, a
// liveness probe on /healthz, and the Go profiling handlers under
// /debug/pprof/. The endpoint is backed by a telemetry.Tracer observing
// every step and fault — it composes with WithObserver — and is closed with
// the cluster or node. The actual address is available via MetricsAddr.
func WithMetricsAddr(addr string) Option {
	return func(s *settings) { s.metricsAddr = addr }
}

// WithTransportOptions tunes the live TCP transport: bounded per-peer
// queue length, backpressure policy (drop cheap messages vs block the
// sender), and reconnect backoff bounds. Only NewLiveNode uses a TCP
// transport; in-process clusters ignore it.
func WithTransportOptions(o transport.Options) Option {
	return func(s *settings) { s.topts = &o }
}

// shardLabel renders the shard mark for the metrics exporter (empty when
// WithShard was not used; shard is stored off by one so the zero settings
// value means unsharded).
func (s settings) shardLabel() string {
	if s.shard == 0 {
		return ""
	}
	return strconv.Itoa(s.shard - 1)
}

// Cluster is an in-process ring of live nodes over a channel network —
// the quickest way to use the library, and the configuration every example
// runs.
type Cluster struct {
	cfg      protocol.Config
	net      *transport.ChannelNetwork
	faults   *faults.Shared
	runtimes []*node.Runtime
	mutexes  []*mutex.Mutex
	bcasts   []*tobcast.Broadcaster
	tracer   *telemetry.Tracer
	telem    *telemetry.Server
}

// NewCluster builds and starts an n-node cluster. Node 0 bootstraps the
// token. Close must be called to release goroutines.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	s := settings{
		cfg: protocol.Config{
			Variant:         protocol.BinarySearch,
			N:               n,
			HoldIdle:        2,
			TrapGC:          protocol.GCRotation,
			ResearchTimeout: 1000,
		},
		timeUnit: time.Millisecond,
	}
	for _, opt := range opts {
		opt(&s)
	}
	s.cfg.N = n
	if s.plan.Seed == 0 {
		s.plan.Seed = 1
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}

	var tracer *telemetry.Tracer
	if s.metricsAddr != "" {
		tracer = telemetry.NewTracer(telemetry.Config{N: n})
		s.observer = host.Tee(s.observer, tracer)
	}
	shared, obs, err := liveInstrumentation(s)
	if err != nil {
		return nil, err
	}

	net, err := transport.NewChannelNetwork(n)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		cfg:      s.cfg,
		net:      net,
		faults:   shared,
		runtimes: make([]*node.Runtime, n),
		mutexes:  make([]*mutex.Mutex, n),
		bcasts:   make([]*tobcast.Broadcaster, n),
		tracer:   tracer,
	}
	ropts := []node.Option{node.WithFaults(shared)}
	if obs != nil {
		ropts = append(ropts, node.WithObserver(obs))
	}
	for i := 0; i < n; i++ {
		p, err := protocol.New(i, s.cfg)
		if err != nil {
			net.Close()
			return nil, err
		}
		rt, err := node.NewRuntime(p, net.Endpoint(i), s.timeUnit, ropts...)
		if err != nil {
			net.Close()
			return nil, err
		}
		c.runtimes[i] = rt
		c.mutexes[i] = mutex.New(rt)
		c.bcasts[i] = tobcast.New(rt, n)
		rt.Start()
	}
	c.runtimes[0].Bootstrap()
	if s.metricsAddr != "" {
		exp := &telemetry.Exporter{Tracer: tracer, Messages: c.msgCounts, Node: -1,
			Shard: s.shardLabel()}
		srv, err := telemetry.NewServer(s.metricsAddr, exp.WriteMetrics)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.telem = srv
	}
	return c, nil
}

// msgCounts aggregates the per-kind dispatch counters across every runtime,
// sorted — the cluster-wide series the /metrics endpoint exports.
func (c *Cluster) msgCounts() []metrics.KindCount {
	totals := make(map[string]int64)
	for _, rt := range c.runtimes {
		for _, kc := range rt.MsgStatsSorted() {
			totals[kc.Kind] += kc.Count
		}
	}
	out := make([]metrics.KindCount, 0, len(totals))
	for k, v := range totals {
		out = append(out, metrics.KindCount{Kind: k, Count: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// Tracer returns the telemetry tracer backing the observability endpoint
// (nil without WithMetricsAddr). Use it to export a timeline of the live
// run (WriteChromeTrace).
func (c *Cluster) Tracer() *telemetry.Tracer { return c.tracer }

// MetricsAddr returns the observability endpoint's actual listen address
// (empty without WithMetricsAddr).
func (c *Cluster) MetricsAddr() string {
	if c.telem == nil {
		return ""
	}
	return c.telem.Addr()
}

// liveInstrumentation builds the shared fault injector and (optionally)
// mutex-serialized observer a set of concurrent live runtimes attaches to.
func liveInstrumentation(s settings) (*faults.Shared, host.Observer, error) {
	if len(s.plan.Pauses) > 0 {
		return nil, nil, fmt.Errorf("core: fault pauses need simulated time; use the simulation driver")
	}
	inj, err := faults.NewInjector(s.plan)
	if err != nil {
		return nil, nil, err
	}
	var obs host.Observer
	if s.observer != nil {
		obs = host.NewSyncObserver(s.observer)
	}
	return faults.Share(inj), obs, nil
}

// Config returns the protocol configuration in use.
func (c *Cluster) Config() protocol.Config { return c.cfg }

// Runtime returns node i's live runtime.
func (c *Cluster) Runtime(i int) *node.Runtime { return c.runtimes[i] }

// Mutex returns node i's distributed lock handle.
func (c *Cluster) Mutex(i int) *mutex.Mutex { return c.mutexes[i] }

// Broadcaster returns node i's total-order broadcast handle.
func (c *Cluster) Broadcaster(i int) *tobcast.Broadcaster { return c.bcasts[i] }

// WaitDelivered blocks until every node has delivered at least total
// broadcasts, or ctx is done.
func (c *Cluster) WaitDelivered(ctx context.Context, total int) error {
	for {
		done := true
		for _, b := range c.bcasts {
			if b.Delivered() < total {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: waiting for %d deliveries: %w", total, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Network exposes the underlying channel network for topology faults
// (severed links, partitions).
func (c *Cluster) Network() *transport.ChannelNetwork { return c.net }

// FaultSchedule returns the replayable record of every fault decision the
// cluster's shared injector has taken so far, keyed by global dispatch
// sequence.
func (c *Cluster) FaultSchedule() faults.Schedule { return c.faults.Schedule() }

// Close shuts the whole cluster down.
func (c *Cluster) Close() error {
	if c.telem != nil {
		c.telem.Close()
	}
	err := c.net.Close()
	for _, rt := range c.runtimes {
		if rt != nil {
			rt.Stop()
		}
	}
	return err
}

// LiveNode is one member of a TCP-connected ring: the building block of
// cmd/ringnode and multi-process deployments.
type LiveNode struct {
	Runtime     *node.Runtime
	Mutex       *mutex.Mutex
	Broadcaster *tobcast.Broadcaster
	transport   *transport.TCP
	tracer      *telemetry.Tracer
	telem       *telemetry.Server
}

// NewLiveNode starts node id of a ring whose members listen at addrs
// (index = ring position). bootstrap marks this node as the initial token
// holder; exactly one node per ring must set it.
func NewLiveNode(id int, addrs []string, bootstrap bool, opts ...Option) (*LiveNode, error) {
	s := settings{
		cfg: protocol.Config{
			Variant:         protocol.BinarySearch,
			N:               len(addrs),
			HoldIdle:        5,
			TrapGC:          protocol.GCRotation,
			ResearchTimeout: 2000,
			RecoveryTimeout: 10000,
		},
		timeUnit: time.Millisecond,
	}
	for _, opt := range opts {
		opt(&s)
	}
	s.cfg.N = len(addrs)
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	var tracer *telemetry.Tracer
	if s.metricsAddr != "" {
		tracer = telemetry.NewTracer(telemetry.Config{N: len(addrs)})
		s.observer = host.Tee(s.observer, tracer)
	}
	shared, obs, err := liveInstrumentation(s)
	if err != nil {
		return nil, err
	}
	var tcp *transport.TCP
	if s.topts != nil {
		tcp, err = transport.NewTCP(id, addrs, *s.topts)
	} else {
		tcp, err = transport.NewTCP(id, addrs)
	}
	if err != nil {
		return nil, err
	}
	p, err := protocol.New(id, s.cfg)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	ropts := []node.Option{node.WithFaults(shared)}
	if obs != nil {
		ropts = append(ropts, node.WithObserver(obs))
	}
	rt, err := node.NewRuntime(p, tcp, s.timeUnit, ropts...)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	ln := &LiveNode{
		Runtime:     rt,
		Mutex:       mutex.New(rt),
		Broadcaster: tobcast.New(rt, len(addrs)),
		transport:   tcp,
		tracer:      tracer,
	}
	rt.Start()
	if bootstrap {
		rt.Bootstrap()
	}
	if s.metricsAddr != "" {
		exp := &telemetry.Exporter{Tracer: tracer, Messages: rt.MsgStatsSorted, Node: id,
			Shard: s.shardLabel(), Transport: tcp.Stats}
		srv, err := telemetry.NewServer(s.metricsAddr, exp.WriteMetrics)
		if err != nil {
			ln.Close()
			return nil, err
		}
		ln.telem = srv
	}
	return ln, nil
}

// MetricsAddr returns the observability endpoint's actual listen address
// (empty without WithMetricsAddr).
func (ln *LiveNode) MetricsAddr() string {
	if ln.telem == nil {
		return ""
	}
	return ln.telem.Addr()
}

// Addr returns the node's actual listen address.
func (ln *LiveNode) Addr() string { return ln.transport.Addr() }

// Tracer returns the telemetry tracer backing the observability endpoint
// (nil without WithMetricsAddr).
func (ln *LiveNode) Tracer() *telemetry.Tracer { return ln.tracer }

// TransportStats snapshots the hardened TCP transport's counters (queue
// depth, batching, drops, reconnects).
func (ln *LiveNode) TransportStats() transport.Stats { return ln.transport.Stats() }

// Close stops the node.
func (ln *LiveNode) Close() error {
	if ln.telem != nil {
		ln.telem.Close()
	}
	ln.Runtime.Stop()
	return nil
}

// String identifies the node.
func (ln *LiveNode) String() string {
	return fmt.Sprintf("node %d @ %s", ln.Runtime.ID(), ln.Addr())
}
