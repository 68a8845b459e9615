package bench

import (
	"fmt"
	"math"
	"strings"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// An experiment is one table of the evaluation, as data: an x axis, the
// seeded runs made at every x, and the numbers read off each run. table()
// is the only code that builds jobs, fans them out and folds results into
// points, so an entry cannot get that bookkeeping wrong. To add a table, add
// an entry to experiments.
type experiment struct {
	id     string
	name   string
	xlabel string
	// xs is the x axis; only fig9big reads the options (Options.Nodes).
	xs func(Options) []float64
	// runs are the simulations made at every x, each a fresh Job (stateful
	// generators must not be shared between jobs).
	runs []runFn
	cols []column
	// heavy keeps the experiment out of All() and runs its jobs one at a
	// time whatever Options.Parallelism says: fig9big's 10⁵–10⁶-node rings
	// alive at once would multiply the peak heap.
	heavy bool
}

// column is one series: val reads it off the result of runs[run] at x.
type column struct {
	label string
	run   int
	val   valFn
}

type (
	runFn = func(x float64, o Options) Job
	valFn = func(x float64, r driver.Result) float64
)

// table runs the experiment: one job per (x, run), results folded into one
// point per x. Every job is seeded from opts.Seed alone, so the table does
// not depend on job order or on the pool size.
func (e *experiment) table(opts Options) (Table, error) {
	opts = opts.withDefaults()
	if e.heavy {
		opts.Parallelism = 1
	}
	t := Table{Name: e.name, XLabel: e.xlabel}
	for _, c := range e.cols {
		t.Series = append(t.Series, c.label)
	}
	xs := e.xs(opts)
	jobs := make([]Job, 0, len(xs)*len(e.runs))
	for _, x := range xs {
		for _, run := range e.runs {
			jobs = append(jobs, run(x, opts))
		}
	}
	res, err := runJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	for i, x := range xs {
		p := Point{X: x, Y: make(map[string]float64, len(e.cols))}
		for _, c := range e.cols {
			p.Y[c.label] = c.val(x, res[i*len(e.runs)+c.run])
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// figureConfig is the per-variant configuration used by the figure
// reproductions: the search protocol runs with rotation trap GC (the §4.4
// satisfaction-record clean-up), without which stale traps make the token
// bounce off already-served requesters and the log-n bound drowns in
// vacuous deliveries at large n (the trapgc ablation quantifies exactly
// this).
func figureConfig(v protocol.Variant, n int) protocol.Config {
	cfg := protocol.Config{Variant: v, N: n}
	if v != protocol.RingToken {
		cfg.TrapGC = protocol.GCRotation
	}
	return cfg
}

// poisson is the figures' run: variant v on n nodes, Poisson arrivals with
// the given mean gap.
func poisson(v protocol.Variant, n int, gap float64) Job {
	return Job{Cfg: figureConfig(v, n), Gen: workload.Poisson{N: n, MeanGap: gap}}
}

// ringOf sweeps the ring size: x nodes at a fixed mean gap.
func ringOf(v protocol.Variant, gap float64) runFn {
	return func(x float64, _ Options) Job { return poisson(v, int(x), gap) }
}

// atGap sweeps the load: n nodes at mean gap x.
func atGap(v protocol.Variant, n int) runFn {
	return func(x float64, _ Options) Job { return poisson(v, n, x) }
}

// fixed is an x axis that does not depend on the options.
func fixed(xs ...float64) func(Options) []float64 {
	return func(Options) []float64 { return xs }
}

func respMean(_ float64, r driver.Result) float64 { return r.Responsiveness.Mean }
func respP50(_ float64, r driver.Result) float64  { return r.Responsiveness.P50 }
func respP95(_ float64, r driver.Result) float64  { return r.Responsiveness.P95 }
func respP99(_ float64, r driver.Result) float64  { return r.Responsiveness.P99 }
func waitMean(_ float64, r driver.Result) float64 { return r.Waits.Mean }
func waitP50(_ float64, r driver.Result) float64  { return r.Waits.P50 }
func waitP99(_ float64, r driver.Result) float64  { return r.Waits.P99 }
func log2x(x float64, _ driver.Result) float64    { return math.Log2(x) }

// perRequest is the number of messages of the given kinds per issued
// request.
func perRequest(kinds ...string) valFn {
	return func(_ float64, r driver.Result) float64 {
		var msgs int64
		for _, k := range kinds {
			msgs += r.Messages[k]
		}
		return float64(msgs) / float64(r.Issued)
	}
}

// expensive counts the token-bearing messages of a run.
func expensive(_ float64, r driver.Result) float64 {
	return float64(r.Messages["token"] + r.Messages["token-return"])
}

func expensivePerGrant(x float64, r driver.Result) float64 {
	return expensive(x, r) / float64(r.Grants)
}

// The cheap messages a request costs: what the directed ablation counts
// (searches and the probes that answer them) and what the push ablation
// counts (searches and the push dual's want queries).
var (
	directedCheap = perRequest("search", "probe", "probe-reply")
	pushCheap     = perRequest("search", "want-query", "want-reply")
)

// fig9Cols are the series Figure 9 plots, at any scale.
var fig9Cols = []column{
	{"ring", 0, respMean}, {"linear", 1, respMean}, {"binsearch", 2, respMean},
	{"log2(n)", 0, log2x},
}

// fig9bigEventCap bounds the per-point work of the scaling sweep: requests
// are capped so that requests × n stays under it, because LinearSearch's
// gimme chases the token hop by hop (O(n) cheap messages per request) and
// would otherwise turn the N=10⁵ point into ~10⁹ events. Ring and binary
// search cost far less; the cap keeps the whole sweep at tens of millions
// of events.
const fig9bigEventCap = 20_000_000

// fig9bigRequests is the per-point request count of the scaling sweep. The
// 200-request floor yields to the event cap at very large rings (n > 10⁵,
// where 200 LinearSearch requests alone would blow past it) but never drops
// below 20 — enough grants for the responsiveness mean to be meaningful.
// For n ≤ 10⁵ the cap allows ≥ 200, so every pre-existing sweep point is
// untouched; at n = 10⁶ the point runs 20 requests.
func fig9bigRequests(requests, n int) int {
	limit := fig9bigEventCap / n
	if requests > limit {
		requests = limit
	}
	floor := 200
	if limit < floor {
		floor = limit
	}
	if floor < 20 {
		floor = 20
	}
	if requests < floor {
		requests = floor
	}
	return requests
}

// fig9bigSizes is the scaling sweep's axis: 10³, 10⁴, 10⁵, or — when
// Options.Nodes is set — the sizes below it and then Nodes itself.
func fig9bigSizes(o Options) []float64 {
	ns := []float64{1_000, 10_000, 100_000}
	if o.Nodes <= 0 {
		return ns
	}
	var capped []float64
	for _, n := range ns {
		if n < float64(o.Nodes) {
			capped = append(capped, n)
		}
	}
	return append(capped, float64(o.Nodes))
}

func fig9bigRun(v protocol.Variant) runFn {
	return func(x float64, o Options) Job {
		j := poisson(v, int(x), 10)
		j.Requests = fig9bigRequests(o.Requests, int(x))
		return j
	}
}

// trapGCRun is a BinarySearch ring of 64 under one of the three GC modes.
func trapGCRun(x float64, _ Options) Job {
	const n = 64
	mode := []protocol.GCMode{protocol.GCNone, protocol.GCRotation, protocol.GCInverse}[int(x)]
	return Job{
		Cfg: protocol.Config{Variant: protocol.BinarySearch, N: n, TrapGC: mode, TrapTTLRounds: n},
		Gen: workload.Poisson{N: n, MeanGap: 8},
	}
}

// speedRun holds an idle token for x time units; x = -1 is the adaptive
// §4.4 policy.
func speedRun(x float64, _ Options) Job {
	j := poisson(protocol.BinarySearch, 64, 200)
	if x < 0 {
		j.Cfg.AdaptiveSpeed = true
		j.Cfg.MinHold = 1
		j.Cfg.MaxHold = 256
	} else {
		j.Cfg.HoldIdle = protocol.Time(x)
	}
	return j
}

// pushRun is variant v on 32 nodes under steady (x = 0) or bursty (x = 1)
// load.
func pushRun(v protocol.Variant) runFn {
	return func(x float64, _ Options) Job {
		const n = 32
		j := poisson(v, n, 50)
		if x == 1 {
			j.Gen = &workload.Bursty{N: n, BurstSize: 6, WithinGap: 1, IdleGap: 400}
		}
		return j
	}
}

func fairnessRun(x float64, o Options) Job {
	j := poisson(protocol.BinarySearch, int(x), 3)
	j.Requests = o.Requests / 2
	j.CSTime = 2
	j.TrackFairness = true
	return j
}

// saturationRun makes every node of an x-node ring ready at time 1.
func saturationRun(v protocol.Variant) runFn {
	return func(x float64, _ Options) Job {
		n := int(x)
		return Job{Cfg: figureConfig(v, n), Gen: &workload.AllAtOnce{N: n, At: 1}, Requests: n}
	}
}

// jitterRun is variant v at n=100, mean gap 200, under a constant, uniform
// or exponential delay model of mean ≈ 3.
func jitterRun(v protocol.Variant) runFn {
	return func(x float64, _ Options) Job {
		j := poisson(v, 100, 200)
		j.Cfg.ResearchTimeout = 2000 // jittery delays need retry insurance
		j.Delay = []sim.DelayModel{
			sim.ConstantDelay{D: 3},
			sim.UniformDelay{Min: 1, Max: 5},
			sim.ExponentialDelay{Mean: 3},
		}[int(x)]
		return j
	}
}

// experiments is the registry Run, All and IDs walk, in the order IDs lists.
var experiments = []experiment{
	{
		// The paper's Figure 9: average responsiveness under a fixed load
		// (mean request gap 10) as the number of processors grows.
		id: "fig9", name: "Figure 9 — responsiveness, fixed load (mean gap 10), sweeping n",
		xlabel: "n", xs: fixed(8, 16, 32, 64, 100, 128, 256, 512, 1000),
		runs: []runFn{
			ringOf(protocol.RingToken, 10),
			ringOf(protocol.LinearSearch, 10),
			ringOf(protocol.BinarySearch, 10),
		},
		cols: fig9Cols,
	},
	{
		// The Figure 9 shape pushed far beyond the paper's axis: the same
		// fixed load swept to rings of 10⁵ nodes, which only became tractable
		// with the timing-wheel scheduler and the O(1) invariant check. Its
		// largest point is deliberately heavyweight — run it explicitly
		// (`tokensim -exp fig9big`).
		id: "fig9big", name: "Figure 9 at scale — responsiveness, fixed load (mean gap 10), n to 1e5",
		xlabel: "n", xs: fig9bigSizes,
		runs: []runFn{
			fig9bigRun(protocol.RingToken),
			fig9bigRun(protocol.LinearSearch),
			fig9bigRun(protocol.BinarySearch),
		},
		cols:  fig9Cols,
		heavy: true,
	},
	{
		// Figure 10: average responsiveness at n = 100 as the load decreases
		// (mean request gap grows).
		id: "fig10", name: "Figure 10 — responsiveness at n=100, decreasing load",
		xlabel: "mean-gap", xs: fixed(1, 2, 5, 10, 20, 50, 100, 200, 500),
		runs: []runFn{atGap(protocol.RingToken, 100), atGap(protocol.BinarySearch, 100)},
		cols: []column{
			{"ring", 0, respMean}, {"binsearch", 1, respMean},
			{"log2(n)", 0, func(float64, driver.Result) float64 { return math.Log2(100) }},
			{"n/2", 0, func(float64, driver.Result) float64 { return 50 }},
		},
	},
	{
		// Delegated search (BinarySearch) against the §4.4 directed variant:
		// cheap-message counts per request and waits, across the Figure 10
		// load sweep.
		id: "directed", name: "Ablation — delegated vs directed search (n=100)",
		xlabel: "mean-gap", xs: fixed(5, 20, 100, 500),
		runs: []runFn{atGap(protocol.BinarySearch, 100), atGap(protocol.DirectedSearch, 100)},
		cols: []column{
			{"delegated-wait", 0, waitMean}, {"directed-wait", 1, waitMean},
			{"delegated-cheap/req", 0, directedCheap}, {"directed-cheap/req", 1, directedCheap},
		},
	},
	{
		// Trap garbage-collection modes: vacuous decorated deliveries
		// (bounces) and total expensive messages per grant.
		id: "trapgc", name: "Ablation — trap GC (n=64, mean gap 8)",
		xlabel: "mode", xs: fixed(0, 1, 2), // none, rotation, inverse
		runs: []runFn{trapGCRun},
		cols: []column{
			// A vacuous delivery shows as a token-return beyond one per
			// grant (inverse GC also routes through the trail, so compare
			// like with like via expensive totals too).
			{"bounces/grant", 0, func(_ float64, r driver.Result) float64 {
				grants := float64(r.Grants)
				return max(float64(r.Messages["token-return"])-grants, 0) / grants
			}},
			{"expensive/grant", 0, expensivePerGrant},
			{"wait-mean", 0, waitMean},
		},
	},
	{
		// The idle-hold (token speed) settings: token traffic versus waiting
		// time on a lightly loaded ring, the adaptive policy at x = -1.
		id: "speed", name: "Ablation — token speed (n=64, mean gap 200)",
		xlabel: "hold", xs: fixed(-1, 0, 4, 16, 64),
		runs: []runFn{speedRun},
		cols: []column{{"token-msgs/req", 0, perRequest("token")}, {"wait-mean", 0, waitMean}},
	},
	{
		// The pull search against the push dual under steady and bursty load.
		id: "push", name: "Ablation — pull vs push vs combined (n=32)",
		xlabel: "workload", xs: fixed(0, 1), // steady, bursty
		runs: []runFn{
			pushRun(protocol.BinarySearch),
			pushRun(protocol.PushProbe),
			pushRun(protocol.Combined),
		},
		cols: []column{
			{"pull-wait", 0, waitMean}, {"push-wait", 1, waitMean}, {"combined-wait", 2, waitMean},
			{"pull-cheap/req", 0, pushCheap}, {"push-cheap/req", 1, pushCheap},
			{"combined-cheap/req", 2, pushCheap},
		},
	},
	{
		// The §4.4 claim that with one outstanding request per node, gimme
		// messages stay within a constant factor of token passing messages,
		// across loads.
		id: "throttle", name: "Ablation — gimme/token message ratio (n=64)",
		xlabel: "mean-gap", xs: fixed(2, 10, 50, 200),
		runs: []runFn{atGap(protocol.BinarySearch, 64)},
		cols: []column{
			{"search-msgs", 0, func(_ float64, r driver.Result) float64 { return float64(r.Messages["search"]) }},
			{"token-msgs", 0, expensive},
			{"ratio", 0, func(x float64, r driver.Result) float64 {
				return float64(r.Messages["search"]) / expensive(x, r)
			}},
		},
	},
	{
		// Theorem 3's quantities under heavy contention: the maximum number
		// of possessions by any single other node while a request waits,
		// against the log N bound.
		id: "fairness", name: "Theorem 3 — possessions while waiting (heavy contention)",
		xlabel: "n", xs: fixed(8, 16, 32, 64),
		runs: []runFn{fairnessRun},
		cols: []column{
			{"max-by-one-mean", 0, func(_ float64, r driver.Result) float64 { return r.FairMax.Mean }},
			{"max-by-one-max", 0, func(_ float64, r driver.Result) float64 { return r.FairMax.Max }},
			{"log2(n)", 0, log2x},
			{"total-mean", 0, func(_ float64, r driver.Result) float64 { return r.FairTotal.Mean }},
		},
	},
	{
		// Every node simultaneously ready — the paper's "busy system" regime
		// where the hybrid must not lose the ring's throughput.
		id: "saturation", name: "Saturation — all nodes ready at once",
		xlabel: "n", xs: fixed(8, 32, 128),
		runs: []runFn{saturationRun(protocol.RingToken), saturationRun(protocol.BinarySearch)},
		cols: []column{{"ring", 0, respMean}, {"binsearch", 1, respMean}},
	},
	{
		// The headline shapes under non-constant message delays (the paper's
		// cost model charges a constant per message; real networks jitter).
		id: "jitter", name: "Sensitivity — message-delay models (n=100, mean gap 200, mean delay ≈3)",
		xlabel: "model", xs: fixed(0, 1, 2), // constant, uniform, exponential
		runs: []runFn{jitterRun(protocol.RingToken), jitterRun(protocol.BinarySearch)},
		cols: []column{{"ring-wait", 0, waitMean}, {"binsearch-wait", 1, waitMean}},
	},
	{
		// Waiting-time percentiles (the paper plots only averages; a
		// deployment cares about tails) across the load sweep.
		id: "tails", name: "Tails — waiting-time percentiles (n=100)",
		xlabel: "mean-gap", xs: fixed(10, 50, 500),
		runs: []runFn{atGap(protocol.RingToken, 100), atGap(protocol.BinarySearch, 100)},
		cols: []column{
			{"ring-p50", 0, waitP50}, {"ring-p99", 0, waitP99},
			{"binsearch-p50", 1, waitP50}, {"binsearch-p99", 1, waitP99},
		},
	},
	{
		// Responsiveness percentiles (Definition 3 intervals, not per-request
		// waits): how long the system leaves SOME node waiting, at the median
		// and in the tail. Figures 9–10 plot only the mean; the p95/p99
		// spread shows whether the binary search's O(log n) advantage
		// survives at the tail.
		id: "resptails", name: "Responsiveness tails — Definition 3 percentiles (n=100)",
		xlabel: "mean-gap", xs: fixed(10, 50, 500),
		runs: []runFn{atGap(protocol.RingToken, 100), atGap(protocol.BinarySearch, 100)},
		cols: []column{
			{"ring-p50", 0, respP50}, {"ring-p95", 0, respP95}, {"ring-p99", 0, respP99},
			{"binsearch-p50", 1, respP50}, {"binsearch-p95", 1, respP95}, {"binsearch-p99", 1, respP99},
		},
	},
	{
		// Lemma 6 as a curve: n swept under light load (mean gap 4n), the
		// cheap (search) message cost per request against log₂n, plus the
		// token messages each delivery costs.
		id: "msgcost", name: "Lemma 6 — search messages per request vs log2(n) (light load)",
		xlabel: "n", xs: fixed(8, 16, 32, 64, 128, 256, 512),
		runs: []runFn{func(x float64, _ Options) Job { return poisson(protocol.BinarySearch, int(x), 4*x) }},
		cols: []column{
			{"search/req", 0, perRequest("search")}, {"log2(n)", 0, log2x},
			{"expensive/grant", 0, expensivePerGrant},
		},
	},
}

func lookup(id string) (*experiment, bool) {
	for i := range experiments {
		if experiments[i].id == id {
			return &experiments[i], true
		}
	}
	return nil, false
}

// Run runs the experiment with the given id (see IDs).
func Run(id string, opts Options) (Table, error) {
	e, ok := lookup(id)
	if !ok {
		return Table{}, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return e.table(opts)
}

// Figure9 runs the fig9 experiment; the repo benchmark's paper-scale check
// calls it by name.
func Figure9(opts Options) (Table, error) { return Run("fig9", opts) }

// All runs every experiment but the heavy ones, keyed by id.
func All(opts Options) (map[string]Table, error) {
	out := make(map[string]Table, len(experiments))
	for i := range experiments {
		e := &experiments[i]
		if e.heavy {
			continue
		}
		tbl, err := e.table(opts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.id, err)
		}
		out[e.id] = tbl
	}
	return out, nil
}

// IDs lists the experiment identifiers.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
