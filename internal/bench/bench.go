// Package bench is the experiment harness that regenerates the paper's
// evaluation (§4.3) and the ablations its §4.4 optimization discussion
// implies:
//
//   - Figure 9 — fixed load (one request per 10 time units on average),
//     sweeping the number of processors: the ring's average responsiveness
//     approaches the request gap while BinarySearch stays bounded by log n;
//   - Figure 10 — fixed n = 100, decreasing load: the ring approaches
//     n/2 = 50 while BinarySearch approaches log n from below;
//   - ablations for directed search, trap GC, adaptive token speed, the
//     push dual, the gimme/token message ratio, and Theorem 3 fairness.
//
// Every experiment returns a Table that renders as an aligned text table or
// CSV; cmd/tokensim and the root-level benchmarks drive them.
//
// Experiments are embarrassingly parallel — every run owns its own seeded
// sim.Engine — so each experiment builds its job list up front and fans it
// across a Runner worker pool (Options.Parallelism), reassembling results
// in submission order. Tables are byte-identical at every parallelism
// level; Parallelism: 1 is the sequential oracle the equivalence tests
// compare against.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/protocol"
	"adaptivetoken/internal/sim"
	"adaptivetoken/internal/workload"
)

// Options tunes experiment scale.
type Options struct {
	// Seed drives all randomness. A zero Seed is replaced by the default
	// unless SeedSet marks it as deliberate.
	Seed uint64
	// SeedSet marks Seed as explicitly chosen, making Seed == 0 usable
	// (the CLI sets it whenever -seed is passed).
	SeedSet bool
	// Requests per simulation run (the paper runs ≥1000 rounds; the
	// default here is sized for CI).
	Requests int
	// MaxTime bounds each run in simulated time units.
	MaxTime sim.Time
	// Parallelism is the worker-pool size experiments fan their runs
	// across: 0 means runtime.GOMAXPROCS(0), 1 runs sequentially.
	Parallelism int
	// Nodes, when > 0, overrides the largest ring size of the fig9big
	// scaling sweep (the -nodes CLI flag); other experiments ignore it.
	Nodes int
	// Stats, when non-nil, accumulates totals (runs, simulated events,
	// messages, grants) across every run.
	Stats *RunStats
}

// DefaultOptions returns CI-sized defaults.
func DefaultOptions() Options {
	return Options{Seed: 1, Requests: 1500, MaxTime: 5_000_000}
}

// PaperOptions returns paper-scale settings (≥1000 token rounds per run).
func PaperOptions() Options {
	return Options{Seed: 1, Requests: 20_000, MaxTime: 50_000_000}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Seed == 0 && !o.SeedSet {
		o.Seed = d.Seed
	}
	if o.Requests <= 0 {
		o.Requests = d.Requests
	}
	if o.MaxTime <= 0 {
		o.MaxTime = d.MaxTime
	}
	return o
}

// runner returns the worker pool configured by the options.
func (o Options) runner() *Runner { return NewRunner(o.Parallelism) }

// Point is one x position of an experiment with one y value per series.
type Point struct {
	X float64
	Y map[string]float64
}

// Table is a rendered experiment: named series sampled at the points.
type Table struct {
	Name   string
	XLabel string
	Series []string
	Points []Point
}

// cellWidth over-estimates one rendered numeric cell (separator included)
// for pre-sizing the output builders.
const cellWidth = 24

// Format renders the table with aligned columns.
func (t Table) Format() string {
	var sb strings.Builder
	sb.Grow((len(t.Points) + 2) * (len(t.Series) + 1) * cellWidth)
	fmt.Fprintf(&sb, "# %s\n", t.Name)
	fmt.Fprintf(&sb, "%-10s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&sb, "  %20s", s)
	}
	sb.WriteByte('\n')
	for _, p := range t.Points {
		fmt.Fprintf(&sb, "%-10g", p.X)
		for _, s := range t.Series {
			fmt.Fprintf(&sb, "  %20.2f", p.Y[s])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CSV renders the table as comma-separated values. ParseCSV inverts it.
func (t Table) CSV() string {
	var sb strings.Builder
	sb.Grow((len(t.Points) + 1) * (len(t.Series) + 1) * cellWidth)
	sb.WriteString(t.XLabel)
	for _, s := range t.Series {
		sb.WriteByte(',')
		sb.WriteString(s)
	}
	sb.WriteByte('\n')
	for _, p := range t.Points {
		fmt.Fprintf(&sb, "%g", p.X)
		for _, s := range t.Series {
			fmt.Fprintf(&sb, ",%g", p.Y[s])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ParseCSV parses Table.CSV output back into a Table (Name is not part of
// the CSV encoding and comes back empty). Series names must not contain
// commas — none of the experiments' do.
func ParseCSV(s string) (Table, error) {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return Table{}, fmt.Errorf("bench: empty CSV")
	}
	head := strings.Split(lines[0], ",")
	t := Table{XLabel: head[0], Series: head[1:]}
	for ln, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(head) {
			return Table{}, fmt.Errorf("bench: CSV row %d has %d fields, want %d",
				ln+1, len(fields), len(head))
		}
		x, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return Table{}, fmt.Errorf("bench: CSV row %d: %w", ln+1, err)
		}
		p := Point{X: x, Y: make(map[string]float64, len(t.Series))}
		for i, series := range t.Series {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return Table{}, fmt.Errorf("bench: CSV row %d col %d: %w", ln+1, i+1, err)
			}
			p.Y[series] = v
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// runJob executes one simulation job and returns its result summary.
func runJob(j Job, opts Options) (driver.Result, error) {
	r, err := driver.New(j.Cfg, driver.Options{
		Seed:          opts.Seed,
		Delay:         j.Delay,
		CSTime:        j.CSTime,
		TrackFairness: j.TrackFairness,
	})
	if err != nil {
		return driver.Result{}, err
	}
	requests := opts.Requests
	if j.Requests > 0 {
		requests = j.Requests
	}
	end, err := r.RunWorkload(j.Gen, requests, opts.MaxTime)
	if err != nil {
		return driver.Result{}, fmt.Errorf("%s n=%d: %w", j.Cfg.Variant, j.Cfg.N, err)
	}
	res := r.Summarize(end)
	opts.Stats.record(res)
	return res, nil
}

// Figure9 reproduces the paper's Figure 9: average responsiveness under a
// fixed load (mean request gap 10) as the number of processors grows.
func Figure9(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ns := []int{8, 16, 32, 64, 100, 128, 256, 512, 1000}
	variants := []protocol.Variant{protocol.RingToken, protocol.LinearSearch, protocol.BinarySearch}
	t := Table{
		Name:   "Figure 9 — responsiveness, fixed load (mean gap 10), sweeping n",
		XLabel: "n",
		Series: []string{"ring", "linear", "binsearch", "log2(n)"},
	}
	jobs := make([]Job, 0, len(ns)*len(variants))
	for _, n := range ns {
		for _, v := range variants {
			jobs = append(jobs, Job{Cfg: figureConfig(v, n), Gen: workload.Poisson{N: n, MeanGap: 10}})
		}
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	k := 0
	for _, n := range ns {
		p := Point{X: float64(n), Y: map[string]float64{"log2(n)": math.Log2(float64(n))}}
		for _, v := range variants {
			p.Y[v.String()] = res[k].Responsiveness.Mean
			k++
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// Figure10 reproduces Figure 10: average responsiveness at n = 100 as the
// load decreases (mean request gap grows).
func Figure10(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const n = 100
	gaps := []float64{1, 2, 5, 10, 20, 50, 100, 200, 500}
	variants := []protocol.Variant{protocol.RingToken, protocol.BinarySearch}
	t := Table{
		Name:   "Figure 10 — responsiveness at n=100, decreasing load",
		XLabel: "mean-gap",
		Series: []string{"ring", "binsearch", "log2(n)", "n/2"},
	}
	jobs := make([]Job, 0, len(gaps)*len(variants))
	for _, gap := range gaps {
		for _, v := range variants {
			jobs = append(jobs, Job{Cfg: figureConfig(v, n), Gen: workload.Poisson{N: n, MeanGap: gap}})
		}
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	k := 0
	for _, gap := range gaps {
		p := Point{X: gap, Y: map[string]float64{
			"log2(n)": math.Log2(n),
			"n/2":     n / 2,
		}}
		for _, v := range variants {
			p.Y[v.String()] = res[k].Responsiveness.Mean
			k++
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
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

// Figure9Big is the Figure 9 shape pushed far beyond the paper's axis: the
// same fixed load (mean request gap 10) swept to rings of 10⁵ nodes, which
// only became tractable with the timing-wheel scheduler and the O(1)
// invariant check (ROADMAP open item 2). Excluded from All(): its largest
// point is deliberately heavyweight — run it explicitly (`tokensim -exp
// fig9big`). Options.Nodes overrides the largest ring.
func Figure9Big(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ns := []int{1_000, 10_000, 100_000}
	if opts.Nodes > 0 {
		capped := ns[:0:0]
		for _, n := range ns {
			if n < opts.Nodes {
				capped = append(capped, n)
			}
		}
		ns = append(capped, opts.Nodes)
	}
	variants := []protocol.Variant{protocol.RingToken, protocol.LinearSearch, protocol.BinarySearch}
	t := Table{
		Name:   "Figure 9 at scale — responsiveness, fixed load (mean gap 10), n to 1e5",
		XLabel: "n",
		Series: []string{"ring", "linear", "binsearch", "log2(n)"},
	}
	jobs := make([]Job, 0, len(ns)*len(variants))
	for _, n := range ns {
		for _, v := range variants {
			jobs = append(jobs, Job{
				Cfg:      figureConfig(v, n),
				Gen:      workload.Poisson{N: n, MeanGap: 10},
				Requests: fig9bigRequests(opts.Requests, n),
			})
		}
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	k := 0
	for _, n := range ns {
		p := Point{X: float64(n), Y: map[string]float64{"log2(n)": math.Log2(float64(n))}}
		for _, v := range variants {
			p.Y[v.String()] = res[k].Responsiveness.Mean
			k++
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// figureConfig is the per-variant configuration used by the figure
// reproductions: the search protocol runs with rotation trap GC (the §4.4
// satisfaction-record clean-up), without which stale traps make the token
// bounce off already-served requesters and the log-n bound drowns in
// vacuous deliveries at large n (the ablation AblationTrapGC quantifies
// exactly this).
func figureConfig(v protocol.Variant, n int) protocol.Config {
	cfg := protocol.Config{Variant: v, N: n}
	if v != protocol.RingToken {
		cfg.TrapGC = protocol.GCRotation
	}
	return cfg
}

// AblationDirected compares delegated search (BinarySearch) against the
// §4.4 directed variant: cheap-message counts per request and waits, across
// the Figure 10 load sweep.
func AblationDirected(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const n = 100
	gaps := []float64{5, 20, 100, 500}
	variants := []protocol.Variant{protocol.BinarySearch, protocol.DirectedSearch}
	t := Table{
		Name:   "Ablation — delegated vs directed search (n=100)",
		XLabel: "mean-gap",
		Series: []string{
			"delegated-wait", "directed-wait",
			"delegated-cheap/req", "directed-cheap/req",
		},
	}
	jobs := make([]Job, 0, len(gaps)*len(variants))
	for _, gap := range gaps {
		for _, v := range variants {
			jobs = append(jobs, Job{Cfg: figureConfig(v, n), Gen: workload.Poisson{N: n, MeanGap: gap}})
		}
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	k := 0
	for _, gap := range gaps {
		p := Point{X: gap, Y: map[string]float64{}}
		for _, v := range variants {
			r := res[k]
			k++
			label := "delegated"
			if v == protocol.DirectedSearch {
				label = "directed"
			}
			cheap := r.Messages["search"] + r.Messages["probe"] + r.Messages["probe-reply"]
			p.Y[label+"-wait"] = r.Waits.Mean
			p.Y[label+"-cheap/req"] = float64(cheap) / float64(r.Issued)
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// AblationTrapGC compares trap garbage-collection modes: vacuous decorated
// deliveries (bounces) and total expensive messages per grant.
func AblationTrapGC(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const n = 64
	t := Table{
		Name:   "Ablation — trap GC (n=64, mean gap 8)",
		XLabel: "mode",
		Series: []string{"bounces/grant", "expensive/grant", "wait-mean"},
	}
	modes := []protocol.GCMode{protocol.GCNone, protocol.GCRotation, protocol.GCInverse}
	jobs := make([]Job, 0, len(modes))
	for _, mode := range modes {
		cfg := protocol.Config{Variant: protocol.BinarySearch, N: n, TrapGC: mode, TrapTTLRounds: n}
		jobs = append(jobs, Job{Cfg: cfg, Gen: workload.Poisson{N: n, MeanGap: 8}})
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	for i, r := range res {
		grants := float64(r.Grants)
		// A vacuous delivery shows as a token-return beyond one per
		// grant (inverse GC also routes through the trail, so compare
		// like with like via expensive totals too).
		bounces := float64(r.Messages["token-return"]) - grants
		if bounces < 0 {
			bounces = 0
		}
		expensive := float64(r.Messages["token"] + r.Messages["token-return"])
		t.Points = append(t.Points, Point{X: float64(i), Y: map[string]float64{
			"bounces/grant":   bounces / grants,
			"expensive/grant": expensive / grants,
			"wait-mean":       r.Waits.Mean,
		}})
	}
	return t, nil
}

// GCModeLabels maps AblationTrapGC x positions to mode names.
func GCModeLabels() []string { return []string{"none", "rotation", "inverse"} }

// AblationSpeed sweeps the idle-hold (token speed) settings: token traffic
// versus waiting time on a lightly loaded ring, including the adaptive
// §4.4 policy.
func AblationSpeed(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const n = 64
	gen := func() workload.Generator { return workload.Poisson{N: n, MeanGap: 200} }
	t := Table{
		Name:   "Ablation — token speed (n=64, mean gap 200)",
		XLabel: "hold",
		Series: []string{"token-msgs/req", "wait-mean"},
	}
	holds := []protocol.Time{0, 4, 16, 64}
	jobs := make([]Job, 0, len(holds)+1)
	xs := make([]float64, 0, len(holds)+1)
	for _, hold := range holds {
		cfg := figureConfig(protocol.BinarySearch, n)
		cfg.HoldIdle = hold
		jobs = append(jobs, Job{Cfg: cfg, Gen: gen()})
		xs = append(xs, float64(hold))
	}
	// Adaptive policy, reported at x = -1.
	cfg := figureConfig(protocol.BinarySearch, n)
	cfg.AdaptiveSpeed = true
	cfg.MinHold = 1
	cfg.MaxHold = 256
	jobs = append(jobs, Job{Cfg: cfg, Gen: gen()})
	xs = append(xs, -1)

	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	for i, r := range res {
		t.Points = append(t.Points, Point{X: xs[i], Y: map[string]float64{
			"token-msgs/req": float64(r.Messages["token"]) / float64(r.Issued),
			"wait-mean":      r.Waits.Mean,
		}})
	}
	sort.Slice(t.Points, func(i, j int) bool { return t.Points[i].X < t.Points[j].X })
	return t, nil
}

// AblationPush compares the pull search against the push dual under bursty
// and steady load.
func AblationPush(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const n = 32
	t := Table{
		Name:   "Ablation — pull vs push vs combined (n=32)",
		XLabel: "workload", // 0 = steady, 1 = bursty
		Series: []string{
			"pull-wait", "push-wait", "combined-wait",
			"pull-cheap/req", "push-cheap/req", "combined-cheap/req",
		},
	}
	gens := []func() workload.Generator{
		func() workload.Generator { return workload.Poisson{N: n, MeanGap: 50} },
		func() workload.Generator {
			return &workload.Bursty{N: n, BurstSize: 6, WithinGap: 1, IdleGap: 400}
		},
	}
	variants := []protocol.Variant{protocol.BinarySearch, protocol.PushProbe, protocol.Combined}
	jobs := make([]Job, 0, len(gens)*len(variants))
	for _, mk := range gens {
		for _, v := range variants {
			cfg := figureConfig(v, n)
			cfg.PushWait = 2
			// mk() per job: stateful generators must not be shared.
			jobs = append(jobs, Job{Cfg: cfg, Gen: mk()})
		}
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	k := 0
	for x := range gens {
		p := Point{X: float64(x), Y: map[string]float64{}}
		for _, v := range variants {
			r := res[k]
			k++
			label := "pull"
			switch v {
			case protocol.PushProbe:
				label = "push"
			case protocol.Combined:
				label = "combined"
			}
			cheap := r.Messages["search"] + r.Messages["want-query"] + r.Messages["want-reply"]
			p.Y[label+"-wait"] = r.Waits.Mean
			p.Y[label+"-cheap/req"] = float64(cheap) / float64(r.Issued)
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// AblationThrottle verifies the §4.4 claim that with one outstanding
// request per node, gimme messages stay within a constant factor of token
// passing messages, across loads.
func AblationThrottle(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const n = 64
	gaps := []float64{2, 10, 50, 200}
	t := Table{
		Name:   "Ablation — gimme/token message ratio (n=64)",
		XLabel: "mean-gap",
		Series: []string{"search-msgs", "token-msgs", "ratio"},
	}
	jobs := make([]Job, 0, len(gaps))
	for _, gap := range gaps {
		jobs = append(jobs, Job{Cfg: figureConfig(protocol.BinarySearch, n),
			Gen: workload.Poisson{N: n, MeanGap: gap}})
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	for i, r := range res {
		search := float64(r.Messages["search"])
		token := float64(r.Messages["token"] + r.Messages["token-return"])
		t.Points = append(t.Points, Point{X: gaps[i], Y: map[string]float64{
			"search-msgs": search,
			"token-msgs":  token,
			"ratio":       search / token,
		}})
	}
	return t, nil
}

// FairnessExperiment measures Theorem 3's quantities under heavy
// contention: the maximum number of possessions by any single other node
// while a request waits, against the log N bound.
func FairnessExperiment(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ns := []int{8, 16, 32, 64}
	t := Table{
		Name:   "Theorem 3 — possessions while waiting (heavy contention)",
		XLabel: "n",
		Series: []string{"max-by-one-mean", "max-by-one-max", "log2(n)", "total-mean"},
	}
	jobs := make([]Job, 0, len(ns))
	for _, n := range ns {
		jobs = append(jobs, Job{
			Cfg:           figureConfig(protocol.BinarySearch, n),
			Gen:           workload.Poisson{N: n, MeanGap: 3},
			Requests:      opts.Requests / 2,
			CSTime:        2,
			TrackFairness: true,
		})
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	for i, r := range res {
		t.Points = append(t.Points, Point{X: float64(ns[i]), Y: map[string]float64{
			"max-by-one-mean": r.FairMax.Mean,
			"max-by-one-max":  r.FairMax.Max,
			"log2(n)":         math.Log2(float64(ns[i])),
			"total-mean":      r.FairTotal.Mean,
		}})
	}
	return t, nil
}

// Saturation reports the responsiveness of ring and binsearch when every
// node is simultaneously ready — the paper's "busy system" regime where the
// hybrid must not lose the ring's throughput.
func Saturation(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ns := []int{8, 32, 128}
	variants := []protocol.Variant{protocol.RingToken, protocol.BinarySearch}
	t := Table{
		Name:   "Saturation — all nodes ready at once",
		XLabel: "n",
		Series: []string{"ring", "binsearch"},
	}
	jobs := make([]Job, 0, len(ns)*len(variants))
	for _, n := range ns {
		for _, v := range variants {
			jobs = append(jobs, Job{
				Cfg:      figureConfig(v, n),
				Gen:      &workload.AllAtOnce{N: n, At: 1},
				Requests: n,
			})
		}
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	k := 0
	for _, n := range ns {
		p := Point{X: float64(n), Y: map[string]float64{}}
		for _, v := range variants {
			p.Y[v.String()] = res[k].Responsiveness.Mean
			k++
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// DelaySensitivity checks the headline shapes under non-constant message
// delays (the paper's cost model charges a constant per message; real
// networks jitter): ring vs binsearch waits at n=100, light load, under
// constant, uniform and exponential delay models with mean ≈ 3.
func DelaySensitivity(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const n = 100
	t := Table{
		Name:   "Sensitivity — message-delay models (n=100, mean gap 200, mean delay ≈3)",
		XLabel: "model", // 0 = constant, 1 = uniform, 2 = exponential
		Series: []string{"ring-wait", "binsearch-wait"},
	}
	models := []sim.DelayModel{
		sim.ConstantDelay{D: 3},
		sim.UniformDelay{Min: 1, Max: 5},
		sim.ExponentialDelay{Mean: 3},
	}
	variants := []protocol.Variant{protocol.RingToken, protocol.BinarySearch}
	jobs := make([]Job, 0, len(models)*len(variants))
	for _, dm := range models {
		for _, v := range variants {
			cfg := figureConfig(v, n)
			cfg.ResearchTimeout = 2000 // jittery delays need retry insurance
			jobs = append(jobs, Job{Cfg: cfg, Gen: workload.Poisson{N: n, MeanGap: 200}, Delay: dm})
		}
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	k := 0
	for x := range models {
		p := Point{X: float64(x), Y: map[string]float64{}}
		for _, v := range variants {
			label := "ring-wait"
			if v == protocol.BinarySearch {
				label = "binsearch-wait"
			}
			p.Y[label] = res[k].Waits.Mean
			k++
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// DelayModelLabels maps DelaySensitivity x positions to model names.
func DelayModelLabels() []string { return []string{"constant", "uniform", "exponential"} }

// TailLatency reports waiting-time percentiles (the paper plots only
// averages; a deployment cares about tails): ring vs binsearch at n = 100
// across the load sweep.
func TailLatency(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const n = 100
	gaps := []float64{10, 50, 500}
	variants := []protocol.Variant{protocol.RingToken, protocol.BinarySearch}
	t := Table{
		Name:   "Tails — waiting-time percentiles (n=100)",
		XLabel: "mean-gap",
		Series: []string{
			"ring-p50", "ring-p99", "binsearch-p50", "binsearch-p99",
		},
	}
	jobs := make([]Job, 0, len(gaps)*len(variants))
	for _, gap := range gaps {
		for _, v := range variants {
			jobs = append(jobs, Job{Cfg: figureConfig(v, n), Gen: workload.Poisson{N: n, MeanGap: gap}})
		}
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	k := 0
	for _, gap := range gaps {
		p := Point{X: gap, Y: map[string]float64{}}
		for _, v := range variants {
			r := res[k]
			k++
			label := "ring"
			if v == protocol.BinarySearch {
				label = "binsearch"
			}
			p.Y[label+"-p50"] = r.Waits.P50
			p.Y[label+"-p99"] = r.Waits.P99
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// ResponsivenessTails reports responsiveness percentiles (Definition 3
// intervals, not per-request waits): how long the system leaves SOME node
// waiting, at the median and in the tail, across the load sweep. The
// paper's Figures 9–10 plot only the mean; the p95/p99 spread shows
// whether the binary search's O(log n) advantage survives at the tail.
func ResponsivenessTails(opts Options) (Table, error) {
	opts = opts.withDefaults()
	const n = 100
	gaps := []float64{10, 50, 500}
	variants := []protocol.Variant{protocol.RingToken, protocol.BinarySearch}
	t := Table{
		Name:   "Responsiveness tails — Definition 3 percentiles (n=100)",
		XLabel: "mean-gap",
		Series: []string{
			"ring-p50", "ring-p95", "ring-p99",
			"binsearch-p50", "binsearch-p95", "binsearch-p99",
		},
	}
	jobs := make([]Job, 0, len(gaps)*len(variants))
	for _, gap := range gaps {
		for _, v := range variants {
			jobs = append(jobs, Job{Cfg: figureConfig(v, n), Gen: workload.Poisson{N: n, MeanGap: gap}})
		}
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	k := 0
	for _, gap := range gaps {
		p := Point{X: gap, Y: map[string]float64{}}
		for _, v := range variants {
			r := res[k]
			k++
			label := "ring"
			if v == protocol.BinarySearch {
				label = "binsearch"
			}
			p.Y[label+"-p50"] = r.Responsiveness.P50
			p.Y[label+"-p95"] = r.Responsiveness.P95
			p.Y[label+"-p99"] = r.Responsiveness.P99
		}
		t.Points = append(t.Points, p)
	}
	return t, nil
}

// MessageCost sweeps n under light load and reports the cheap (search)
// message cost per request against Lemma 6's log₂n bound, plus the token
// messages each delivery costs.
func MessageCost(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ns := []int{8, 16, 32, 64, 128, 256, 512}
	t := Table{
		Name:   "Lemma 6 — search messages per request vs log2(n) (light load)",
		XLabel: "n",
		Series: []string{"search/req", "log2(n)", "expensive/grant"},
	}
	jobs := make([]Job, 0, len(ns))
	for _, n := range ns {
		jobs = append(jobs, Job{Cfg: figureConfig(protocol.BinarySearch, n),
			Gen: workload.Poisson{N: n, MeanGap: float64(4 * n)}})
	}
	res, err := opts.runner().RunJobs(opts, jobs)
	if err != nil {
		return t, err
	}
	for i, r := range res {
		n := ns[i]
		expensive := float64(r.Messages["token"]+r.Messages["token-return"]) / float64(r.Grants)
		t.Points = append(t.Points, Point{X: float64(n), Y: map[string]float64{
			"search/req":      float64(r.Messages["search"]) / float64(r.Issued),
			"log2(n)":         math.Log2(float64(n)),
			"expensive/grant": expensive,
		}})
	}
	return t, nil
}

// experiments is the one registry All, Lookup and IDs walk, in the order
// IDs lists. fig9big is listed (and reachable via Lookup) but deliberately
// not part of All(): its N=10⁵ point is a heavyweight scaling run, invoked
// explicitly.
var experiments = []struct {
	id    string
	fn    func(Options) (Table, error)
	inAll bool
}{
	{"fig9", Figure9, true},
	{"fig9big", Figure9Big, false},
	{"fig9shard", Figure9Shard, true},
	{"fig10", Figure10, true},
	{"directed", AblationDirected, true},
	{"trapgc", AblationTrapGC, true},
	{"speed", AblationSpeed, true},
	{"push", AblationPush, true},
	{"throttle", AblationThrottle, true},
	{"fairness", FairnessExperiment, true},
	{"saturation", Saturation, true},
	{"jitter", DelaySensitivity, true},
	{"tails", TailLatency, true},
	{"resptails", ResponsivenessTails, true},
	{"msgcost", MessageCost, true},
}

// All runs every experiment but fig9big, keyed by its id from DESIGN.md.
func All(opts Options) (map[string]Table, error) {
	out := make(map[string]Table, len(experiments))
	for _, e := range experiments {
		if !e.inAll {
			continue
		}
		tbl, err := e.fn(opts)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.id, err)
		}
		out[e.id] = tbl
	}
	return out, nil
}

// Lookup returns the experiment function for an id, if known.
func Lookup(id string) (func(Options) (Table, error), bool) {
	for _, e := range experiments {
		if e.id == id {
			return e.fn, true
		}
	}
	return nil, false
}

// IDs lists the experiment identifiers.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
