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
// An experiment is one entry of the registry in experiments.go — an x axis,
// the seeded runs made at every x, the numbers read off each run — and one
// loop (experiment.table) turns any entry into a Table that renders as
// aligned text or CSV. Run(id, opts) is the way in; cmd/tokensim and the
// root-level benchmarks call it. A new table is a new entry, not new code.
//
// Experiments are embarrassingly parallel — every run owns its own seeded
// sim.Engine — so the loop builds the job list up front and fans it across
// a worker pool (Options.Parallelism), reassembling results in submission
// order. Tables are byte-identical at every parallelism level;
// Parallelism: 1 is the sequential oracle the equivalence tests compare
// against.
package bench

import (
	"fmt"
	"strconv"
	"strings"

	"adaptivetoken/internal/driver"
	"adaptivetoken/internal/sim"
)

// Options tunes experiment scale.
type Options struct {
	// Seed drives all randomness and is used as given: 0 is a seed like
	// any other.
	Seed uint64
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
	if o.Requests <= 0 {
		o.Requests = d.Requests
	}
	if o.MaxTime <= 0 {
		o.MaxTime = d.MaxTime
	}
	return o
}

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
