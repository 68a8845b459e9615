// Command benchmark is the one benchmark of the simulator and the live ring.
// It runs a named workload for a fixed number of seconds, checks that what
// the system did was correct, prints every metric of BENCHMARK.json by name
// with its unit, and ends with one JSON object on the last line. README.md
// in this directory says what each workload and metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"adaptivetoken/internal/protocol"
)

// runConfig is what one pass over a workload is given.
type runConfig struct {
	seed   uint64
	window time.Duration
	// setups is how many times set-up is sampled before the window.
	setups int
	// trace splits the window into an untraced and a traced half and adds
	// the per-layer numbers.
	trace bool
	spans *spanLog
}

type benchWorkload struct {
	name string
	run  func(runConfig) (*report, error)
	// post derives metrics that need the layer ladder's figures next to the
	// workload's own (traced runs only).
	post func(*report)
}

// workloads lists the six workloads in BENCHMARK.json's order. toy shrinks
// every size so that the package's tests can run them all in seconds; the
// figures of a toy run mean nothing.
func workloads(toy bool) []benchWorkload {
	fig9 := simSpec{cells: fig9Cells(), requests: 3000, warm: 300, probe: 26}
	idle := simSpec{
		cells:    []simCell{{protocol.BinarySearch, 100, 500}, {protocol.RingToken, 100, 500}},
		requests: 10_000, warm: 1000, probe: 0,
	}
	big := simSpec{
		cells:    []simCell{{protocol.BinarySearch, 1_000_000, 10}},
		requests: 20_000, warm: 1000, probe: 0,
	}
	hot := liveSpec{nodes: 16, visit: []int{0, 8}, timeout: 5 * time.Second, warmLoop: 500 * time.Millisecond}
	open := liveSpec{tcp: true, nodes: 16, rate: 500, maxOut: 256, timeout: 5 * time.Second, warmLoop: 500 * time.Millisecond}
	if toy {
		fig9.requests, fig9.warm = 150, 20
		idle.requests, idle.warm = 300, 30
		big.cells[0].n, big.requests, big.warm = 20_000, 300, 30
		hot.nodes, hot.visit, hot.warmLoop = 4, []int{0, 2}, 20*time.Millisecond
		open.nodes, open.warmLoop = 4, 20*time.Millisecond
	}
	tcpHot, chanHot := hot, hot
	tcpHot.tcp = true
	return []benchWorkload{
		{name: "sim-fig9", run: fig9.run},
		{name: "sim-idle", run: idle.run, post: idleShares},
		{name: "sim-big", run: big.run, post: func(r *report) {
			r.set("driver.big_events_per_s", r.values["sim_events_per_s"])
			r.set("driver.big_setup_s", r.values["setup_s"])
		}},
		{name: "live-tcp-hot", run: tcpHot.run},
		{name: "live-chan-hot", run: chanHot.run},
		{name: "live-tcp-open", run: open.run},
	}
}

// idleShares answers "where does a simulated second go" on sim-idle, where
// nearly every event is a bare token hop: the engine's, the protocol's and
// the host's rungs are subtracted from the driver's time per event, and what
// is left — invariant checks, metrics, the driver's own loop — is the
// driver's share. The four sum to 100.
func idleShares(r *report) {
	total := r.values["driver.ns_per_event"]
	wheel, hop, arrive := r.values["sim.wheel_ns_per_event"], r.values["protocol.token_hop_ns"], r.values["host.arrive_ns"]
	if total == 0 || arrive == 0 {
		return
	}
	r.set("driver.self_ns_per_event", total-wheel-arrive)
	r.set("share.sim", 100*wheel/total)
	r.set("share.protocol", 100*hop/total)
	r.set("share.host", 100*(arrive-hop)/total)
	r.set("share.driver", 100*(total-wheel-arrive)/total)
	r.note("share.driver", "the residual: 100 minus the three rungs above")
}

// runOne runs one workload once and prints its metrics; the returned line
// is the machine-readable result.
func runOne(w io.Writer, sp *spec, wl benchWorkload, cfg runConfig, sc ladderScale) (resultLine, error) {
	list := sp.EndToEnd
	rep := newReport()
	if cfg.trace {
		list = sp.PerLayer
		l, err := ladder(sc, cfg.seed)
		if err != nil {
			return resultLine{}, fmt.Errorf("layer ladder: %w", err)
		}
		rep.merge(l)
	}
	r, err := wl.run(cfg)
	if err != nil {
		return resultLine{}, fmt.Errorf("%s: %w", wl.name, err)
	}
	rep.merge(r)
	rep.attempted, rep.failed = r.attempted, r.failed
	if cfg.trace && wl.post != nil {
		wl.post(rep)
	}
	res := rep.result(list, !cfg.trace)
	rep.print(w, wl.name, list, res)
	return res, nil
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spec     string
	repeat   int
	out      string
	spans    string
	compare  bool
	paper    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload, one after another)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: the layer ladder, then a window split into an untraced and a traced half; prints the per-layer metrics")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.IntVar(&o.repeat, "repeat", 1, "runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "", "write every run's result to this file, for -compare")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the traced pass's spans to this file as JSON lines")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files (arguments: A.json B.json); exit 1 if B is worse")
	flag.BoolVar(&o.paper, "paper", false, "run Figure 9 at paper scale and hold it against results_paper_fig9.txt")
	flag.Parse()
	if err := o.run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o options) run(args []string) error {
	sp, err := loadSpec(o.spec)
	if err != nil {
		return err
	}
	switch {
	case o.compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files, got %d", len(args))
		}
		return compareFiles(os.Stdout, sp, args[0], args[1])
	case o.paper:
		return paperFig9(os.Stdout)
	}
	selected := workloads(false)
	if o.workload != "" {
		var one []benchWorkload
		for _, wl := range selected {
			if wl.name == o.workload {
				one = append(one, wl)
			}
		}
		if one == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = one
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	cfg := runConfig{
		window: time.Duration(o.seconds * float64(time.Second)),
		setups: 3,
		trace:  o.trace != 0,
	}
	if cfg.trace {
		cfg.setups = 1 // a traced run does not report setup_s
		if o.spans != "" {
			cfg.spans = newSpanLog()
		}
	}
	record := recordFile{Runs: map[string][]resultLine{}}
	var last resultLine
	ok := true
	for _, wl := range selected {
		for i := 0; i < o.repeat; i++ {
			cfg.seed = o.seed + uint64(i)
			if last, err = runOne(os.Stdout, sp, wl, cfg, ladderScale{1}); err != nil {
				return err
			}
			ok = ok && last.Correct
			record.Runs[wl.name] = append(record.Runs[wl.name], last)
		}
	}
	if cfg.spans != nil {
		if err := cfg.spans.write(o.spans); err != nil {
			return err
		}
	}
	if o.out != "" {
		if err := record.write(o.out); err != nil {
			return err
		}
	}
	// The last line of standard output is the last run's result; the exit
	// code speaks for every run.
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !ok {
		return errors.New("a correctness gate failed")
	}
	return nil
}
