// Command tokensim runs the simulation experiments that reproduce the
// paper's evaluation (Figures 9 and 10) and the §4.4 ablations, printing
// the same series the paper plots.
//
// Usage:
//
//	tokensim -exp fig9                # one experiment (see -list)
//	tokensim -exp all                 # everything
//	tokensim -exp fig10 -csv          # CSV instead of a table
//	tokensim -exp fig9 -paper         # paper-scale runs (slow)
//	tokensim -exp fig9 -requests 5000 # custom scale
//	tokensim -exp fig9 -parallel 4    # worker-pool size (0 = GOMAXPROCS)
//	tokensim -exp fig9big -nodes 20000 # fig9 shape swept to big rings (default 1e5)
//	tokensim -exp fig9 -cpuprofile cpu.pprof -memprofile mem.pprof
//	tokensim -trace out.json           # traced fig9-style run -> Perfetto JSON
//	tokensim -torture                 # fault-injection sweep (see -torture-*)
//	tokensim -torture -artifact-dir artifacts
//	                                  # persist shrunk failure artifacts
//	tokensim -replay artifacts/torture-ring-lossy-seed3.json
//	                                  # re-run a recorded counterexample
//
// Runs are deterministic per seed at every parallelism level: each
// simulation owns a private engine and RNG, so -parallel changes only wall
// time, never the tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"adaptivetoken/internal/bench"
	"adaptivetoken/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tokensim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tokensim", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "fig9", "experiment id, or \"all\"")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		csv        = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		paper      = fs.Bool("paper", false, "paper-scale runs (≥1000 rounds per point; slow)")
		seed       = fs.Uint64("seed", 1, "random seed (0 is a valid seed)")
		requests   = fs.Int("requests", 0, "requests per run (0 = preset default)")
		parallel   = fs.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		nodes      = fs.Int("nodes", 0, "override the largest ring of the fig9big sweep (0 = 100000)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
		trace      = fs.String("trace", "", "run one traced fig9-style run and write Chrome trace_event JSON here")

		tf tortureFlags
	)
	fs.BoolVar(&tf.enabled, "torture", false, "run the fault-injection torture sweep instead of an experiment")
	fs.IntVar(&tf.seeds, "torture-seeds", 0, "torture seeds per variant×mix (0 = default 9)")
	fs.IntVar(&tf.requests, "torture-requests", 0, "torture requests per scenario (0 = default)")
	fs.IntVar(&tf.n, "torture-n", 0, "torture cluster size (0 = default)")
	fs.StringVar(&tf.mixes, "torture-mix", "", "comma-separated fault mixes (default: all safe mixes)")
	fs.StringVar(&tf.variants, "torture-variants", "", "comma-separated variants (default: ring,linear,binsearch)")
	fs.StringVar(&tf.artifactDir, "artifact-dir", "", "write shrunk replayable failure artifacts here")
	fs.StringVar(&tf.replay, "replay", "", "replay a failure artifact (JSON path) and verify it reproduces")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if tf.replay != "" {
		return runReplay(tf.replay, out)
	}
	if tf.enabled {
		return runTorture(tf, out)
	}

	if *list {
		for _, id := range bench.IDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}

	opts := bench.DefaultOptions()
	if *paper {
		opts = bench.PaperOptions()
	}
	opts.Seed = *seed
	if *requests > 0 {
		opts.Requests = *requests
		opts.MaxTime = sim.Time(*requests) * 10_000
	}
	opts.Parallelism = *parallel
	opts.Nodes = *nodes

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tokensim: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tokensim: memprofile:", err)
		}
	}()

	if *trace != "" {
		return runTrace(*trace, opts, out)
	}

	return render(*exp, opts, *csv, out)
}

// runTrace executes one traced run (internal/bench.TraceRun), writes the
// Chrome/Perfetto timeline to path and prints the run's digest.
func runTrace(path string, opts bench.Options, out io.Writer) error {
	res, tr, err := bench.TraceRun(opts)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f, res.N); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st := tr.Stats()
	fmt.Fprintf(out, "trace: %s n=%d, %d requests, %d grants, responsiveness mean %.2f p99 %.2f\n",
		res.Variant, res.N, res.Issued, res.Grants,
		res.Responsiveness.Mean, res.Responsiveness.P99)
	fmt.Fprintf(out, "trace: %d records (%d dropped), %d series points -> %s (load in https://ui.perfetto.dev)\n",
		st.Total, st.Dropped, len(tr.Series()), path)
	return nil
}

// render runs the experiment (or all of them, sorted by id) and writes
// the tables to out as text or CSV.
func render(exp string, opts bench.Options, csv bool, out io.Writer) error {
	write := func(t bench.Table) {
		if csv {
			fmt.Fprint(out, t.CSV())
		} else {
			fmt.Fprintln(out, t.Format())
		}
	}

	if exp == "all" {
		tables, err := bench.All(opts)
		if err != nil {
			return err
		}
		ids := make([]string, 0, len(tables))
		for id := range tables {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			write(tables[id])
		}
		return nil
	}
	tbl, err := bench.Run(exp, opts)
	if err != nil {
		return err
	}
	write(tbl)
	return nil
}
