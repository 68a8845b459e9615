// Command ringload runs a live load experiment against a real
// multi-process ringnode cluster: it launches -n node processes (one or
// more rings), waits for readiness, drives synchronized open-loop client
// load through every node, scrapes all /metrics endpoints, and reports the
// cluster-wide latency distribution in the same p50/p95/p99 table shape
// tokensim's responsiveness experiments emit — plus a machine-readable
// JSON record (-out).
//
//	ringload -n 50 -duration 30s -rate 10 -out live.json
//	ringload -n 12 -shards 2 -pattern bursty -crash 7 -crash-after 5s -recovery 4000
//
// The ringnode binary is built automatically (go build) unless -node-bin
// points at one. Exit status is nonzero when any node leaks timers, any
// cross-process mutual-exclusion violation is observed, or no sessions
// complete.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"adaptivetoken/internal/bench"
	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/orchestra"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ringload:", err)
		os.Exit(1)
	}
}

// record is the -out JSON schema: configuration, aggregate result,
// and the percentile summaries of the merged cluster histograms.
type record struct {
	Kind      string    `json:"kind"` // "live-load"
	Timestamp time.Time `json:"timestamp"`
	GoVersion string    `json:"go_version"`

	Nodes    int     `json:"nodes"`
	Shards   int     `json:"shards"`
	Rate     float64 `json:"rate_per_node"`
	Pattern  string  `json:"pattern"`
	Duration string  `json:"duration"`
	Hold     string  `json:"hold"`
	Seed     uint64  `json:"seed"`
	Crash    int     `json:"crash_node"`

	Result *orchestra.Result `json:"result"`

	LatencyMS  quantiles `json:"latency_ms"`
	AcquireMS  quantiles `json:"acquire_ms"`
	RespUnits  quantiles `json:"responsiveness_time_units"`
	WallSecond float64   `json:"wall_seconds"`
}

type quantiles struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

func summarize(h *metrics.Histogram) quantiles {
	return quantiles{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.5),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Max:   h.Max(),
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("ringload", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 50, "total node processes")
		shards   = fs.Int("shards", 1, "independent rings to split the nodes across")
		rate     = fs.Float64("rate", 10, "client arrivals per second per node")
		pattern  = fs.String("pattern", "poisson", "arrival process: poisson or bursty")
		duration = fs.Duration("duration", 15*time.Second, "load window")
		hold     = fs.Duration("hold", 2*time.Millisecond, "critical-section hold per session")
		seed     = fs.Uint64("seed", 1, "arrival schedule seed")
		crash    = fs.Int("crash", -1, "node to SIGKILL mid-run (-1 = none)")
		crashAt  = fs.Duration("crash-after", 5*time.Second, "when to crash, into the load window")
		recovery = fs.Int("recovery", 0, "token-loss recovery timeout in protocol time units (0 = node default)")
		stage    = fs.Int("stage", 8, "staged-shutdown wave width")
		policy   = fs.String("transport-policy", "", "transport backpressure policy: drop or block")
		queue    = fs.Int("transport-queue", 0, "bounded per-peer outbound queue length")
		nodeBin  = fs.String("node-bin", "", "ringnode binary (empty = go build it)")
		outJSON  = fs.String("out", "", "write the JSON record here")
		manifest = fs.String("manifest", "", "write a live-cluster endpoint manifest (JSON) here once all nodes are healthy")
		quiet    = fs.Bool("q", false, "suppress progress logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	bin := *nodeBin
	if bin == "" {
		dir, err := os.MkdirTemp("", "ringload-bin-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		bin = filepath.Join(dir, "ringnode")
		build := exec.Command("go", "build", "-o", bin, "adaptivetoken/cmd/ringnode")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building ringnode: %w", err)
		}
	}

	cfg := orchestra.Config{
		Bin:             bin,
		Nodes:           *n,
		Shards:          *shards,
		Rate:            *rate,
		Pattern:         *pattern,
		Duration:        *duration,
		Hold:            *hold,
		Seed:            *seed,
		Crash:           *crash >= 0,
		CrashNode:       *crash,
		CrashAfter:      *crashAt,
		Recovery:        *recovery,
		StageSize:       *stage,
		TransportPolicy: *policy,
		TransportQueue:  *queue,
		Manifest:        *manifest,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	// A crash without recovery enabled would stall the ring forever.
	if *crash >= 0 && *recovery == 0 {
		cfg.Recovery = 4000
	}

	res, runErr := orchestra.Run(context.Background(), cfg)
	if res != nil {
		printResult(out, cfg, res)
		if *outJSON != "" {
			rec := record{
				Kind:       "live-load",
				Timestamp:  time.Now().UTC(),
				GoVersion:  runtime.Version(),
				Nodes:      *n,
				Shards:     *shards,
				Rate:       *rate,
				Pattern:    *pattern,
				Duration:   duration.String(),
				Hold:       hold.String(),
				Seed:       *seed,
				Crash:      *crash,
				Result:     res,
				LatencyMS:  summarize(&res.Latency),
				AcquireMS:  summarize(&res.Acquire),
				RespUnits:  summarize(&res.Resp),
				WallSecond: res.Wall.Seconds(),
			}
			buf, err := json.MarshalIndent(rec, "", " ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*outJSON, append(buf, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *outJSON)
		}
	}
	return runErr
}

// printResult renders the run as the same table shape the simulator's
// responsiveness-tails experiment emits: one x position (the node count),
// percentile series per distribution.
func printResult(out *os.File, cfg orchestra.Config, res *orchestra.Result) {
	t := bench.Table{
		Name:   "live-load",
		XLabel: "nodes",
		Series: []string{
			"latency-p50", "latency-p95", "latency-p99",
			"acquire-p50", "acquire-p95", "acquire-p99",
			"resp-p50", "resp-p95", "resp-p99",
		},
		Points: []bench.Point{{
			X: float64(cfg.Nodes),
			Y: map[string]float64{
				"latency-p50": float64(res.Latency.Quantile(0.5)),
				"latency-p95": float64(res.Latency.Quantile(0.95)),
				"latency-p99": float64(res.Latency.Quantile(0.99)),
				"acquire-p50": float64(res.Acquire.Quantile(0.5)),
				"acquire-p95": float64(res.Acquire.Quantile(0.95)),
				"acquire-p99": float64(res.Acquire.Quantile(0.99)),
				"resp-p50":    float64(res.Resp.Quantile(0.5)),
				"resp-p95":    float64(res.Resp.Quantile(0.95)),
				"resp-p99":    float64(res.Resp.Quantile(0.99)),
			},
		}},
	}
	fmt.Fprintln(out, t.Format())
	fmt.Fprintf(out,
		"sessions: issued=%d completed=%d errors=%d violations=%d grants=%d wall=%v\n",
		res.Issued, res.Completed, res.Errors, res.Violations, res.Grants,
		res.Wall.Round(time.Millisecond))
	fmt.Fprintf(out,
		"transport: frames=%d flushes=%d batched=%d dropped_bp=%d dropped_werr=%d reconnects=%d\n",
		res.Transport.Frames, res.Transport.Flushes, res.Transport.BatchedWrites,
		res.Transport.DroppedBackpressure, res.Transport.DroppedWriteError,
		res.Transport.Reconnects)
}
