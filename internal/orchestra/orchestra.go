// Package orchestra launches and drives a real multi-process ringnode
// cluster: it allocates ports, wires one or more rings, waits for every
// node's /healthz, starts synchronized open-loop load over stdin
// coordination, optionally crashes a node mid-run, merges the fleet's
// reports into cluster-wide distributions, and shuts the processes down in
// staged waves.
//
// The contract with cmd/ringnode's -load mode:
//
//	stdin  "start\n"       begin generating load (after -wait-start)
//	stdout "LOAD_DONE {…}" the node's one report, a JSON LoadDone
//	stdin  "exit\n"        shut down (the node holds /metrics open until then)
//
// A LoadDone carries every histogram bucket for bucket, so merging the
// fleet's reports makes the cluster aggregate exact, the same arithmetic
// the simulator's experiment tables use. A node's process exiting nonzero
// (leaked timers, guard violations) or printing a malformed report fails
// the whole run — the orchestrator is a test harness first and a benchmark
// runner second.
package orchestra

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaptivetoken/internal/loadgen"
	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/transport"
)

// Config describes one orchestrated run.
type Config struct {
	// Bin is the ringnode binary path. Required.
	Bin string
	// Nodes is the total process count across all shards (≥2 per shard).
	Nodes int
	// Shards splits the nodes into this many independent rings (default 1).
	// Shard s gets a contiguous block of nodes and its own guard file.
	Shards int
	// Rate is each node's mean client arrivals per second.
	Rate float64
	// Pattern selects the arrival process: "poisson" (default) or "bursty".
	Pattern string
	// Duration is the load window.
	Duration time.Duration
	// Hold is the per-session critical-section time.
	Hold time.Duration
	// Seed drives every node's arrival schedule (node id mixed in).
	Seed uint64
	// GuardDir hosts the per-shard flock guard files ("" = temp dir).
	GuardDir string
	// TransportPolicy / TransportQueue forward to -transport-policy/-queue
	// when non-zero.
	TransportPolicy string
	TransportQueue  int
	// Crash enables the crash-a-node hook: SIGKILL CrashNode CrashAfter
	// into the load window. Recovery should be set alongside, or the
	// victim's ring stalls until the run deadline.
	Crash      bool
	CrashNode  int
	CrashAfter time.Duration
	// Recovery forwards -recovery (protocol time units) when > 0.
	Recovery int
	// StageSize is the staged-shutdown wave width (default 8).
	StageSize int
	// ReadyTimeout bounds the /healthz wait (default 30s).
	ReadyTimeout time.Duration
	// Manifest, when non-empty, receives a JSON description of the running
	// cluster (ids, shards, ring and metrics addresses) as soon as every
	// node is ready — the hook external probes (the smoke script) use to
	// find the endpoints while the cluster is live.
	Manifest string
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (c Config) withDefaults() (Config, error) {
	if c.Bin == "" {
		return c, fmt.Errorf("orchestra: no ringnode binary")
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Nodes < 2*c.Shards {
		return c, fmt.Errorf("orchestra: %d nodes cannot form %d rings of ≥2", c.Nodes, c.Shards)
	}
	if c.Rate <= 0 {
		c.Rate = 20
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Hold < 0 {
		return c, fmt.Errorf("orchestra: negative hold")
	}
	if c.StageSize <= 0 {
		c.StageSize = 8
	}
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = 30 * time.Second
	}
	if c.Crash && (c.CrashNode < 0 || c.CrashNode >= c.Nodes) {
		return c, fmt.Errorf("orchestra: crash node %d out of range", c.CrashNode)
	}
	return c, nil
}

// NodeResult is one process's outcome.
type NodeResult struct {
	ID      int    `json:"id"`    // global index
	Shard   int    `json:"shard"` // ring this node belongs to
	RingID  int    `json:"ring_id"`
	Addr    string `json:"addr"`
	Metrics string `json:"metrics"`

	Crashed     bool   `json:"crashed,omitempty"`
	ExitError   string `json:"exit_error,omitempty"`
	Issued      int64  `json:"issued"`
	Completed   int64  `json:"completed"`
	Errors      int64  `json:"errors"`
	Shed        int64  `json:"shed"`
	Late        int64  `json:"late"`
	MaxInFlight int64  `json:"max_in_flight"`
	Violations  int64  `json:"violations"`
}

// Result aggregates the whole run.
type Result struct {
	Nodes  []NodeResult `json:"nodes"`
	Shards int          `json:"shards"`

	// Cluster-wide merged distributions (milliseconds / time units).
	Latency metrics.Histogram `json:"-"`
	Acquire metrics.Histogram `json:"-"`
	Resp    metrics.Histogram `json:"-"`

	Issued     int64 `json:"issued"`
	Completed  int64 `json:"completed"`
	Errors     int64 `json:"errors"`
	Violations int64 `json:"violations"`
	Grants     int64 `json:"grants"`

	Msgs      map[string]int64 `json:"messages"`
	Transport TransportTotals  `json:"transport"`

	Wall time.Duration `json:"wall_ns"`
}

// TransportTotals sums the hardened-transport counters across the fleet.
type TransportTotals struct {
	Frames              int64 `json:"frames"`
	Flushes             int64 `json:"flushes"`
	BatchedWrites       int64 `json:"batched_writes"`
	DroppedBackpressure int64 `json:"dropped_backpressure"`
	DroppedWriteError   int64 `json:"dropped_write_error"`
	Reconnects          int64 `json:"reconnects"`
	DialRetries         int64 `json:"dial_retries"`
}

// LoadDone is the one report a ringnode -load process sends: the line
// "LOAD_DONE {json}" on stdout once its load window has drained. It
// carries everything the orchestrator aggregates, histograms exact.
type LoadDone struct {
	Node int `json:"node"`
	// Violations counts flock guard conflicts inside critical sections.
	Violations int64 `json:"violations"`
	loadgen.Report
	// Grants and Resp are the node tracer's grant count and Definition 3
	// responsiveness histogram, in protocol time units.
	Grants    int64               `json:"grants"`
	Resp      metrics.Histogram   `json:"responsiveness"`
	Messages  []metrics.KindCount `json:"messages"`
	Transport transport.Stats     `json:"transport"`
}

// proc is one managed ringnode process.
type proc struct {
	NodeResult
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	done    chan report // exactly one, sent by watchStdout
	waitErr chan error
}

// report is watchStdout's verdict on one node: its LoadDone, or why there
// is none.
type report struct {
	LoadDone
	err error
}

// Run executes one orchestrated cluster run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	guardDir := cfg.GuardDir
	if guardDir == "" {
		guardDir, err = os.MkdirTemp("", "ringload-guard-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(guardDir)
	}

	// Reserve two ports per node (ring + metrics) by binding :0 listeners
	// and closing them just before spawn: the kernel hands out distinct
	// ports, and the window for another process to steal one is tiny and
	// caught immediately by the node failing to bind.
	ports, err := reservePorts(2 * cfg.Nodes)
	if err != nil {
		return nil, err
	}

	shardOf, ringID, peerLists := layout(cfg.Nodes, cfg.Shards, ports)

	procs := make([]*proc, cfg.Nodes)
	defer func() {
		for _, p := range procs {
			if p != nil && p.cmd.Process != nil {
				p.cmd.Process.Kill()
			}
		}
	}()
	for i := 0; i < cfg.Nodes; i++ {
		s := shardOf[i]
		p := &proc{
			NodeResult: NodeResult{
				ID: i, Shard: s, RingID: ringID[i],
				Addr:    fmt.Sprintf("127.0.0.1:%d", ports[2*i]),
				Metrics: fmt.Sprintf("127.0.0.1:%d", ports[2*i+1]),
			},
			done:    make(chan report, 1),
			waitErr: make(chan error, 1),
		}
		args := []string{
			"-id", strconv.Itoa(ringID[i]),
			"-peers", strings.Join(peerLists[s], ","),
			"-metrics-addr", p.Metrics,
			"-load", "-wait-start",
			"-load-rate", strconv.FormatFloat(cfg.Rate, 'g', -1, 64),
			"-load-duration", cfg.Duration.String(),
			"-load-hold", cfg.Hold.String(),
			"-load-seed", strconv.FormatUint(cfg.Seed+uint64(s)*1000, 10),
			"-load-guard", filepath.Join(guardDir, fmt.Sprintf("guard-%d", s)),
		}
		if cfg.Pattern != "" {
			args = append(args, "-load-pattern", cfg.Pattern)
		}
		if cfg.Shards > 1 {
			args = append(args, "-shard", strconv.Itoa(s))
		}
		if cfg.TransportPolicy != "" {
			args = append(args, "-transport-policy", cfg.TransportPolicy)
		}
		if cfg.TransportQueue > 0 {
			args = append(args, "-transport-queue", strconv.Itoa(cfg.TransportQueue))
		}
		if cfg.Recovery > 0 {
			args = append(args, "-recovery", strconv.Itoa(cfg.Recovery))
		}
		cmd := exec.CommandContext(ctx, cfg.Bin, args...)
		cmd.Stderr = cfg.Log
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("orchestra: node %d: %w", i, err)
		}
		p.cmd, p.stdin = cmd, stdin
		go watchStdout(stdout, p.done, cfg.Log, i)
		go func(p *proc) { p.waitErr <- p.cmd.Wait() }(p)
		procs[i] = p
	}
	logf("orchestra: launched %d nodes across %d ring(s)", cfg.Nodes, cfg.Shards)

	// Readiness: every /healthz must answer before load starts.
	if err := awaitHealthy(ctx, procs, cfg.ReadyTimeout); err != nil {
		return nil, err
	}
	logf("orchestra: all nodes healthy in %v", time.Since(start).Round(time.Millisecond))

	if cfg.Manifest != "" {
		if err := writeManifest(cfg.Manifest, procs, cfg.Shards); err != nil {
			return nil, err
		}
	}

	// Synchronized start.
	for _, p := range procs {
		if _, err := io.WriteString(p.stdin, "start\n"); err != nil {
			return nil, fmt.Errorf("orchestra: start node %d: %w", p.ID, err)
		}
	}

	// Crash hook: SIGKILL one node mid-window.
	if cfg.Crash {
		go func() {
			select {
			case <-time.After(cfg.CrashAfter):
				p := procs[cfg.CrashNode]
				p.cmd.Process.Kill()
				logf("orchestra: crashed node %d (%s) after %v", p.ID, p.Addr, cfg.CrashAfter)
			case <-ctx.Done():
			}
		}()
	}

	// Collect LOAD_DONE from every surviving node. Generous deadline: the
	// window plus time for stragglers to drain through recovery timeouts.
	collectDeadline := cfg.Duration + 90*time.Second
	res := &Result{Shards: cfg.Shards, Msgs: make(map[string]int64)}
	for _, p := range procs {
		if cfg.Crash && cfg.CrashNode == p.ID {
			p.Crashed = true
			<-p.waitErr // reap
			continue
		}
		select {
		case r := <-p.done:
			if r.err != nil {
				p.ExitError = r.err.Error()
				break
			}
			p.Issued, p.Completed, p.Errors = r.Issued, r.Completed, r.Errors
			p.Shed, p.Late, p.MaxInFlight = r.Shed, r.Late, r.MaxInFlight
			p.Violations = r.Violations
			res.merge(&r.LoadDone)
		case <-time.After(collectDeadline):
			p.ExitError = "LOAD_DONE timeout"
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	logf("orchestra: load complete in %v", time.Since(start).Round(time.Millisecond))

	// Staged shutdown: "exit" in waves, each wave fully reaped before the
	// next — the pattern that historically exposes timer leaks, because
	// later waves keep timing against already-gone peers.
	for lo := 0; lo < len(procs); lo += cfg.StageSize {
		hi := lo + cfg.StageSize
		if hi > len(procs) {
			hi = len(procs)
		}
		var wg sync.WaitGroup
		for _, p := range procs[lo:hi] {
			if p.Crashed {
				continue
			}
			io.WriteString(p.stdin, "exit\n")
			p.stdin.Close()
			wg.Add(1)
			go func(p *proc) {
				defer wg.Done()
				select {
				case err := <-p.waitErr:
					if err != nil && p.ExitError == "" {
						p.ExitError = err.Error()
					}
				case <-time.After(30 * time.Second):
					p.ExitError = "shutdown wedged"
					p.cmd.Process.Kill()
				}
			}(p)
		}
		wg.Wait()
		logf("orchestra: shutdown wave [%d,%d) done", lo, hi)
	}

	// Fold per-node outcomes.
	for _, p := range procs {
		res.Nodes = append(res.Nodes, p.NodeResult)
		res.Issued += p.Issued
		res.Completed += p.Completed
		res.Errors += p.Errors
		res.Violations += p.Violations
	}
	res.Wall = time.Since(start)

	// Failures: any non-crashed node that errored out fails the run.
	for _, n := range res.Nodes {
		if !n.Crashed && n.ExitError != "" {
			return res, fmt.Errorf("orchestra: node %d: %s", n.ID, n.ExitError)
		}
	}
	if res.Violations > 0 {
		return res, fmt.Errorf("orchestra: %d cross-process mutual-exclusion violations", res.Violations)
	}
	if res.Completed == 0 {
		return res, fmt.Errorf("orchestra: zero sessions completed")
	}
	return res, nil
}

// layout assigns nodes to shards in contiguous blocks and builds each
// ring's peer list. Returns shard index, ring-local id, and per-shard peer
// address lists.
func layout(nodes, shards int, ports []int) (shardOf, ringID []int, peers [][]string) {
	shardOf = make([]int, nodes)
	ringID = make([]int, nodes)
	peers = make([][]string, shards)
	base, rem := nodes/shards, nodes%shards
	g := 0
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		for r := 0; r < size; r++ {
			shardOf[g] = s
			ringID[g] = r
			peers[s] = append(peers[s], fmt.Sprintf("127.0.0.1:%d", ports[2*g]))
			g++
		}
	}
	return shardOf, ringID, peers
}

// reservePorts binds n ephemeral listeners, records their ports, and
// closes them all.
func reservePorts(n int) ([]int, error) {
	ls := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// watchStdout scans a node's stdout for its LOAD_DONE record, forwarding
// everything else to the log, and sends done exactly one report: the first
// record, why it did not decode, or that the output ended without one. It
// reads on to EOF so the node never blocks on a full pipe.
func watchStdout(r io.Reader, done chan<- report, log io.Writer, id int) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sent := false
	for sc.Scan() {
		rec, ok := strings.CutPrefix(sc.Text(), "LOAD_DONE ")
		if !ok {
			if log != nil {
				fmt.Fprintf(log, "[node %d] %s\n", id, sc.Text())
			}
			continue
		}
		if sent {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(rec), &r.LoadDone); err != nil {
			r.err = fmt.Errorf("decode LOAD_DONE: %w", err)
		}
		done <- r
		sent = true
	}
	if !sent {
		err := sc.Err()
		if err == nil {
			err = errors.New("exited before LOAD_DONE")
		}
		done <- report{err: err}
	}
}

// awaitHealthy polls every node's /healthz until all answer ok.
func awaitHealthy(ctx context.Context, procs []*proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	for _, p := range procs {
		for {
			ok := func() bool {
				resp, err := client.Get("http://" + p.Metrics + "/healthz")
				if err != nil {
					return false
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body)
				return resp.StatusCode == http.StatusOK
			}()
			if ok {
				break
			}
			select {
			case err := <-p.waitErr:
				p.waitErr <- err
				return fmt.Errorf("orchestra: node %d died before becoming healthy", p.ID)
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("orchestra: node %d (%s) not healthy after %v", p.ID, p.Metrics, timeout)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
		}
	}
	return nil
}

// merge adds one node's report to the cluster aggregate.
func (res *Result) merge(d *LoadDone) {
	res.Latency.Merge(&d.Latency)
	res.Acquire.Merge(&d.Acquire)
	res.Resp.Merge(&d.Resp)
	res.Grants += d.Grants
	for _, kc := range d.Messages {
		res.Msgs[kc.Kind] += kc.Count
	}
	t, s := &res.Transport, &d.Transport
	t.Frames += s.Frames
	t.Flushes += s.Flushes
	t.BatchedWrites += s.BatchedWrites
	t.DroppedBackpressure += s.DroppedBackpressure
	t.DroppedWriteError += s.DroppedWriteError
	t.Reconnects += s.Reconnects
	t.DialRetries += s.DialRetries
}

// writeManifest publishes the live cluster's endpoints.
func writeManifest(path string, procs []*proc, shards int) error {
	type entry struct {
		ID      int    `json:"id"`
		Shard   int    `json:"shard"`
		RingID  int    `json:"ring_id"`
		Addr    string `json:"addr"`
		Metrics string `json:"metrics"`
	}
	m := struct {
		Shards int     `json:"shards"`
		Nodes  []entry `json:"nodes"`
	}{Shards: shards}
	for _, p := range procs {
		m.Nodes = append(m.Nodes, entry{p.ID, p.Shard, p.RingID, p.Addr, p.Metrics})
	}
	buf, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
