package orchestra

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildRingnode compiles the real node binary once per test run.
func buildRingnode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ringnode")
	cmd := exec.Command("go", "build", "-o", bin, "adaptivetoken/cmd/ringnode")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building ringnode: %v\n%s", err, out)
	}
	return bin
}

// TestOrchestratedCluster is the live end-to-end: a real multi-process
// 2-ring cluster, synchronized open-loop load, one LOAD_DONE report per
// node merged, staged shutdown — every node must exit clean (no leaked
// timers, no guard violations) and the merged histograms and counters must
// account for every completed session.
func TestOrchestratedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster run")
	}
	bin := buildRingnode(t)
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	res, err := Run(context.Background(), Config{
		Bin:      bin,
		Nodes:    6,
		Shards:   2,
		Rate:     20,
		Duration: 3 * time.Second,
		Hold:     time.Millisecond,
		Seed:     7,
		Manifest: manifest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Issued == 0 {
		t.Fatalf("no sessions ran: %+v", res)
	}
	if res.Violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", res.Violations)
	}
	if res.Errors != 0 {
		for _, n := range res.Nodes {
			t.Logf("node %d shard %d: issued=%d completed=%d errors=%d shed=%d late=%d inflight=%d exit=%q",
				n.ID, n.Shard, n.Issued, n.Completed, n.Errors, n.Shed, n.Late, n.MaxInFlight, n.ExitError)
		}
		t.Fatalf("%d session errors on a healthy cluster", res.Errors)
	}
	if res.Grants == 0 {
		t.Fatal("reports carry zero grants")
	}
	if got := res.Latency.Count(); got != res.Completed {
		t.Fatalf("merged latency histogram has %d samples, want %d completed", got, res.Completed)
	}
	if got := res.Acquire.Count(); got != res.Completed {
		t.Fatalf("merged acquire histogram has %d samples, want %d completed", got, res.Completed)
	}
	if res.Resp.Count() == 0 {
		t.Fatal("merged responsiveness histogram is empty")
	}
	if res.Msgs["token"] == 0 {
		t.Fatalf("reports carry no token messages: %v", res.Msgs)
	}
	if res.Transport.Frames == 0 {
		t.Fatal("reports carry zero transport frames")
	}
	for _, n := range res.Nodes {
		if n.Crashed || n.ExitError != "" {
			t.Fatalf("node %d: crashed=%v err=%q", n.ID, n.Crashed, n.ExitError)
		}
	}

	// Manifest: written at readiness, one entry per node, 2 shards.
	buf, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	var m struct {
		Shards int `json:"shards"`
		Nodes  []struct {
			Metrics string `json:"metrics"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if m.Shards != 2 || len(m.Nodes) != 6 {
		t.Fatalf("manifest shards=%d nodes=%d", m.Shards, len(m.Nodes))
	}
}

// TestWatchStdoutReports: a record that does not decode is that node's
// error, named as a decode failure, not a missing record; other lines are
// forwarded to the log and the first good record wins.
func TestWatchStdoutReports(t *testing.T) {
	for _, tc := range []struct {
		name, out, wantErr string
	}{
		{"malformed", "started\nLOAD_DONE {bad\n", "decode LOAD_DONE"},
		{"bad histogram", `LOAD_DONE {"node":1,"latency":{"count":1,"sum":0,"max":0,"buckets":[0]}}` + "\n", "decode LOAD_DONE"},
		{"missing", "started\n", "exited before LOAD_DONE"},
		{"good", `LOAD_DONE {"node":3,"completed":2}` + "\nLOAD_DONE {bad\n", ""},
	} {
		done := make(chan report, 1)
		var log strings.Builder
		watchStdout(strings.NewReader(tc.out), done, &log, 3)
		r := <-done
		if tc.wantErr == "" {
			if r.err != nil || r.Node != 3 || r.Completed != 2 {
				t.Errorf("%s: got %+v, err %v", tc.name, r.LoadDone, r.err)
			}
			continue
		}
		if r.err == nil || !strings.Contains(r.err.Error(), tc.wantErr) {
			t.Errorf("%s: err %v, want it to name %q", tc.name, r.err, tc.wantErr)
		}
		if strings.Contains(tc.out, "started") && !strings.Contains(log.String(), "[node 3] started") {
			t.Errorf("%s: log %q lacks the forwarded line", tc.name, log.String())
		}
	}
}

// TestLayout pins the contiguous shard blocks and ring-local ids.
func TestLayout(t *testing.T) {
	ports := make([]int, 2*7)
	for i := range ports {
		ports[i] = 9000 + i
	}
	shardOf, ringID, peers := layout(7, 2, ports)
	wantShard := []int{0, 0, 0, 0, 1, 1, 1} // 7 = 4 + 3
	wantRing := []int{0, 1, 2, 3, 0, 1, 2}
	for i := range wantShard {
		if shardOf[i] != wantShard[i] || ringID[i] != wantRing[i] {
			t.Fatalf("node %d: shard=%d ring=%d, want %d/%d",
				i, shardOf[i], ringID[i], wantShard[i], wantRing[i])
		}
	}
	if len(peers[0]) != 4 || len(peers[1]) != 3 {
		t.Fatalf("peer lists %d/%d, want 4/3", len(peers[0]), len(peers[1]))
	}
}

// TestReservePorts: all distinct, all bindable right after release.
func TestReservePorts(t *testing.T) {
	ports, err := reservePorts(20)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, p := range ports {
		if seen[p] {
			t.Fatalf("duplicate port %d", p)
		}
		seen[p] = true
	}
}

// TestConfigValidation: impossible configurations fail before any process
// spawns.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Nodes: 4}); err == nil {
		t.Fatal("accepted empty binary path")
	}
	if _, err := Run(context.Background(), Config{Bin: "x", Nodes: 3, Shards: 2}); err == nil {
		t.Fatal("accepted 3 nodes across 2 rings")
	}
	if _, err := Run(context.Background(), Config{Bin: "x", Nodes: 4, Crash: true, CrashNode: 9}); err == nil {
		t.Fatal("accepted out-of-range crash node")
	}
}
