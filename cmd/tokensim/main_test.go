package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig9", "fig10", "trapgc"} {
		if !strings.Contains(sb.String(), id) {
			t.Errorf("missing %q in list:\n%s", id, sb.String())
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "saturation", "-requests", "64"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Saturation") || !strings.Contains(sb.String(), "binsearch") {
		t.Errorf("output:\n%s", sb.String())
	}
}

func TestRunCSV(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "saturation", "-requests", "64", "-csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "n,") {
		t.Errorf("csv output:\n%s", sb.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "nope"}, &sb); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

// TestRunBadFlag: an unknown flag fails loudly, and so does every flag of
// the retired perf-record modes, so a stale script cannot silently run the
// default experiment instead.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-baseline"},
		{"-benchjson", "rec.json"},
		{"-big"},
		{"-shards", "4"},
		{"-scheduler", "heap"},
	} {
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%v) = %v, want \"flag provided but not defined\"", args, err)
		}
	}
}

// TestRunParallelMatchesSequential: -parallel only changes wall time, never
// the rendered tables.
func TestRunParallelMatchesSequential(t *testing.T) {
	var seq, par strings.Builder
	if err := run([]string{"-exp", "fig10", "-requests", "200", "-parallel", "1"}, &seq); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "fig10", "-requests", "200", "-parallel", "8"}, &par); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("outputs diverge:\n--- parallel 1\n%s\n--- parallel 8\n%s", seq.String(), par.String())
	}
}

// TestRunSeedZero: an explicit -seed 0 must be honored, not remapped to the
// default seed (regression for Options.withDefaults).
func TestRunSeedZero(t *testing.T) {
	var s0, s1 strings.Builder
	if err := run([]string{"-exp", "tails", "-requests", "200", "-seed", "0"}, &s0); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "tails", "-requests", "200", "-seed", "1"}, &s1); err != nil {
		t.Fatal(err)
	}
	if s0.String() == s1.String() {
		t.Error("-seed 0 produced the same tables as -seed 1; zero seed remapped")
	}
}

// TestRunProfiles smoke-tests -cpuprofile/-memprofile file emission.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var sb strings.Builder
	if err := run([]string{"-exp", "saturation", "-requests", "64",
		"-cpuprofile", cpu, "-memprofile", mem}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var sb strings.Builder
	if err := run([]string{"-exp", "all", "-requests", "150"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Figure 9", "Figure 10", "trap GC", "Theorem 3"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("missing %q in -exp all output", frag)
		}
	}
}

// TestAllTablesGolden is the fence around the experiment harness: every
// table of -exp all, rendered as aligned text at a fixed small scale, hashes
// to the pinned digest, and the worker pool renders the same bytes as the
// sequential oracle. CSV stays out of the digest on purpose: %g prints every
// digit, so it would pin last-place float differences (FMA) that vary by
// architecture, while %.2f does not.
func TestAllTablesGolden(t *testing.T) {
	const golden = "cce8aa723fb260bff5efd829d2bd4cf515cee84f20b59558e16417e332376e65"
	args := []string{"-exp", "all", "-requests", "300", "-seed", "1", "-parallel"}
	var seq, par strings.Builder
	if err := run(append(args, "1"), &seq); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(seq.String()))); got != golden {
		t.Errorf("-exp all renders sha256 %s, want %s:\n%s", got, golden, seq.String())
	}
	if err := run(append(args, "0"), &par); err != nil {
		t.Fatal(err)
	}
	if par.String() != seq.String() {
		t.Errorf("-parallel 0 diverges from -parallel 1:\n--- parallel 1\n%s\n--- parallel 0\n%s", seq.String(), par.String())
	}
}

// TestRunTrace: -trace writes loadable Chrome trace_event JSON.
func TestRunTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	if err := run([]string{"-trace", tracePath, "-requests", "200", "-seed", "5"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "perfetto") {
		t.Errorf("trace summary missing viewer hint:\n%s", sb.String())
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"responsiveness", "wait", "hop", "grant", "ready", "in-flight", "holder"} {
		if !names[want] {
			t.Errorf("trace missing %q events", want)
		}
	}
}
