package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRunTortureSmoke runs a narrow torture sweep through the CLI and
// checks the progress/summary surface.
func TestRunTortureSmoke(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-torture", "-torture-seeds", "1",
		"-torture-mix", "clean,lossy", "-torture-variants", "ring,binsearch",
		"-torture-requests", "8"}, &sb)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "torture: 4 scenarios, 0 failures") {
		t.Errorf("summary missing:\n%s", out)
	}
	if !strings.Contains(out, "ok   ring") || !strings.Contains(out, "ok   binsearch") {
		t.Errorf("per-scenario lines missing:\n%s", out)
	}
}

// TestRunTortureLiveSmoke sweeps the live scenario family — real
// concurrent runtimes over the channel transport — through the CLI.
func TestRunTortureLiveSmoke(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-torture", "-torture-seeds", "1",
		"-torture-mix", "live-clean,live-lossy", "-torture-variants", "linear",
		"-torture-requests", "6"}, &sb)
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "torture: 2 scenarios, 0 failures") {
		t.Errorf("summary missing:\n%s", out)
	}
	if !strings.Contains(out, "ok   linear") {
		t.Errorf("per-scenario lines missing:\n%s", out)
	}
}

// TestRunTortureBadMix: an unknown mix fails with a diagnostic listing the
// valid ones.
func TestRunTortureBadMix(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-torture", "-torture-mix", "nope"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "unknown mix") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunTortureBadInputs: a negative seed count, a ring too small for the
// mix and a negative request count each fail before any scenario runs.
func TestRunTortureBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-torture", "-torture-seeds", "-1"},
		{"-torture", "-torture-n", "1", "-torture-mix", "crash"},
		{"-torture", "-torture-requests", "-5"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
		if strings.Contains(sb.String(), "seed=") {
			t.Errorf("run(%v) ran scenarios:\n%s", args, sb.String())
		}
	}
}

// TestRunReplayMissingArtifact: -replay of a nonexistent path fails cleanly.
func TestRunReplayMissingArtifact(t *testing.T) {
	var sb strings.Builder
	path := filepath.Join(t.TempDir(), "nope.json")
	if err := run([]string{"-replay", path}, &sb); err == nil {
		t.Fatal("missing artifact accepted")
	}
}
