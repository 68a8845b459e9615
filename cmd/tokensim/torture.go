package main

import (
	"fmt"
	"io"
	"strings"

	"adaptivetoken/internal/torture"
)

// tortureFlags holds the -torture flag family.
type tortureFlags struct {
	enabled     bool
	seeds       int
	requests    int
	n           int
	mixes       string
	variants    string
	artifactDir string
	replay      string
}

// runTorture sweeps seeds × fault mixes × variants, one progress line per
// scenario, and fails (non-zero exit) if any scenario violates safety,
// liveness or spec conformance. Failures are shrunk to minimal
// counterexamples and written under -artifact-dir for replay.
func runTorture(tf tortureFlags, out io.Writer) error {
	cfg := torture.SweepConfig{
		Seeds:       tf.seeds,
		Requests:    tf.requests,
		N:           tf.n,
		ArtifactDir: tf.artifactDir,
	}
	if tf.mixes != "" {
		cfg.Mixes = strings.Split(tf.mixes, ",")
	}
	if tf.variants != "" {
		cfg.Variants = strings.Split(tf.variants, ",")
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(out, format+"\n", a...)
	}
	res, err := torture.Sweep(cfg, logf)
	if err != nil {
		return err
	}

	// With the default mix/variant selection, also sweep the live scenario
	// family: the same protocols on real concurrent runtimes over the
	// channel transport, conformance-checked through the shared host layer.
	if tf.mixes == "" && tf.variants == "" {
		liveCfg := cfg
		liveCfg.Mixes = torture.SweepLiveMixes()
		liveCfg.Variants = torture.SweepLiveVariants()
		liveRes, err := torture.Sweep(liveCfg, logf)
		if err != nil {
			return err
		}
		res.Scenarios += liveRes.Scenarios
		res.Failures = append(res.Failures, liveRes.Failures...)
		res.Artifacts = append(res.Artifacts, liveRes.Artifacts...)
	}

	fmt.Fprintf(out, "torture: %d scenarios, %d failures\n", res.Scenarios, len(res.Failures))
	for _, p := range res.Artifacts {
		fmt.Fprintf(out, "torture: replay with -replay %s\n", p)
	}
	if len(res.Failures) > 0 {
		return fmt.Errorf("torture: %d of %d scenarios failed", len(res.Failures), res.Scenarios)
	}
	return nil
}

// runReplay re-runs a failure artifact. The replay draws no randomness, so
// a healthy artifact reproduces its recorded violation exactly; an artifact
// that no longer fails (e.g. after a fix) is reported as such and exits
// non-zero, making "does this artifact still bite" scriptable.
func runReplay(path string, out io.Writer) error {
	f, err := torture.LoadArtifact(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replaying %s/%s seed=%d with %d fault actions\n",
		f.Scenario.Variant, f.Scenario.Mix, f.Scenario.Seed, len(f.Schedule.Actions))
	fmt.Fprintf(out, "recorded violation: %s\n", f.Err)
	rep := f.Reproduce()
	if rep.Err == nil {
		return fmt.Errorf("artifact no longer reproduces (fixed?)")
	}
	fmt.Fprintf(out, "reproduced: %v\n", rep.Err)
	return nil
}
