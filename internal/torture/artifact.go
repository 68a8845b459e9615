package torture

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"adaptivetoken/internal/faults"
)

// Failure is a replayable counterexample: the scenario parameters plus the
// recorded fault schedule that made it fail. Serialized as JSON, it is the
// artifact a failing sweep leaves behind.
type Failure struct {
	Scenario Scenario        `json:"scenario"`
	Schedule faults.Schedule `json:"schedule"`
	Err      string          `json:"err"`
}

// Reproduce re-runs the failure's scenario under its recorded schedule.
// Replay mode draws no randomness, so the run is bit-identical to the
// original and the returned report's Err is the reproduced violation.
func (f Failure) Reproduce() Report {
	sched := f.Schedule
	return Run(f.Scenario, &sched)
}

// WriteArtifact persists a failure under dir (created if needed) and
// returns the artifact path.
func WriteArtifact(dir string, f Failure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("torture: artifact dir: %w", err)
	}
	name := fmt.Sprintf("torture-%s-%s-seed%d.json", f.Scenario.Variant, f.Scenario.Mix, f.Scenario.Seed)
	path := filepath.Join(dir, name)
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadArtifact reads a failure artifact written by WriteArtifact.
func LoadArtifact(path string) (Failure, error) {
	var f Failure
	blob, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(blob, &f); err != nil {
		return f, fmt.Errorf("torture: artifact %s: %w", path, err)
	}
	if _, ok := mixes[f.Scenario.Mix]; !ok {
		return f, fmt.Errorf("torture: artifact %s: unknown mix %q", path, f.Scenario.Mix)
	}
	return f, nil
}
