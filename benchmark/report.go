package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is BENCHMARK.json: the contract this program prints to. The names,
// units and bounds live there and nowhere else.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report is what one pass over one workload found.
type report struct {
	attempted, failed int64
	// violations are the correctness gates that did not hold; any entry
	// makes the run incorrect.
	violations []string
	values     map[string]float64
	// notes carry what a bare number cannot: sample counts, the percentile
	// a tail settled on.
	notes map[string]string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// merge folds a sub-pass (the layer ladder, a traced pass) into r.
func (r *report) merge(o *report) {
	r.violations = append(r.violations, o.violations...)
	for k, v := range o.values {
		r.values[k] = v
	}
	for k, v := range o.notes {
		r.notes[k] = v
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, one JSON object.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result picks the listed metrics out of the report. A per-layer metric the
// workload has no reading for is 0, which every table reads as "does not
// apply"; an end-to-end metric must be measured on every workload, so a
// missing one is a violation.
func (r *report) result(list []metricSpec, endToEnd bool) resultLine {
	out := resultLine{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(list)),
	}
	for _, m := range list {
		v, ok := r.values[m.Name]
		if endToEnd && (!ok || v == 0) {
			r.violate("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.violate("metric %s is not finite", m.Name)
			v = 0
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	out.Correct = len(r.violations) == 0 && r.attempted > 0
	return out
}

// print writes the metrics by name with their units, then the gates that
// failed, for a reader; the machine-readable line follows separately.
func (r *report) print(w io.Writer, workload string, list []metricSpec, res resultLine) {
	fmt.Fprintf(w, "== %s: attempted %d, failed %d, correct %v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, m := range list {
		mv := res.Metrics[m.Name]
		line := fmt.Sprintf("  %-34s %16.6g %-6s", m.Name, mv.Value, mv.Unit)
		if _, measured := r.values[m.Name]; !measured {
			line = fmt.Sprintf("  %-34s %16s %-6s", m.Name, "-", mv.Unit)
		}
		if n := r.notes[m.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(w, line)
	}
	v := append([]string(nil), r.violations...)
	sort.Strings(v)
	for _, s := range v {
		fmt.Fprintf(w, "  VIOLATION: %s\n", s)
	}
}
