package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"adaptivetoken/internal/bench"
)

// recordFile is what -out writes and -compare reads: every run's result
// line, by workload.
type recordFile struct {
	GoMaxProcs int                     `json:"gomaxprocs"`
	Runs       map[string][]resultLine `json:"runs"`
}

func (r recordFile) write(path string) error {
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readRecord(path string) (recordFile, error) {
	var r recordFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// median is the middle quartile of quartiles, so that a record of ten runs
// reads here as it does to statistics.quantiles; a single run is its own
// median.
func median(values []float64) float64 {
	if _, q2, _, err := quartiles(values); err == nil {
		return q2
	}
	return samples(values).median()
}

// everyRunBetter reports whether each run of b reads better than each run
// of a.
func everyRunBetter(m metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.Better == "higher" && y <= x) || (m.Better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// verdict compares B's runs of one metric with A's under the metric's bound.
// unresolved: the spread between runs of either side exceeds the bound, so
// a change of that size could not be told from noise. worse: B's median is
// worse than A's by more than the bound. better: B's median is better by
// more than A's own spread, or every run of B beats every run of A. With
// one run a side the spread is unknown and taken as zero.
func verdict(m metricSpec, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return "unresolved", 0
	}
	change := (mb - ma) / ma // positive: B reads higher
	gain := -change
	if m.Better == "higher" {
		gain = change
	}
	switch {
	case everyRunBetter(m, a, b):
		return "better", change
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved", change
	case -gain > m.Bound:
		return "worse", change
	case gain > spread(a):
		return "better", change
	default:
		return "same", change
	}
}

// compareFiles prints one verdict per workload and end-to-end metric and
// fails if any is worse, or if B fails more operations than A.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, wl := range sp.Workloads {
		ra, rb := a.Runs[wl.Name], b.Runs[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		var failedA, failedB int64
		for _, r := range ra {
			failedA += r.Failed
		}
		for _, r := range rb {
			failedB += r.Failed
			if !r.Correct {
				worse++
				fmt.Fprintf(w, "%-14s a run of B failed a correctness gate\n", wl.Name)
			}
		}
		if failedB*int64(len(ra)) > failedA*int64(len(rb)) {
			worse++
			fmt.Fprintf(w, "%-14s B failed %d operations in %d runs, A %d in %d: worse\n", wl.Name, failedB, len(rb), failedA, len(ra))
		}
		for _, m := range sp.EndToEnd {
			var va, vb []float64
			for _, r := range ra {
				va = append(va, r.Metrics[m.Name].Value)
			}
			for _, r := range rb {
				vb = append(vb, r.Metrics[m.Name].Value)
			}
			v, change := verdict(m, va, vb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+7.2f%% %6.0f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*change, 100*m.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d comparisons are worse", worse)
	}
	return nil
}

// paperFig9 is the golden check too long for a timed window: Figure 9 at
// paper scale, seed 1, must render byte for byte as the checked-in table.
func paperFig9(w io.Writer) error {
	const golden = "results_paper_fig9.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		return err
	}
	opts := bench.PaperOptions()
	opts.Parallelism = 1
	opts.Stats = &bench.RunStats{}
	t0 := time.Now()
	table, err := bench.Figure9(opts)
	if err != nil {
		return err
	}
	d := time.Since(t0)
	st := opts.Stats.Snapshot()
	fmt.Fprintf(w, "fig9 at paper scale: %d runs, %d events in %.2fs (%.4g events/s), %.4g msgs/grant\n",
		st.Runs, st.SimEvents, d.Seconds(), float64(st.SimEvents)/d.Seconds(), float64(st.Messages)/float64(st.Grants))
	got := []byte(table.Format())
	if !bytes.Equal(bytes.TrimRight(got, "\n"), bytes.TrimRight(want, "\n")) {
		return fmt.Errorf("Figure 9 no longer renders as %s:\n%s", golden, got)
	}
	fmt.Fprintf(w, "renders byte for byte as %s\n", golden)
	return nil
}
