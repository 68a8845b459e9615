package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"adaptivetoken/internal/metrics"
	"adaptivetoken/internal/telemetry"
)

// traceOpts is a CI-sized fig9-style traced run: n=100 binsearch under the
// figure's mean-gap-10 Poisson load.
func traceOpts() Options {
	return Options{Seed: 7, Requests: 400, MaxTime: 2_000_000}
}

// TestTraceReproducesResponsiveness is the acceptance cross-check: the
// request→grant and Definition 3 spans extracted from the exported Chrome
// trace must reproduce the run's responsiveness and wait summaries exactly.
func TestTraceReproducesResponsiveness(t *testing.T) {
	res, tr, err := TraceRun(traceOpts())
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Dropped != 0 {
		t.Fatalf("ring dropped %d records; size the capacity up", st.Dropped)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, res.N); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var resps, waits []float64
	for _, ev := range parsed.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		switch ev.Name {
		case "responsiveness":
			resps = append(resps, ev.Dur)
		case "wait":
			waits = append(waits, ev.Dur)
		}
	}
	if got := metrics.Summarize(resps); got != res.Responsiveness {
		t.Errorf("trace responsiveness spans %+v\n != run summary %+v", got, res.Responsiveness)
	}
	if got := metrics.Summarize(waits); got != res.Waits {
		t.Errorf("trace wait spans %+v\n != run summary %+v", got, res.Waits)
	}
	if len(waits) != res.Grants {
		t.Errorf("%d wait spans, %d grants", len(waits), res.Grants)
	}
}

// TestTraceSeriesSampled checks the periodic sim-time series rides along.
func TestTraceSeriesSampled(t *testing.T) {
	res, tr, err := TraceRun(traceOpts())
	if err != nil {
		t.Fatal(err)
	}
	series := tr.Series()
	if len(series) < 10 {
		t.Fatalf("only %d series points sampled", len(series))
	}
	prev := int64(-1)
	for _, p := range series {
		if p.T <= prev {
			t.Fatalf("series out of order at t=%d", p.T)
		}
		prev = p.T
		// With critical sections of length 0 the token is in flight at
		// nearly every sampling instant, so Holder is mostly -1.
		if p.Ready < 0 || p.InFlight < 0 || p.Holder < -1 || p.Holder >= traceN {
			t.Fatalf("series point out of range %+v", p)
		}
	}
	if got := tr.Stats().Grants; got != int64(res.Grants) {
		t.Fatalf("tracer grants %d, run grants %d", got, res.Grants)
	}
}

// TestTraceDefaultCapacity pins the ring sizing — a run that writes more
// records than telemetry.DefaultCapacity still drops none — and the fixed
// point a traced run is.
func TestTraceDefaultCapacity(t *testing.T) {
	res, tr, err := TraceRun(Options{Seed: 7, Requests: 2000, MaxTime: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.Total <= telemetry.DefaultCapacity {
		t.Fatalf("run wrote %d records; it must outgrow the default ring (%d) to test the sizing", st.Total, telemetry.DefaultCapacity)
	}
	if st.Dropped != 0 {
		t.Fatalf("ring dropped %d of %d records", st.Dropped, st.Total)
	}
	if res.Variant != "binsearch" || res.N != 100 {
		t.Fatalf("unexpected traced point %s n=%d", res.Variant, res.N)
	}
}
