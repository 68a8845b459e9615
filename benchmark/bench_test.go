package main

import (
	"bytes"
	"math"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecShape holds BENCHMARK.json to the limits its consumers check and
// to the workloads this program knows.
func TestSpecShape(t *testing.T) {
	sp := testSpec(t)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	setup := false
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	known := workloads(false)
	if len(sp.Workloads) != len(known) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(known))
	}
	for i, w := range sp.Workloads {
		name(w.Name)
		if w.Name != known[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, known[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

// checkLine asserts that a result carries every listed metric once, with
// its unit, finite, and — end to end — not zero.
func checkLine(t *testing.T, res resultLine, list []metricSpec, endToEnd bool) {
	t.Helper()
	if !res.Correct {
		t.Error("run is not correct")
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(list) {
		t.Errorf("%d metrics emitted, %d listed", len(res.Metrics), len(list))
	}
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s is not emitted", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: unit %q, want %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s is not finite", m.Name)
		case endToEnd && v.Value == 0:
			t.Errorf("%s is zero", m.Name)
		}
	}
}

// exact are the end-to-end metrics a simulator workload must reproduce to
// the last digit from the same seed.
var exact = []string{"msgs_per_grant", "resp_mean_ticks", "wait_p50_ticks", "wait_p99_ticks"}

// TestWorkloadsToy runs every workload at toy scale, untraced and traced,
// and holds the output to BENCHMARK.json; the simulator workloads run twice
// and must count the same.
func TestWorkloadsToy(t *testing.T) {
	sp := testSpec(t)
	sc := ladderScale{div: 400}
	for _, wl := range workloads(true) {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			live := wl.name[:4] == "live"
			if live && testing.Short() {
				t.Skip("live rings are skipped in -short")
			}
			cfg := runConfig{seed: 7, window: 100 * time.Millisecond, setups: 1}
			var buf bytes.Buffer
			first, err := runOne(&buf, sp, wl, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, first, sp.EndToEnd, true)
			for _, m := range sp.EndToEnd {
				if n := bytes.Count(buf.Bytes(), []byte("  "+m.Name+" ")); n != 1 {
					t.Errorf("%s is printed %d times", m.Name, n)
				}
			}
			if !live {
				again, err := runOne(&buf, sp, wl, cfg, sc)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range exact {
					if a, b := first.Metrics[name].Value, again.Metrics[name].Value; a != b {
						t.Errorf("%s: %v then %v from the same seed", name, a, b)
					}
				}
			}
			if testing.Short() {
				return
			}
			cfg.trace = true
			cfg.spans = newSpanLog()
			traced, err := runOne(&buf, sp, wl, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, traced, sp.PerLayer, false)
			if len(cfg.spans.spans) == 0 {
				t.Error("the traced pass recorded no span")
			}
			if v := traced.Metrics["driver.grants"].Value; v == 0 {
				t.Error("the observer counted no grant")
			}
		})
	}
}

func TestQuantileNeedsTail(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	if v, ok := s.quantile(0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := s[:500].quantile(0.99); ok {
		t.Error("p99 of 500 samples has 5 beyond it and was reported")
	}
	if v, pct := s[:500].tail(); pct != 95 || v != 475 {
		t.Errorf("tail of 500 samples = %v at p%v; want 475 at p95", v, pct)
	}
	if v, pct := s[:8].tail(); pct != 50 || v != 4 {
		t.Errorf("tail of 8 samples = %v at p%v; want the median 4", v, pct)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3, err := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v (%v)", q1, q2, q3, err)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestGroupedQuantile(t *testing.T) {
	// Ten waits of 5 ticks: the median sits mid-interval.
	five := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	if got := groupedQuantile(five, 0.5); got != 5 {
		t.Errorf("median of ten 5s = %v", got)
	}
	// 4 4 4 5 5 5 5 5 6 6: half the mass is 2/5 of the way into [4.5, 5.5).
	mixed := []float64{4, 4, 4, 5, 5, 5, 5, 5, 6, 6}
	if got := groupedQuantile(mixed, 0.5); math.Abs(got-4.9) > 1e-12 {
		t.Errorf("grouped median = %v, want 4.9", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, steady, "same"},
		{lower, steady, scale(1.2), "worse"},
		{lower, steady, scale(0.8), "better"},
		{higher, steady, scale(0.8), "worse"},
		{higher, steady, scale(1.2), "better"},
		{lower, noisy, noisy, "unresolved"},
		{lower, steady, scale(1.05), "same"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s, B = A x %.2f: %s, want %s", c.m.Name, c.b[0]/c.a[0], got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "acquire", Request: "r", Start: 0, End: 100},
		{Name: "search", Request: "r", Parent: "acquire", Start: 10, End: 40},
		{Name: "return", Request: "r", Parent: "acquire", Start: 30, End: 60}, // overlaps search by 10
		{Name: "acquire", Request: "other", Start: 0, End: 50},
	}
	fillSelf(spans)
	if spans[0].Self != 50 {
		t.Errorf("acquire self = %d, want 100 - [10,60) = 50", spans[0].Self)
	}
	if spans[1].Self != 30 || spans[3].Self != 50 {
		t.Errorf("childless spans: self %d and %d, want their durations 30 and 50", spans[1].Self, spans[3].Self)
	}
}
