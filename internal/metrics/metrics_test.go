package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-1.2909944) > 1e-6 {
		t.Errorf("std = %v", s.Std)
	}
	if s.P50 != 2 {
		t.Errorf("p50 = %v", s.P50)
	}
	if Summarize(nil).Count != 0 {
		t.Error("empty summary")
	}
	single := Summarize([]float64{7})
	if single.Std != 0 || single.P99 != 7 {
		t.Errorf("single-sample summary = %+v", single)
	}
	if !strings.Contains(s.String(), "mean=2.50") {
		t.Errorf("string = %s", s)
	}
}

func TestQuickSummarizeBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		s := Summarize(samples)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P95 &&
			s.P95 <= s.P99 && s.P99 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPercentilesKnownDistributions pins the nearest-rank percentiles on
// distributions whose quantiles are known exactly.
func TestPercentilesKnownDistributions(t *testing.T) {
	// 1..100: the nearest-rank p-quantile of 100 samples is sample 100p.
	uniform := make([]float64, 100)
	for i := range uniform {
		uniform[i] = float64(i + 1)
	}
	s := Summarize(uniform)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p50", s.P50, 50}, {"p90", s.P90, 90}, {"p95", s.P95, 95}, {"p99", s.P99, 99},
	} {
		if c.got != c.want {
			t.Errorf("uniform 1..100: %s = %v, want %v", c.name, c.got, c.want)
		}
	}

	// Heavy tail: 99 ones and one hundred — the p99 must already see the
	// outlier, the p95 must not.
	tail := make([]float64, 100)
	for i := range tail {
		tail[i] = 1
	}
	tail[0] = 100 // position irrelevant: Summarize sorts a copy
	s = Summarize(tail)
	if s.P50 != 1 || s.P90 != 1 || s.P95 != 1 {
		t.Errorf("tail: p50/p90/p95 = %v/%v/%v, want 1/1/1", s.P50, s.P90, s.P95)
	}
	if s.P99 != 1 || s.Max != 100 {
		// nearest-rank p99 of 100 samples is sample 99 (still 1).
		t.Errorf("tail: p99 = %v max = %v, want 1 and 100", s.P99, s.Max)
	}

	// 1..20: ranks ⌈20p⌉ — p50→10, p90→18, p95→19, p99→20.
	small := make([]float64, 20)
	for i := range small {
		small[i] = float64(i + 1)
	}
	s = Summarize(small)
	if s.P50 != 10 || s.P90 != 18 || s.P95 != 19 || s.P99 != 20 {
		t.Errorf("1..20: p50/p90/p95/p99 = %v/%v/%v/%v, want 10/18/19/20",
			s.P50, s.P90, s.P95, s.P99)
	}
}

func TestResponsivenessSingleRequest(t *testing.T) {
	var r Responsiveness
	r.RequestArrived(10)
	r.Granted(17)
	s := r.samples
	if len(s) != 1 || s[0] != 7 {
		t.Fatalf("samples = %v", s)
	}
	if r.ReadyCount() != 0 {
		t.Errorf("ready = %d", r.ReadyCount())
	}
}

func TestResponsivenessOverlappingRequests(t *testing.T) {
	// Definition 3: the interval restarts after each grant while ready
	// nodes remain.
	var r Responsiveness
	r.RequestArrived(0) // interval opens at 0
	r.RequestArrived(2) // second waiter
	r.Granted(5)        // sample 5-0 = 5; interval reopens at 5
	r.Granted(9)        // sample 9-5 = 4; no waiters left
	s := r.samples
	if len(s) != 2 || s[0] != 5 || s[1] != 4 {
		t.Fatalf("samples = %v", s)
	}
	if r.ReadyCount() != 0 {
		t.Error("all grants consumed")
	}
	// A grant with no open interval records nothing.
	r.Granted(12)
	if len(r.samples) != 2 {
		t.Error("spurious sample")
	}
}

func TestResponsivenessSaturation(t *testing.T) {
	// All nodes ready at once: every grant closes an interval that
	// started at the previous grant — responsiveness stays O(1) even
	// though waits are long.
	var r Responsiveness
	for i := 0; i < 5; i++ {
		r.RequestArrived(0)
	}
	for i := 1; i <= 5; i++ {
		r.Granted(int64(i))
	}
	s := r.Summary()
	if s.Count != 5 || s.Max != 1 {
		t.Fatalf("saturation summary = %+v", s)
	}
}

func TestWaits(t *testing.T) {
	w := NewWaits()
	w.Requested(3, 10)
	w.Requested(3, 12) // duplicate keeps original time
	w.Requested(5, 11)
	if w.Outstanding() != 2 {
		t.Errorf("outstanding = %d", w.Outstanding())
	}
	w.Granted(3, 20)
	w.Granted(9, 21) // never requested: ignored
	w.Granted(5, 31)
	s := w.Samples()
	if len(s) != 2 || s[0] != 10 || s[1] != 20 {
		t.Fatalf("samples = %v", s)
	}
	if w.Outstanding() != 0 {
		t.Error("all served")
	}
	if w.Summary().Mean != 15 {
		t.Errorf("mean = %v", w.Summary().Mean)
	}
}

func TestMessages(t *testing.T) {
	m := NewMessages()
	m.IncSlot(KindSlot(1)) // MsgToken
	m.IncSlot(KindSlot(1))
	for i := 0; i < 5; i++ {
		m.IncSlot(KindSlot(3)) // MsgSearch
	}
	m.IncSlot(KindSlot(102)) // MsgElect: no slot, not counted
	m.IncDropped()
	if got := m.Snapshot(); !reflect.DeepEqual(got, map[string]int64{"token": 2, "search": 5, "dropped": 1}) {
		t.Errorf("snapshot = %v", got)
	}
	if m.Total() != 8 {
		t.Errorf("total = %d", m.Total())
	}
}

func TestFairness(t *testing.T) {
	f := NewFairness()
	f.Requested(0, 100)
	f.Possessed(1)
	f.Possessed(1)
	f.Possessed(2)
	f.Possessed(0) // the waiter itself: not counted against it
	f.Granted(0)
	if len(f.MaxPerNode) != 1 || f.MaxPerNode[0] != 2 {
		t.Fatalf("max per node = %v", f.MaxPerNode)
	}
	if len(f.TotalOthers) != 1 || f.TotalOthers[0] != 3 {
		t.Fatalf("totals = %v", f.TotalOthers)
	}
	// Grant for a non-waiter is ignored.
	f.Granted(7)
	if len(f.MaxPerNode) != 1 {
		t.Error("spurious fairness sample")
	}
	// Duplicate request does not reset accounting.
	f.Requested(4, 1)
	f.Possessed(2)
	f.Requested(4, 2)
	f.Granted(4)
	if f.TotalOthers[1] != 1 {
		t.Errorf("dup request reset accounting: %v", f.TotalOthers)
	}
	if f.MaxSummary().Count != 2 || f.TotalSummary().Count != 2 {
		t.Error("summaries")
	}
}
