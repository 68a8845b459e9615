package telemetry

import (
	"math/bits"
	"strings"
	"testing"

	"adaptivetoken/internal/metrics"
)

func bitsLen(v int64) int { return bits.Len64(uint64(v)) }

// TestScrapeRoundTrip: what PromWriter writes, ParseProm reads back —
// counters, vectors, and histograms bucket-for-bucket. This is the
// contract the orchestrator's scrape-and-merge stands on.
func TestScrapeRoundTrip(t *testing.T) {
	var h metrics.Histogram
	for _, v := range []int64{0, 1, 2, 3, 7, 8, 100, 1000, 1000000} {
		h.Observe(v)
	}
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("x_total", "X.", 42, Label{Key: "shard", Value: "0"})
	p.Counter("x_total", "", 8, Label{Key: "shard", Value: "1"})
	p.Gauge("g", "G.", 3.5)
	p.CounterVec("m_total", "M.", []metrics.KindCount{
		{Kind: "token", Count: 10}, {Kind: "search", Count: 20},
	}, "kind", Label{Key: "shard", Value: "0"})
	p.Histogram("lat_ms", "L.", &h)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	s, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Value("x_total"); !ok || v != 50 {
		t.Fatalf("x_total sum = %v, %v; want 50", v, ok)
	}
	if v, ok := s.Value("x_total", Label{Key: "shard", Value: "1"}); !ok || v != 8 {
		t.Fatalf("x_total{shard=1} = %v, %v; want 8", v, ok)
	}
	if v, ok := s.Value("g"); !ok || v != 3.5 {
		t.Fatalf("g = %v, %v; want 3.5", v, ok)
	}
	kinds := s.Kinds("m_total", "kind")
	if kinds["token"] != 10 || kinds["search"] != 20 {
		t.Fatalf("kinds = %v", kinds)
	}

	got, ok := s.Histogram("lat_ms")
	if !ok {
		t.Fatal("lat_ms histogram missing")
	}
	if got.Count() != h.Count() || got.Sum() != h.Sum() {
		t.Fatalf("count/sum %d/%d, want %d/%d", got.Count(), got.Sum(), h.Count(), h.Sum())
	}
	for i := 0; i < metrics.HistBuckets; i++ {
		if got.Bucket(i) != h.Bucket(i) {
			t.Fatalf("bucket %d: %d, want %d", i, got.Bucket(i), h.Bucket(i))
		}
	}
	// Quantiles agree up to the documented approximation: the original
	// clamps to its exact max, the reconstruction only knows the occupied
	// bucket's upper edge — never more than one octave above.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		lo, hi := h.Quantile(q), metrics.BucketUpper(bitsLen(h.Quantile(q)))
		if g := got.Quantile(q); g < lo || g > hi {
			t.Fatalf("q%.2f: %d, want within [%d,%d]", q, g, lo, hi)
		}
	}
}

// TestScrapeHistogramMergesLabelSets: one exposition carrying the same
// histogram under two shard labels reconstructs to the sum of both.
func TestScrapeHistogramMergesLabelSets(t *testing.T) {
	var h1, h2 metrics.Histogram
	h1.Observe(5)
	h1.Observe(9)
	h2.Observe(5)
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Histogram("lat_ms", "L.", &h1, Label{Key: "shard", Value: "0"})
	p.Histogram("lat_ms", "", &h2, Label{Key: "shard", Value: "1"})
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := ParseProm(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Histogram("lat_ms")
	if !ok || got.Count() != 3 || got.Sum() != 19 {
		t.Fatalf("merged count/sum = %d/%d ok=%v, want 3/19", got.Count(), got.Sum(), ok)
	}
}

// TestScrapeMalformed: garbage lines fail instead of silently dropping
// cluster data.
func TestScrapeMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here",
		`unterminated{a="b 1`,
		`badnum{a="b"} xyz`,
	} {
		if _, err := ParseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
}

// TestFromBucketsExtremaApprox pins the documented approximation: the
// maximum comes from the last occupied bucket's upper edge.
func TestFromBucketsExtremaApprox(t *testing.T) {
	counts := make([]int64, metrics.HistBuckets)
	counts[3] = 2 // values in [4,7]
	counts[5] = 1 // values in [16,31]
	h := metrics.FromBuckets(counts, 40)
	if h.Count() != 3 || h.Sum() != 40 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	if h.Max() != 31 {
		t.Fatalf("max = %d, want upper edge 31", h.Max())
	}
}
