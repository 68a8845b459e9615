package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not zero: %+v", h)
	}
	vals := []int64{0, 1, 1, 2, 3, 7, 8, 1000, -5}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count %d, want %d", h.Count(), len(vals))
	}
	// -5 clamps to 0.
	if h.Sum() != 0+1+1+2+3+7+8+1000+0 {
		t.Fatalf("sum %d", h.Sum())
	}
	if h.Max() != 1000 {
		t.Fatalf("max %d", h.Max())
	}
	// Bucket placement: v<1 → bucket 0; 1 → 1; 2,3 → 2; 7 → 3; 8 → 4.
	for i, want := range map[int]int64{0: 2, 1: 2, 2: 2, 3: 1, 4: 1, 10: 1} {
		if got := h.Bucket(i); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if h.NonEmptyBuckets() != 11 {
		t.Fatalf("NonEmptyBuckets %d, want 11", h.NonEmptyBuckets())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	// Quantile errs upward by at most one octave.
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := int64(math.Ceil(q * 1000))
		got := h.Quantile(q)
		if got < exact || got > 2*exact {
			t.Errorf("Quantile(%g) = %d, exact %d (want within one octave above)", q, got, exact)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Errorf("Quantile(1) = %d, want max %d", h.Quantile(1), h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	for i := int64(0); i < 100; i++ {
		a.Observe(i)
		both.Observe(i)
	}
	for i := int64(100); i < 300; i += 3 {
		b.Observe(i)
		both.Observe(i)
	}
	a.Merge(&b)
	if a != both {
		t.Fatalf("merged histogram differs from direct observation:\n%+v\n%+v", a, both)
	}
	a.Merge(nil) // no-op
	if a != both {
		t.Fatalf("Merge(nil) mutated the histogram")
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(42)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestBucketUpperMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < HistBuckets; i++ {
		ub := BucketUpper(i)
		if ub <= prev {
			t.Fatalf("BucketUpper(%d) = %d not increasing past %d", i, ub, prev)
		}
		prev = ub
	}
}

// TestHistogramJSONExact: a histogram survives a JSON round trip exactly —
// every bucket, the count, the sum and the maximum — and a decoder fed by
// another process rejects a bucket list of the wrong length, a negative
// count and counts that do not add up.
func TestHistogramJSONExact(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 3, 3, 100, 1000, 123456789, math.MaxInt64 / 4} {
		h.Observe(v)
	}
	buf, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip changed the histogram:\n got %+v\nwant %+v", got, h)
	}
	if got.Max() != math.MaxInt64/4 || got.Sum() != h.Sum() || got.Count() != 8 {
		t.Fatalf("max %d sum %d count %d", got.Max(), got.Sum(), got.Count())
	}

	zeros := strings.TrimSuffix(strings.Repeat("0,", HistBuckets), ",")
	for name, in := range map[string]string{
		"short":          `{"count":0,"sum":0,"max":0,"buckets":[0,0]}`,
		"long":           `{"count":0,"sum":0,"max":0,"buckets":[` + zeros + `,0]}`,
		"missing":        `{"count":0,"sum":0,"max":0}`,
		"negative":       `{"count":0,"sum":0,"max":0,"buckets":[-1,1` + zeros[3:] + `]}`,
		"negative count": `{"count":-1,"sum":0,"max":0,"buckets":[` + zeros + `]}`,
		"negative sum":   `{"count":0,"sum":-1,"max":0,"buckets":[` + zeros + `]}`,
		"undercount":     `{"count":2,"sum":0,"max":0,"buckets":[1` + zeros[1:] + `]}`,
		"overcount":      `{"count":1,"sum":0,"max":0,"buckets":[2` + zeros[1:] + `]}`,
		"overflow":       `{"count":1,"sum":0,"max":0,"buckets":[9223372036854775807,-9223372036854775806` + zeros[3:] + `]}`,
	} {
		var d Histogram
		if err := json.Unmarshal([]byte(in), &d); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
	var empty Histogram
	if err := json.Unmarshal([]byte(`{"count":0,"sum":0,"max":0,"buckets":[`+zeros+`]}`), &empty); err != nil {
		t.Fatalf("empty histogram rejected: %v", err)
	}
}
