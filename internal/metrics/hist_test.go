package metrics

import (
	"math"
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
