package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// HistBuckets is the number of log₂ buckets a Histogram carries: bucket i
// counts observations v with 2^(i-1) ≤ v < 2^i (bucket 0 counts v < 1).
// Indices 0..63 cover the full non-negative int64 range (MaxInt64 has bit
// length 63), so the layout never needs to grow and two histograms always
// merge bucket-for-bucket.
const HistBuckets = 64

// Histogram is a streaming, fixed-layout, log₂-bucketed histogram for
// non-negative integer measurements (durations in time units, counts).
// Observing is an array increment — no allocation, no sorting — which makes
// it safe for hot paths where the exact-sample slices of Summarize would
// grow without bound. Histograms with the same layout merge by addition,
// so per-run histograms roll up into per-experiment or per-cluster ones.
//
// The zero value is an empty histogram ready for use.
type Histogram struct {
	counts     [HistBuckets]int64
	count, sum int64
	max        int64
}

// Observe records one measurement. Negative values clamp to zero (they land
// in bucket 0, like any v < 1).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// histBucket maps v ≥ 0 to its bucket index: 0 for v < 1, otherwise the
// bit length of v (v in [2^(k-1), 2^k) has bit length k).
func histBucket(v int64) int {
	return bits.Len64(uint64(v))
}

// BucketUpper returns the inclusive upper bound of bucket i for integer
// observations: 2^i − 1 (bucket 0 holds only 0). The last bucket's bound
// saturates at MaxInt64.
func BucketUpper(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Bucket returns the raw count of bucket i.
func (h *Histogram) Bucket(i int) int64 {
	if i < 0 || i >= HistBuckets {
		return 0
	}
	return h.counts[i]
}

// NonEmptyBuckets returns the index one past the last non-empty bucket —
// the loop bound exporters use to skip the empty tail.
func (h *Histogram) NonEmptyBuckets() int {
	for i := HistBuckets - 1; i >= 0; i-- {
		if h.counts[i] != 0 {
			return i + 1
		}
	}
	return 0
}

// Quantile estimates the q-quantile (q in [0, 1]) by nearest rank over the
// bucket upper bounds. The estimate errs upward by at most one octave —
// good enough for dashboards; exact percentiles stay with Summarize.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < HistBuckets; i++ {
		seen += h.counts[i]
		if seen >= rank {
			ub := BucketUpper(i)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Reset empties the histogram for reuse.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

// histJSON is a Histogram's wire form: every bucket, so a histogram that
// crosses a process boundary decodes to exactly the one encoded.
type histJSON struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	Buckets []int64 `json:"buckets"`
}

// MarshalJSON encodes the histogram exactly: count, sum, max and all
// HistBuckets bucket counts.
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histJSON{Count: h.count, Sum: h.sum, Max: h.max, Buckets: h.counts[:]})
}

// UnmarshalJSON decodes what MarshalJSON encodes. The input may come from
// another process, so it rejects a bucket list that is not HistBuckets
// long, a negative value, and bucket counts that do not add up to the
// count.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var w histJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Buckets) != HistBuckets {
		return fmt.Errorf("histogram: %d buckets, want %d", len(w.Buckets), HistBuckets)
	}
	if w.Sum < 0 || w.Max < 0 {
		return fmt.Errorf("histogram: negative sum %d or max %d", w.Sum, w.Max)
	}
	left := w.Count // compared before each add, so no sum can overflow
	for i, c := range w.Buckets {
		if c < 0 {
			return fmt.Errorf("histogram: bucket %d count %d is negative", i, c)
		}
		if c > left {
			return fmt.Errorf("histogram: buckets add up to more than count %d", w.Count)
		}
		left -= c
	}
	if left != 0 {
		return fmt.Errorf("histogram: buckets add up to %d, count is %d", w.Count-left, w.Count)
	}
	*h = Histogram{count: w.Count, sum: w.Sum, max: w.Max}
	copy(h.counts[:], w.Buckets)
	return nil
}
