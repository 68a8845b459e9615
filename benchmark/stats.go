package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples holds exact measurements (nanoseconds for every latency). Every
// reported quantile is read from the sorted samples themselves; no number
// in this benchmark comes out of a bucketed histogram.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

func (s *samples) addDuration(d time.Duration) { *s = append(*s, float64(d)) }

// tailNeed is how many samples must lie beyond a percentile before it is
// reported: a p99 read off fewer is one or two outliers, not a percentile.
const tailNeed = 10

// quantile returns the nearest-rank q-quantile of sorted samples, and false
// when fewer than tailNeed samples lie beyond it (q > 0.5 only: the median
// has half the sample on either side).
func (s samples) quantile(q float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	if q > 0.5 && n-1-rank < tailNeed {
		return s[rank], false
	}
	return s[rank], true
}

// tail returns the highest of p99, p95, p90, p75 that has tailNeed samples
// beyond it, with the percentile it settled on; with too few samples even
// for p75 it falls back to the median.
func (s samples) tail() (v float64, pct float64) {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if v, ok := s.quantile(q); ok {
			return v, q * 100
		}
	}
	v, _ = s.quantile(0.5)
	return v, 50
}

func (s samples) median() float64 {
	v, _ := s.sorted().quantile(0.5)
	return v
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// groupedQuantile is the q-quantile of integer-valued samples (simulated
// ticks) read as grouped data: a value v stands for the interval
// [v-0.5, v+0.5) and the quantile is interpolated inside the interval it
// falls in. Nearest rank on integers moves in whole ticks — a 10-20 % step
// at the waits measured here — so a small shift either hides or trips a
// bound; the interpolated form moves with the mass around the quantile.
func groupedQuantile(sortedTicks []float64, q float64) float64 {
	n := len(sortedTicks)
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	i := int(math.Ceil(target)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	v := sortedTicks[i]
	lo := sort.SearchFloat64s(sortedTicks, v)     // samples below v
	hi := sort.SearchFloat64s(sortedTicks, v+0.5) // samples up to and including v
	return v - 0.5 + (target-float64(lo))/float64(hi-lo)
}

// quartiles mirrors Python's statistics.quantiles(values, n=4), the rule
// the acceptance check applies to the ten runs of a workload.
func quartiles(values []float64) (q1, q2, q3 float64, err error) {
	if len(values) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(values))
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		out[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return out[0], out[1], out[2], nil
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3, err := quartiles(values)
	if err != nil || q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
