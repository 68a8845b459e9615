package sim

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. It is small,
// fast, seedable, and good enough for workload generation; experiments are
// reproducible from their seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Exp returns an exponentially distributed value with the given mean, used
// for Poisson arrival gaps.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// ExpTime returns an exponentially distributed duration with the given mean,
// rounded to at least one time unit.
func (r *RNG) ExpTime(mean float64) Time {
	d := Time(math.Round(r.Exp(mean)))
	if d < 1 {
		d = 1
	}
	return d
}
