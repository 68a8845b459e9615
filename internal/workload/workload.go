// Package workload generates the request arrival processes of the paper's
// evaluation: the fixed-load process of Figure 9 ("on average, every 10
// time units, one of the nodes in the system makes a request"), the swept
// load of Figure 10, and the bursty/hotspot variants discussed in the
// introduction ("excellent response when the use is bursty but
// infrequent").
package workload

import "adaptivetoken/internal/sim"

// Request is one generated token request.
type Request struct {
	// At is the absolute arrival time.
	At sim.Time
	// Node is the requesting node.
	Node int
}

// Generator produces a request arrival sequence. Implementations are pure
// functions of the RNG, so runs are reproducible per seed.
type Generator interface {
	// Next returns the request following a previous request at time
	// prev, or ok=false when the workload is exhausted.
	Next(rng *sim.RNG, prev sim.Time) (req Request, ok bool)
}

// Poisson issues requests with exponentially distributed gaps (mean
// MeanGap) at uniformly random nodes — the paper's fixed-load process.
type Poisson struct {
	N       int
	MeanGap float64
}

// Next implements Generator.
func (p Poisson) Next(rng *sim.RNG, prev sim.Time) (Request, bool) {
	gap := rng.ExpTime(p.MeanGap)
	return Request{At: prev + gap, Node: rng.Intn(p.N)}, true
}

// Bursty alternates idle periods (mean IdleGap) with bursts of BurstSize
// requests spaced WithinGap apart, each at a random node — the "bursty but
// infrequent" pattern where logarithmic response shines.
type Bursty struct {
	N         int
	BurstSize int
	WithinGap sim.Time
	IdleGap   float64

	// mutable position within the current burst
	left int
}

// Next implements Generator.
func (b *Bursty) Next(rng *sim.RNG, prev sim.Time) (Request, bool) {
	if b.left > 0 {
		b.left--
		return Request{At: prev + b.WithinGap, Node: rng.Intn(b.N)}, true
	}
	b.left = b.BurstSize - 1
	if b.left < 0 {
		b.left = 0
	}
	return Request{At: prev + rng.ExpTime(b.IdleGap), Node: rng.Intn(b.N)}, true
}

// Hotspot issues Poisson arrivals where a fraction HotFrac of requests hit
// node Hot and the rest are uniform — skewed demand for the adaptive-speed
// and push ablations.
type Hotspot struct {
	N       int
	MeanGap float64
	Hot     int
	HotFrac float64
}

// Next implements Generator.
func (h Hotspot) Next(rng *sim.RNG, prev sim.Time) (Request, bool) {
	gap := rng.ExpTime(h.MeanGap)
	node := h.Hot
	if rng.Float64() >= h.HotFrac {
		node = rng.Intn(h.N)
	}
	return Request{At: prev + gap, Node: node}, true
}

// AllAtOnce makes every node request at time At simultaneously — the
// saturation scenario of the responsiveness discussion ("when all nodes
// simultaneously require the token, the responsiveness is O(1)").
type AllAtOnce struct {
	N  int
	At sim.Time

	next int
}

// Next implements Generator.
func (a *AllAtOnce) Next(_ *sim.RNG, _ sim.Time) (Request, bool) {
	if a.next >= a.N {
		return Request{}, false
	}
	r := Request{At: a.At, Node: a.next}
	a.next++
	return r, true
}

// Take materializes the first count requests of a generator starting at
// time 0.
func Take(g Generator, rng *sim.RNG, count int) []Request {
	out := make([]Request, 0, count)
	prev := sim.Time(0)
	for len(out) < count {
		req, ok := g.Next(rng, prev)
		if !ok {
			break
		}
		out = append(out, req)
		prev = req.At
	}
	return out
}
