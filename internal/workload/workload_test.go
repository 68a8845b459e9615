package workload

import (
	"math"
	"testing"

	"adaptivetoken/internal/sim"
)

func TestPoissonMeanGap(t *testing.T) {
	g := Poisson{N: 10, MeanGap: 10}
	rng := sim.NewRNG(1)
	reqs := Take(g, rng, 20000)
	if len(reqs) != 20000 {
		t.Fatalf("got %d requests", len(reqs))
	}
	mean := float64(reqs[len(reqs)-1].At) / float64(len(reqs))
	if math.Abs(mean-10) > 0.5 {
		t.Errorf("mean gap = %.2f, want ≈10", mean)
	}
	for _, r := range reqs {
		if r.Node < 0 || r.Node >= 10 {
			t.Fatalf("node out of range: %d", r.Node)
		}
	}
}

func TestPoissonMonotoneTimes(t *testing.T) {
	g := Poisson{N: 3, MeanGap: 2}
	rng := sim.NewRNG(2)
	reqs := Take(g, rng, 1000)
	for i := 1; i < len(reqs); i++ {
		if reqs[i].At <= reqs[i-1].At {
			t.Fatalf("times not strictly increasing at %d: %d then %d", i, reqs[i-1].At, reqs[i].At)
		}
	}
}

func TestBursty(t *testing.T) {
	g := &Bursty{N: 6, BurstSize: 3, WithinGap: 1, IdleGap: 100}
	rng := sim.NewRNG(4)
	reqs := Take(g, rng, 9)
	// Requests come in groups of 3: gaps within a burst are exactly 1.
	withinGaps := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].At-reqs[i-1].At == 1 {
			withinGaps++
		}
	}
	if withinGaps != 6 {
		t.Errorf("within-burst gaps = %d, want 6 (two per burst)", withinGaps)
	}
}

func TestHotspotSkew(t *testing.T) {
	g := Hotspot{N: 10, MeanGap: 5, Hot: 3, HotFrac: 0.8}
	rng := sim.NewRNG(5)
	reqs := Take(g, rng, 10000)
	hot := 0
	for _, r := range reqs {
		if r.Node == 3 {
			hot++
		}
	}
	frac := float64(hot) / float64(len(reqs))
	// 0.8 direct + 0.2·(1/10) uniform ≈ 0.82.
	if frac < 0.78 || frac < 0.5 {
		t.Errorf("hot fraction = %.3f", frac)
	}
}

func TestAllAtOnce(t *testing.T) {
	g := &AllAtOnce{N: 4, At: 100}
	rng := sim.NewRNG(6)
	reqs := Take(g, rng, 10)
	if len(reqs) != 4 {
		t.Fatalf("got %d requests, want 4", len(reqs))
	}
	for i, r := range reqs {
		if r.At != 100 || r.Node != i {
			t.Errorf("req %d = %+v", i, r)
		}
	}
}
