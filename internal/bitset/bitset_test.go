package bitset

import (
	"math/rand"
	"testing"
)

func TestBasics(t *testing.T) {
	s := New(130)
	if s.Len() != 130 || s.Count() != 0 || s.Any() {
		t.Fatalf("fresh set: len=%d count=%d any=%v", s.Len(), s.Count(), s.Any())
	}
	for _, i := range []int{0, 63, 64, 129} {
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 4 || !s.Any() {
		t.Fatalf("count %d after 4 sets", s.Count())
	}
	s.Set(63) // idempotent
	if s.Count() != 4 {
		t.Fatalf("double set changed count: %d", s.Count())
	}
	s.Clear(63)
	s.Clear(63) // idempotent
	if s.Get(63) || s.Count() != 3 {
		t.Fatalf("clear: get=%v count=%d", s.Get(63), s.Count())
	}
	s.ClearAll()
	if s.Count() != 0 || s.Any() || s.Get(0) || s.Get(129) {
		t.Fatalf("ClearAll left bits: count=%d", s.Count())
	}
}

func TestOutOfRange(t *testing.T) {
	s := New(10)
	s.Set(-1)
	s.Set(10)
	s.Clear(-1)
	s.Clear(10)
	if s.Get(-1) || s.Get(10) || s.Count() != 0 {
		t.Fatalf("out-of-range access mutated the set: count=%d", s.Count())
	}
	var zero Set
	if zero.Len() != 0 || zero.Get(0) || zero.Any() || zero.Next(0) != -1 {
		t.Fatalf("zero value misbehaves")
	}
}

func TestNext(t *testing.T) {
	s := New(200)
	if s.Next(0) != -1 {
		t.Fatalf("Next on empty set")
	}
	for _, i := range []int{3, 64, 65, 190} {
		s.Set(i)
	}
	want := []struct{ from, at int }{
		{0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 65}, {66, 190}, {191, -1}, {-5, 3},
	}
	for _, w := range want {
		if got := s.Next(w.from); got != w.at {
			t.Errorf("Next(%d) = %d, want %d", w.from, got, w.at)
		}
	}
}

// TestAgainstBoolSlice cross-checks the set against a plain []bool under a
// random operation stream — the representation swap the driver made.
func TestAgainstBoolSlice(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(42))
	s := New(n)
	ref := make([]bool, n)
	refCount := func() int {
		c := 0
		for _, b := range ref {
			if b {
				c++
			}
		}
		return c
	}
	refNext := func(i int) int {
		if i < 0 {
			i = 0
		}
		for ; i < n; i++ {
			if ref[i] {
				return i
			}
		}
		return -1
	}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.Set(i)
			ref[i] = true
		case 1:
			s.Clear(i)
			ref[i] = false
		case 2:
			if got, want := s.Next(i), refNext(i); got != want {
				t.Fatalf("step %d: Next(%d) = %d, want %d", step, i, got, want)
			}
		}
		if s.Get(i) != ref[i] {
			t.Fatalf("step %d: Get(%d) = %v, want %v", step, i, s.Get(i), ref[i])
		}
		if s.Count() != refCount() {
			t.Fatalf("step %d: Count = %d, want %d", step, s.Count(), refCount())
		}
	}
}
