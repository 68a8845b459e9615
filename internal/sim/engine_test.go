package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.After(10, func() { order = append(order, 2) })
	e.After(5, func() { order = append(order, 1) })
	e.After(10, func() { order = append(order, 3) }) // same time, FIFO
	e.After(20, func() { order = append(order, 4) })
	e.RunUntil(100)
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now = %d, want 100 (clock advances to limit)", e.Now())
	}
	if e.Events() != 4 {
		t.Errorf("Events = %d", e.Events())
	}
}

func TestEngineRunUntilBoundary(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(10, func() { ran = true })
	n := e.RunUntil(10) // inclusive
	if n != 1 || !ran {
		t.Error("event at limit must run")
	}
	e2 := NewEngine(1)
	e2.After(11, func() { t.Error("event after limit must not run") })
	e2.RunUntil(10)
	if e2.Pending() != 1 {
		t.Errorf("Pending = %d", e2.Pending())
	}
}

func TestEngineCascade(t *testing.T) {
	e := NewEngine(1)
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if hops < 5 {
			e.After(3, hop)
		}
	}
	e.After(0, hop)
	e.RunUntil(1000)
	if hops != 5 {
		t.Errorf("hops = %d", hops)
	}
	if e.Now() != 1000 {
		t.Errorf("Now = %d", e.Now())
	}
}

func TestEnginePastEvent(t *testing.T) {
	e := NewEngine(1)
	e.After(10, func() {})
	e.RunUntil(10)
	if err := e.At(5, func() {}); !errors.Is(err, ErrPastEvent) {
		t.Errorf("err = %v", err)
	}
	// After with negative delay clamps instead.
	ran := false
	e.After(-3, func() { ran = true })
	e.Drain(10)
	if !ran {
		t.Error("clamped event must run")
	}
}

func TestEngineStepAndDrain(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Error("Step on empty queue must return false")
	}
	for i := 0; i < 5; i++ {
		e.After(Time(i), func() {})
	}
	if n := e.Drain(3); n != 3 {
		t.Errorf("Drain(3) = %d", n)
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should diverge")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Error("degenerate Intn should return 0")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.3 {
		t.Errorf("exp mean = %.3f, want ≈10", mean)
	}
}

func TestRNGExpTimeAtLeastOne(t *testing.T) {
	r := NewRNG(13)
	for i := 0; i < 1000; i++ {
		if r.ExpTime(0.01) < 1 {
			t.Fatal("ExpTime must be at least 1")
		}
	}
}

func TestDelayModels(t *testing.T) {
	r := NewRNG(23)
	if (ConstantDelay{D: 4}).Delay(r, 0, 1) != 4 {
		t.Error("constant delay broken")
	}
	u := UniformDelay{Min: 2, Max: 5}
	for i := 0; i < 200; i++ {
		d := u.Delay(r, 0, 1)
		if d < 2 || d > 5 {
			t.Fatalf("uniform delay out of range: %d", d)
		}
	}
	if (UniformDelay{Min: 3, Max: 3}).Delay(r, 0, 1) != 3 {
		t.Error("degenerate uniform delay")
	}
	e := ExponentialDelay{Mean: 5}
	for i := 0; i < 200; i++ {
		if e.Delay(r, 0, 1) < 1 {
			t.Fatal("exponential delay must be at least 1")
		}
	}
}
