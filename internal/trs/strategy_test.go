package trs

import (
	"testing"
)

// firstStrategy applies the first enabled application (in rule declaration
// order, then match order), making a reduction deterministic.
var firstStrategy = strategyFunc(func(apps []Application, _ int) int {
	if len(apps) == 0 {
		return -1
	}
	return 0
})

func TestReduceFirstStrategy(t *testing.T) {
	sys := counterSystem(2)
	steps, final, err := Reduce(sys.Rules, sys.Init, firstStrategy, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	// First strategy keeps choosing inc until the guard disables it.
	for _, s := range steps {
		if s.Rule != "inc" {
			t.Errorf("rule = %s, want inc", s.Rule)
		}
	}
	tp := final.(Tuple)
	if tp.At(0).(Bag).Len() != 2 {
		t.Errorf("final bag = %s", tp.At(0))
	}
}

func TestReduceStopsWhenStuck(t *testing.T) {
	sys := System{
		Name:  "oneshot",
		Init:  Atom("a"),
		Rules: []Rule{{Name: "ab", LHS: Lit(Atom("a")), RHS: Lit(Atom("b"))}},
	}
	steps, final, err := Reduce(sys.Rules, sys.Init, firstStrategy, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || !Equal(final, Atom("b")) {
		t.Fatalf("steps=%d final=%s", len(steps), final)
	}
}

func TestRandomStrategyDeterministicPerSeed(t *testing.T) {
	sys := counterSystem(3)
	run := func(seed uint64) []string {
		steps, _, err := Reduce(sys.Rules, sys.Init, NewRandomStrategy(seed), 50)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(steps))
		for i, s := range steps {
			names[i] = s.Rule
		}
		return names
	}
	a := run(42)
	b := run(42)
	if len(a) != len(b) {
		t.Fatal("same seed must give same length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %s vs %s", i, a[i], b[i])
		}
	}
	// Zero seed is remapped, not a degenerate generator.
	c := run(0)
	if len(c) != 50 {
		t.Fatalf("zero-seed reduction took %d steps", len(c))
	}
}

func TestStrategiesOnEmpty(t *testing.T) {
	if NewRandomStrategy(1).Pick(nil, 0) != -1 {
		t.Error("random on empty should stop")
	}
}

func TestReduceStrategyOutOfRange(t *testing.T) {
	sys := counterSystem(1)
	bad := strategyFunc(func(apps []Application, _ int) int { return len(apps) + 5 })
	_, _, err := Reduce(sys.Rules, sys.Init, bad, 3)
	if err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// strategyFunc adapts a function to Strategy for tests.
type strategyFunc func([]Application, int) int

// Pick implements Strategy.
func (f strategyFunc) Pick(apps []Application, step int) int { return f(apps, step) }

func TestReduceBuildErrorPropagates(t *testing.T) {
	bad := []Rule{{Name: "bad", LHS: V("x"), RHS: V("y")}}
	_, _, err := Reduce(bad, Atom("a"), firstStrategy, 3)
	if err == nil {
		t.Fatal("expected build error")
	}
}
