package trs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestExploreCounter(t *testing.T) {
	sys := counterSystem(3)
	res := Explore(sys.Rules, sys.Init, ExploreOptions{})
	if !(res.Err == nil && len(res.Violations) == 0) {
		t.Fatalf("explore failed: %+v", res)
	}
	// States: bags of size 0..3 → 4 states.
	if res.States != 4 {
		t.Errorf("States = %d, want 4", res.States)
	}
	if res.Terminal != 0 {
		t.Errorf("Terminal = %d, want 0 (inc or drop always enabled)", res.Terminal)
	}
	if res.Depth != 3 {
		t.Errorf("Depth = %d, want 3", res.Depth)
	}
}

func TestExploreInvariantHolds(t *testing.T) {
	sys := counterSystem(3)
	res := Explore(sys.Rules, sys.Init, ExploreOptions{
		Invariants: []Invariant{{
			Name: "bounded",
			Check: func(s Term) error {
				tp, ok := s.(Tuple)
				if !ok {
					return errors.New("state not a tuple")
				}
				bag, ok := tp.At(0).(Bag)
				if !ok {
					return errors.New("no bag")
				}
				if bag.Len() > 3 {
					return fmt.Errorf("counter exceeded: %d", bag.Len())
				}
				return nil
			},
		}},
	})
	if !(res.Err == nil && len(res.Violations) == 0) {
		t.Fatalf("invariant should hold: %+v", res.Violations)
	}
}

func TestExploreInvariantViolationWithTrace(t *testing.T) {
	sys := counterSystem(3)
	res := Explore(sys.Rules, sys.Init, ExploreOptions{
		Trace:           true,
		StopAtViolation: true,
		Invariants: []Invariant{{
			Name: "never-two",
			Check: func(s Term) error {
				tp := s.(Tuple)
				if tp.At(0).(Bag).Len() >= 2 {
					return errors.New("reached two")
				}
				return nil
			},
		}},
	})
	if len(res.Violations) != 1 {
		t.Fatalf("want exactly one violation, got %d", len(res.Violations))
	}
	v := res.Violations[0]
	if len(v.Path) != 2 || v.Path[0] != "inc" || v.Path[1] != "inc" {
		t.Errorf("path = %v, want [inc inc]", v.Path)
	}
	if !strings.Contains(v.String(), "never-two") {
		t.Errorf("violation string: %s", v.String())
	}
}

func TestExploreStateLimit(t *testing.T) {
	// Unbounded growth system.
	grow := System{
		Name: "grow",
		Init: EmptySeq(),
		Rules: []Rule{{
			Name: "g",
			LHS:  V("s"),
			RHS: Compute("append", func(b Binding) Term {
				return b.Seq("s").Append(Atom("x"))
			}),
		}},
	}
	res := Explore(grow.Rules, grow.Init, ExploreOptions{MaxStates: 10})
	if !errors.Is(res.Err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", res.Err)
	}
	if res.States != 10 {
		t.Errorf("States = %d, want 10", res.States)
	}
}

func TestExploreTerminalStates(t *testing.T) {
	// One-shot system: a → b, b is stuck.
	sys := System{
		Name:  "oneshot",
		Init:  Atom("a"),
		Rules: []Rule{{Name: "ab", LHS: Lit(Atom("a")), RHS: Lit(Atom("b"))}},
	}
	res := Explore(sys.Rules, sys.Init, ExploreOptions{})
	if res.States != 2 || res.Terminal != 1 {
		t.Fatalf("States=%d Terminal=%d, want 2/1", res.States, res.Terminal)
	}
}

func TestExploreBuildErrorSurfaces(t *testing.T) {
	sys := System{
		Name:  "broken",
		Init:  Atom("a"),
		Rules: []Rule{{Name: "bad", LHS: V("x"), RHS: V("y")}},
	}
	res := Explore(sys.Rules, sys.Init, ExploreOptions{})
	if res.Err == nil || errors.Is(res.Err, ErrStateLimit) {
		t.Fatalf("want build error, got %v", res.Err)
	}
}

func TestExploreInitialStateChecked(t *testing.T) {
	sys := counterSystem(1)
	res := Explore(sys.Rules, sys.Init, ExploreOptions{
		Invariants: []Invariant{{
			Name:  "fail-at-init",
			Check: func(Term) error { return errors.New("nope") },
		}},
		StopAtViolation: true,
	})
	if len(res.Violations) != 1 {
		t.Fatal("initial state must be checked")
	}
	if len(res.Violations[0].Path) != 0 {
		t.Errorf("initial violation path should be empty, got %v", res.Violations[0].Path)
	}
}

// Refinement: the concrete counter with explicit c's refines an abstract
// integer counter under the abstraction "count the c's".
func TestCheckRefinementHolds(t *testing.T) {
	concrete := counterSystem(3)
	abstract := []Rule{
		{
			Name:  "inc",
			LHS:   Tup(V("k"), V("n")),
			Guard: func(b Binding) bool { return b.Int("k") < b.Int("n") },
			RHS: Tup(Compute("k+1", func(b Binding) Term {
				return b.Int("k") + 1
			}), V("n")),
		},
		{
			Name:  "dec",
			LHS:   Tup(V("k"), V("n")),
			Guard: func(b Binding) bool { return b.Int("k") > 0 },
			RHS: Tup(Compute("k-1", func(b Binding) Term {
				return b.Int("k") - 1
			}), V("n")),
		},
	}
	abs := func(s Term) Term {
		tp := s.(Tuple)
		return Pair(Int(tp.At(0).(Bag).Len()), tp.At(1))
	}
	if err := CheckRefinement(concrete.Rules, abstract, abs, concrete.Init, RefinementOptions{}); err != nil {
		t.Fatalf("refinement should hold: %v", err)
	}
}

func TestCheckRefinementDetectsBreakage(t *testing.T) {
	concrete := counterSystem(3)
	// Abstract system that can only increment: drop has no counterpart.
	abstract := []Rule{
		{
			Name:  "inc",
			LHS:   Tup(V("k"), V("n")),
			Guard: func(b Binding) bool { return b.Int("k") < b.Int("n") },
			RHS: Tup(Compute("k+1", func(b Binding) Term {
				return b.Int("k") + 1
			}), V("n")),
		},
	}
	abs := func(s Term) Term {
		tp := s.(Tuple)
		return Pair(Int(tp.At(0).(Bag).Len()), tp.At(1))
	}
	err := CheckRefinement(concrete.Rules, abstract, abs, concrete.Init, RefinementOptions{})
	var rerr *RefinementError
	if !errors.As(err, &rerr) {
		t.Fatalf("want RefinementError, got %v", err)
	}
	if rerr.Rule != "drop" {
		t.Errorf("offending rule = %s, want drop", rerr.Rule)
	}
	if !strings.Contains(rerr.Error(), "drop") {
		t.Errorf("error text: %s", rerr.Error())
	}
}

func TestCheckRefinementStateLimit(t *testing.T) {
	grow := []Rule{{
		Name: "g",
		LHS:  V("s"),
		RHS: Compute("append", func(b Binding) Term {
			return b.Seq("s").Append(Atom("x"))
		}),
	}}
	err := CheckRefinement(grow, grow, func(t Term) Term { return t }, EmptySeq(), RefinementOptions{MaxStates: 5})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v", err)
	}
}

// Multi-step refinement: a concrete rule that adds two c's at once maps to
// two abstract inc steps.
func TestCheckRefinementMultiStep(t *testing.T) {
	concrete := []Rule{{
		Name: "inc2",
		LHS:  Tup(V("B"), V("n")),
		Guard: func(b Binding) bool {
			return int64(b.Bag("B").Len())+2 <= int64(b.Int("n"))
		},
		RHS: Tup(Compute("B+cc", func(b Binding) Term {
			return b.Bag("B").Add(Atom("c")).Add(Atom("c"))
		}), V("n")),
	}}
	abstract := []Rule{{
		Name:  "inc",
		LHS:   Tup(V("k"), V("n")),
		Guard: func(b Binding) bool { return b.Int("k") < b.Int("n") },
		RHS: Tup(Compute("k+1", func(b Binding) Term {
			return b.Int("k") + 1
		}), V("n")),
	}}
	abs := func(s Term) Term {
		tp := s.(Tuple)
		return Pair(Int(tp.At(0).(Bag).Len()), tp.At(1))
	}
	init := Pair(EmptyBag(), Int(4))
	// One abstract step is not enough.
	if err := CheckRefinement(concrete, abstract, abs, init, RefinementOptions{MaxAbstractSteps: 1}); err == nil {
		t.Fatal("k=1 should fail for a two-step concrete rule")
	}
	// Two are.
	if err := CheckRefinement(concrete, abstract, abs, init, RefinementOptions{MaxAbstractSteps: 2}); err != nil {
		t.Fatalf("k=2 should succeed: %v", err)
	}
}

func TestCheckRefinementStutterAllowed(t *testing.T) {
	// Concrete makes internal moves invisible to the abstraction.
	concrete := []Rule{
		{Name: "flip", LHS: Tup(Lit(Atom("i0")), V("v")), RHS: Tup(Lit(Atom("i1")), V("v"))},
		{Name: "flop", LHS: Tup(Lit(Atom("i1")), V("v")), RHS: Tup(Lit(Atom("i0")), V("v"))},
	}
	abstract := []Rule{} // abstraction never moves
	abs := func(s Term) Term { return s.(Tuple).At(1) }
	init := Pair(Atom("i0"), Atom("v"))
	if err := CheckRefinement(concrete, abstract, abs, init, RefinementOptions{}); err != nil {
		t.Fatalf("stuttering must be allowed: %v", err)
	}
}
