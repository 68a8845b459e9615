package trs_test

import (
	"fmt"

	"adaptivetoken/internal/trs"
)

// ExampleMatchAll shows the paper's "Q | (x, d_x)" idiom: matching one
// distinguished member of a multiset and binding the rest.
func ExampleMatchAll() {
	q := trs.NewBag(
		trs.Pair(trs.Int(0), trs.Atom("φ")),
		trs.Pair(trs.Int(1), trs.Atom("d")),
	)
	pat := trs.BagOf("Q", trs.Tup(trs.V("x"), trs.Lit(trs.Atom("d"))))
	for _, b := range trs.MatchAll(pat, q) {
		fmt.Println("ready node:", b.MustGet("x"))
	}
	// Output:
	// ready node: 1
}

// ExampleExplore explores a two-rule toy system exhaustively and checks an
// invariant at every reachable state.
func ExampleExplore() {
	rules := []trs.Rule{
		{
			Name:  "inc",
			LHS:   trs.V("k"),
			Guard: func(b trs.Binding) bool { return b.Int("k") < 3 },
			RHS: trs.Compute("k+1", func(b trs.Binding) trs.Term {
				return b.Int("k") + 1
			}),
		},
	}
	res := trs.Explore(rules, trs.Int(0), trs.ExploreOptions{
		Invariants: []trs.Invariant{{
			Name: "bounded",
			Check: func(t trs.Term) error {
				if v, ok := t.(trs.Int); ok && v > 3 {
					return fmt.Errorf("counter escaped: %d", v)
				}
				return nil
			},
		}},
	})
	fmt.Printf("states=%d violations=%d\n", res.States, len(res.Violations))
	// Output:
	// states=4 violations=0
}

// ExampleReduce runs a seeded random reduction; each state here enables one
// rule, so every seed takes the same path.
func ExampleReduce() {
	rules := []trs.Rule{
		{Name: "a→b", LHS: trs.Lit(trs.Atom("a")), RHS: trs.Lit(trs.Atom("b"))},
		{Name: "b→c", LHS: trs.Lit(trs.Atom("b")), RHS: trs.Lit(trs.Atom("c"))},
	}
	steps, final, _ := trs.Reduce(rules, trs.Atom("a"), trs.NewRandomStrategy(1), 10)
	for _, s := range steps {
		fmt.Printf("%s ⇒ %s\n", s.Rule, s.State)
	}
	fmt.Println("final:", final)
	// Output:
	// a→b ⇒ b
	// b→c ⇒ c
	// final: c
}
