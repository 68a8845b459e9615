package spec

import (
	"errors"
	"testing"

	"adaptivetoken/internal/trs"
)

func lossyTestParams() (Params, LossyBounds) {
	return Params{N: 2, MaxBroadcasts: 1, MaxPending: 1, MaxPasses: 2},
		LossyBounds{MaxOutstanding: 1, MaxSearchMsgs: 2}
}

func lossyInvariants(label string, n int) []trs.Invariant {
	return []trs.Invariant{
		ChainInvariant(label),
		TokenUniquenessInvariant(label),
		QCompleteInvariant(label, n),
	}
}

// The lossy systems keep every safety invariant of their fault-free
// counterparts: losing or duplicating gimmes, and re-searching without the
// one-outstanding throttle, never endangers the chain property or token
// uniqueness (§4.4). N=2 is exhaustively explored.
func TestLossySystemsInvariants(t *testing.T) {
	p, lb := lossyTestParams()
	for _, sys := range []trs.System{
		NewSystemSearchLossy(p, lb),
		NewSystemBinarySearchLossy(p, lb),
	} {
		label := labelSrch
		if sys.Name == "BinarySearchLossy" {
			label = labelBin
		}
		res := trs.Explore(sys.Rules, sys.Init, trs.ExploreOptions{
			MaxStates:  500_000,
			Invariants: lossyInvariants(label, p.N),
			Trace:      true,
		})
		if res.Err != nil {
			t.Fatalf("%s: %v", sys.Name, res.Err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("%s: %s", sys.Name, res.Violations[0].String())
		}
		if res.States < 100 {
			t.Fatalf("%s: suspiciously small exploration (%d states)", sys.Name, res.States)
		}
		t.Logf("%s: %d states, depth %d", sys.Name, res.States, res.Depth)
	}
}

// A bounded frontier sweep of the N=3 instances (the lossy N=3 space is far
// too large to exhaust: rule D multiplies gimme placements). Invariants are
// checked on every visited state; hitting the state cap is expected and
// fine — a violation within the bound would still fail the test.
func TestLossySystemsInvariantsN3Bounded(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded N=3 lossy sweep takes ~30s")
	}
	p := Params{N: 3, MaxBroadcasts: 1, MaxPending: 1, MaxPasses: 2}
	lb := LossyBounds{MaxOutstanding: 1, MaxSearchMsgs: 2}
	for _, sys := range []trs.System{
		NewSystemSearchLossy(p, lb),
		NewSystemBinarySearchLossy(p, lb),
	} {
		label := labelSrch
		if sys.Name == "BinarySearchLossy" {
			label = labelBin
		}
		res := trs.Explore(sys.Rules, sys.Init, trs.ExploreOptions{
			MaxStates:  30_000,
			Invariants: lossyInvariants(label, p.N),
		})
		if res.Err != nil && !errors.Is(res.Err, trs.ErrStateLimit) {
			t.Fatalf("%s: %v", sys.Name, res.Err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("%s: %s", sys.Name, res.Violations[0].String())
		}
		t.Logf("%s: %d states visited (cap ok: %v)", sys.Name, res.States, res.Err)
	}
}

// Both lossy systems refine S1 under the same abstraction as the fault-free
// systems: rules 5r, L and D are stutters, so the paper's safety argument
// extends to the faulty executions the torture harness generates.
func TestLossyChainRefinesS1(t *testing.T) {
	p, lb := lossyTestParams()
	if err := CheckRefinements(LossyChain(p, lb), 500_000, nil); err != nil {
		t.Fatal(err)
	}
}

// A lossy system with the loss rule replaced by a token-loss rule would NOT
// refine S1 — spot-check the guardrail: dropping a token-bearing message
// breaks token uniqueness immediately.
func TestTokenLossBreaksUniqueness(t *testing.T) {
	p, lb := lossyTestParams()
	sys := NewSystemSearchLossy(p, lb)
	// Replace rule L with an unsafe variant that drops tok messages.
	rules := make([]trs.Rule, len(sys.Rules))
	copy(rules, sys.Rules)
	for i, r := range rules {
		if r.Name == "L" {
			rules[i] = trs.Rule{
				Name: "L!",
				LHS: trs.LTup(labelSrch,
					trs.V("Q"), trs.V("P"), trs.V("t"),
					trs.BagOf("I", trs.Tup(trs.V("rx"), trs.Tup(trs.V("y"), trs.LTup(labelToken, trs.V("H"))))),
					trs.V("O"), trs.V("W"),
				),
				RHS: trs.LTup(labelSrch,
					trs.V("Q"), trs.V("P"), trs.V("t"), trs.V("I"), trs.V("O"), trs.V("W"),
				),
			}
		}
	}
	res := trs.Explore(rules, sys.Init, trs.ExploreOptions{
		MaxStates:       500_000,
		Invariants:      []trs.Invariant{TokenUniquenessInvariant(labelSrch)},
		StopAtViolation: true,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("token loss went undetected: uniqueness invariant should fire")
	}
}

// Shapes projects in-flight messages the way the conformance checker relies
// on: kind, endpoints, circulation counts, gimme windows and requesters.
func TestShapesProjection(t *testing.T) {
	h := trs.EmptySeq().Append(dataEvent(0)).Append(circEvent(0)).Append(circEvent(1))
	hz := trs.EmptySeq().Append(circEvent(2))
	state := trs.NewTuple(labelBin,
		initQ(3), initP(3), bottom,
		trs.NewBag(
			trs.Pair(trs.Int(1), trs.Pair(trs.Int(0), tokenMsg(h))),
			trs.Pair(trs.Int(2), trs.Pair(trs.Int(0), searchMsg(2, hz, trs.Int(0)))),
		),
		trs.NewBag(),
		trs.EmptyBag(),
	)
	shapes, err := Shapes(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 2 {
		t.Fatalf("got %d shapes, want 2", len(shapes))
	}
	var tok, srch *MsgShape
	for i := range shapes {
		switch shapes[i].Kind {
		case ShapeToken:
			tok = &shapes[i]
		case ShapeSearch:
			srch = &shapes[i]
		}
	}
	if tok == nil || srch == nil {
		t.Fatalf("missing kinds in %v", shapes)
	}
	if tok.To != 1 || tok.From != 0 || tok.Circ != 2 || tok.Requester != -1 {
		t.Fatalf("bad token shape %+v", *tok)
	}
	if srch.To != 2 || srch.From != 0 || srch.Circ != 1 || srch.Window != 2 || srch.Requester != 0 {
		t.Fatalf("bad gimme shape %+v", *srch)
	}
	if got := CircCount(h); got != 2 {
		t.Fatalf("CircCount = %d, want 2", got)
	}
}
