package spec

import (
	"strings"
	"testing"

	"adaptivetoken/internal/trs"
)

// TestExploreAllSmall verifies every safety invariant of every system
// exhaustively on the N=2 instance (runs in milliseconds).
func TestExploreAllSmall(t *testing.T) {
	p := Params{N: 2, MaxBroadcasts: 1, MaxPending: 1, MaxPasses: 2}
	res, err := ExploreAll(p, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range res {
		if r.States < 2 {
			t.Errorf("%s explored only %d states", name, r.States)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: %s", name, r.Violations[0].String())
		}
	}
	if len(res) != 6 {
		t.Errorf("explored %d systems, want 6", len(res))
	}
	// The free-destination Figure 6 system is verified separately at its
	// own bounds (its gimmes wander freely, so the space grows fast).
	free := SearchFreeCheck(p)
	fres := trs.Explore(free.System.Rules, free.System.Init, trs.ExploreOptions{
		MaxStates:  500_000,
		Invariants: free.Invariants,
	})
	if fres.Err != nil || len(fres.Violations) > 0 {
		t.Errorf("SearchFree: err=%v violations=%d", fres.Err, len(fres.Violations))
	}
	if fres.States < 100 {
		t.Errorf("SearchFree explored only %d states", fres.States)
	}
}

// TestExploreAllN3 is the paper-scale exhaustive check: all six systems at
// N=3 with two broadcasts and three rotations. ~50k states for the search
// systems.
func TestExploreAllN3(t *testing.T) {
	if testing.Short() {
		t.Skip("N=3 exploration takes ~20s")
	}
	p := Params{N: 3, MaxBroadcasts: 2, MaxPending: 1, MaxPasses: 3}
	res, err := ExploreAll(p, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// The search systems must have substantial state spaces, otherwise
	// the bounds are strangling the model.
	if res["BinarySearch"].States < 10_000 {
		t.Errorf("BinarySearch explored only %d states", res["BinarySearch"].States)
	}
}

// TestExploreN4Centralized deepens the exhaustive check for the smaller
// systems: S, S1, Token and ring Message-Passing at N=4 with two
// broadcasts.
func TestExploreN4Centralized(t *testing.T) {
	if testing.Short() {
		t.Skip("N=4 exploration is slow")
	}
	p := Params{N: 4, MaxBroadcasts: 2, MaxPending: 1, MaxPasses: 4}
	for _, sc := range AllSystems(p) {
		switch sc.System.Name {
		case "Search", "BinarySearch":
			continue // state spaces explode past the time budget at N=4
		}
		res := trs.Explore(sc.System.Rules, sc.System.Init, trs.ExploreOptions{
			MaxStates:  5_000_000,
			Invariants: sc.Invariants,
		})
		if res.Err != nil {
			t.Errorf("%s: %v", sc.System.Name, res.Err)
		}
		if len(res.Violations) > 0 {
			t.Errorf("%s: %s", sc.System.Name, res.Violations[0].String())
		}
		t.Logf("%s: %d states, %d transitions", sc.System.Name, res.States, res.Transitions)
	}
}

// TestRefinementChain verifies the paper's Lemmas 1–3 and Theorem 1 on the
// bounded N=2 instance: every system forward-simulates S1 (and S1
// simulates S).
func TestRefinementChain(t *testing.T) {
	p := Params{N: 2, MaxBroadcasts: 1, MaxPending: 1, MaxPasses: 2}
	if err := CheckRefinements(Chain(p), 500_000, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRefinementChainN3Ring checks the tractable links at N=3.
func TestRefinementChainN3Ring(t *testing.T) {
	if testing.Short() {
		t.Skip("N=3 refinement is slow")
	}
	p := Params{N: 3, MaxBroadcasts: 2, MaxPending: 1, MaxPasses: 3}
	for _, link := range Chain(p) {
		switch link.Name {
		case "Search⊑S1", "SearchFree⊑S1", "BinarySearch⊑S1":
			continue // huge concrete spaces × abstract BFS: too slow here
		}
		err := trs.CheckRefinement(
			link.Concrete.Rules, link.Abstract.Rules, link.Abs, link.Concrete.Init,
			trs.RefinementOptions{MaxAbstractSteps: link.MaxAbstractSteps})
		if err != nil {
			t.Errorf("%s: %v", link.Name, err)
		}
	}
}

// TestRefinementDetectsUnsafeVariant plants a bug — BinarySearch's rule 8
// "forgets" to return the token to the sender and keeps it instead — and
// checks that the verification machinery notices the divergence. The bug
// duplicates the token: the sender x still expects it back while y also
// holds it.
func TestTokenUniquenessDetectsDuplicatedToken(t *testing.T) {
	p := Params{N: 2, MaxBroadcasts: 1, MaxPending: 1, MaxPasses: 2}
	sys := NewSystemBinarySearch(p)
	// Replace rule 8 with a buggy version that sets T=x and sends
	// nothing back — plus it also leaves a forged token message behind.
	var rules []trs.Rule
	for _, r := range sys.Rules {
		if r.Name != "8" {
			rules = append(rules, r)
			continue
		}
		bug := r
		bug.RHS = trs.LTup(labelBin,
			trs.BagOf("Q", pairPat("x", "dx")),
			trs.BagOf("P", pairPat("px", "hx")),
			trs.V("x"), // usurp the token instead of returning it
			trs.V("I"),
			trs.Compute("forged", func(b trs.Binding) trs.Term {
				return b.Bag("O").Add(outEntry(b.MustGet("x"), b.MustGet("y"), tokenMsg(b.Seq("H"))))
			}),
			trs.V("W"),
		)
		rules = append(rules, bug)
	}
	res := trs.Explore(rules, sys.Init, trs.ExploreOptions{
		MaxStates:       500_000,
		Invariants:      []trs.Invariant{TokenUniquenessInvariant(labelBin)},
		StopAtViolation: true,
		Trace:           true,
	})
	if len(res.Violations) == 0 {
		t.Fatal("duplicated token must violate token-uniqueness")
	}
	if !strings.Contains(res.Violations[0].Err.Error(), "token") {
		t.Errorf("unexpected violation: %v", res.Violations[0].Err)
	}
}

// TestChainInvariantDetectsForgedHistory corrupts a local history so it
// diverges from the global order and checks the chain invariant fires.
func TestChainInvariantDetectsForgedHistory(t *testing.T) {
	p := Params{N: 2, MaxBroadcasts: 1, MaxPending: 1, MaxPasses: 2}
	forged := trs.NewTuple(labelBin,
		initQ(p.N),
		trs.NewBag(
			trs.Pair(node(0), trs.NewSeq(dataEvent(0))),
			trs.Pair(node(1), trs.NewSeq(dataEvent(1))), // diverges
		),
		node(0), trs.EmptyBag(), trs.EmptyBag(), trs.EmptyBag())
	if err := ChainInvariant(labelBin).Check(forged); err == nil {
		t.Fatal("diverging local histories must violate the chain invariant")
	}
}

// TestRefinementDetectsSkippedBroadcast plants a bug in S1 — rule 2 clears
// a request without appending it to H — and checks CheckRefinement against
// S reports it.
func TestRefinementDetectsSkippedBroadcast(t *testing.T) {
	p := Params{N: 2, MaxBroadcasts: 1, MaxPending: 1, MaxPasses: 2}
	s := NewSystemS(p)
	s1 := NewSystemS1(p)
	var rules []trs.Rule
	for _, r := range s1.Rules {
		if r.Name != "2" {
			rules = append(rules, r)
			continue
		}
		bug := r
		bug.RHS = trs.LTup(labelS1,
			restPlusReset("Q", "x"),
			trs.V("H"), // drops the data on the floor
			trs.V("P"),
		)
		rules = append(rules, bug)
	}
	err := trs.CheckRefinement(rules, s.Rules, AbsS1ToS, s1.Init,
		trs.RefinementOptions{MaxAbstractSteps: 1})
	var rerr *trs.RefinementError
	if err == nil {
		t.Fatal("lost broadcast must break the refinement")
	}
	if !strings.Contains(err.Error(), "refinement broken") {
		t.Errorf("unexpected error: %v", err)
	}
	_ = rerr
}

// TestInvariantFieldErrors exercises the invariant plumbing on malformed
// states.
func TestInvariantFieldErrors(t *testing.T) {
	bad := trs.Atom("not-a-state")
	if err := PrefixInvariant(labelS1).Check(bad); err == nil {
		t.Error("prefix invariant must reject malformed state")
	}
	if err := ChainInvariant(labelBin).Check(bad); err == nil {
		t.Error("chain invariant must reject malformed state")
	}
	if err := TokenUniquenessInvariant(labelBin).Check(bad); err == nil {
		t.Error("uniqueness invariant must reject malformed state")
	}
	if err := QCompleteInvariant(labelS, 2).Check(bad); err == nil {
		t.Error("q-complete invariant must reject malformed state")
	}
	// Wrong field kinds.
	weird := trs.NewTuple(labelS1, trs.Int(1), trs.Int(2), trs.Int(3))
	if err := PrefixInvariant(labelS1).Check(weird); err == nil {
		t.Error("prefix invariant must reject non-seq H")
	}
}

func TestExploreAllRejectsBadParams(t *testing.T) {
	if _, err := ExploreAll(Params{N: 1}, 0); err == nil {
		t.Error("bad params must be rejected")
	}
}
