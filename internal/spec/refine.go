package spec

import (
	"fmt"

	"adaptivetoken/internal/trs"
)

// Abstraction functions realizing the paper's safety proofs: every refined
// system maps onto System S1 (whose prefix property is immediate), and S1
// maps onto S. CheckRefinements verifies the induced forward simulations
// exhaustively on a bounded instance.

// AbsS1ToS erases the local histories P (the paper's Lemma 1 mapping:
// "The mapping is trivial, just ignore the values of P").
func AbsS1ToS(state trs.Term) trs.Term {
	tp := state.(trs.Tuple)
	return trs.NewTuple(labelS, tp.At(0), tp.At(1))
}

// AbsTokenToS1 erases the token variable T (Lemma 2: Token's behaviors are
// a subset of S1's, modulo rule 2 being S1's rules 2 and 3 combined).
func AbsTokenToS1(state trs.Term) trs.Term {
	tp := state.(trs.Tuple)
	return trs.NewTuple(labelS1, tp.At(0), tp.At(1), tp.At(2))
}

// AbsDistToS1 maps a distributed state (Q, P, T, I, O[, W]) onto S1
// (Lemma 3's drained-state idea made into a function): the global history
// is the maximal history present anywhere in the state, local histories are
// kept, and the message machinery is erased. Circulation events — which S1
// does not know about — are stripped.
func AbsDistToS1(label string) func(trs.Term) trs.Term {
	return func(state trs.Term) trs.Term {
		tp := state.(trs.Tuple)
		q := tp.At(0).(trs.Bag)
		p := tp.At(1).(trs.Bag)
		in := tp.At(3).(trs.Bag)
		out := tp.At(4).(trs.Bag)

		hMax := stripCirc(longestSeq(distributedHistories(p, in, out)))

		stripped := make([]trs.Term, 0, p.Len())
		for i := 0; i < p.Len(); i++ {
			pair := p.At(i).(trs.Tuple)
			stripped = append(stripped, trs.Pair(pair.At(0), stripCirc(pair.At(1).(trs.Seq))))
		}
		return trs.NewTuple(labelS1, q, hMax, trs.NewBag(stripped...))
	}
}

// RefinementCheck names one link of the refinement chain.
type RefinementCheck struct {
	Name     string
	Concrete trs.System
	Abstract trs.System
	Abs      func(trs.Term) trs.Term
	// MaxAbstractSteps for this link (combined rules need 2).
	MaxAbstractSteps int
}

// Chain returns the full refinement chain for the given parameters:
//
//	S1 ⊑ S,   Token ⊑ S1,   MP ⊑ S1,   MP-ring ⊑ S1,
//	Search ⊑ S1,   BinarySearch ⊑ S1.
func Chain(p Params) []RefinementCheck {
	s := NewSystemS(p)
	s1 := NewSystemS1(p)
	return []RefinementCheck{
		{Name: "S1⊑S", Concrete: s1, Abstract: s, Abs: AbsS1ToS, MaxAbstractSteps: 1},
		{Name: "Token⊑S1", Concrete: NewSystemToken(p), Abstract: s1, Abs: AbsTokenToS1, MaxAbstractSteps: 2},
		{Name: "MP⊑S1", Concrete: NewSystemMP(p, false), Abstract: s1, Abs: AbsDistToS1(labelMP), MaxAbstractSteps: 2},
		{Name: "MPring⊑S1", Concrete: NewSystemMP(p, true), Abstract: s1, Abs: AbsDistToS1(labelMP), MaxAbstractSteps: 2},
		{Name: "Search⊑S1", Concrete: NewSystemSearch(p), Abstract: s1, Abs: AbsDistToS1(labelSrch), MaxAbstractSteps: 2},
		{Name: "SearchFree⊑S1", Concrete: NewSystemSearchFree(p), Abstract: s1, Abs: AbsDistToS1(labelSrch), MaxAbstractSteps: 2},
		{Name: "BinarySearch⊑S1", Concrete: NewSystemBinarySearch(p), Abstract: s1, Abs: AbsDistToS1(labelBin), MaxAbstractSteps: 2},
	}
}

// CheckRefinements verifies each link in order (Chain or LossyChain), calling
// passed, when non-nil, after every link that holds. It stops at the first
// link that fails. maxStates bounds each concrete exploration (0 = engine
// default).
func CheckRefinements(links []RefinementCheck, maxStates int, passed func(RefinementCheck)) error {
	for _, link := range links {
		err := trs.CheckRefinement(
			link.Concrete.Rules, link.Abstract.Rules, link.Abs, link.Concrete.Init,
			trs.RefinementOptions{MaxStates: maxStates, MaxAbstractSteps: link.MaxAbstractSteps})
		if err != nil {
			return fmt.Errorf("%s: %w", link.Name, err)
		}
		if passed != nil {
			passed(link)
		}
	}
	return nil
}

// SystemCheck bundles a system with the invariants the paper claims for it.
type SystemCheck struct {
	System     trs.System
	Invariants []trs.Invariant
}

// AllSystems returns every system with its safety invariants, ready for
// exhaustive exploration. The fully nondeterministic SearchFree system is
// not listed: its unbounded message wandering makes the N=3 default
// instance explode; SearchFreeCheck verifies it at its own bounds.
func AllSystems(p Params) []SystemCheck {
	return []SystemCheck{
		{
			System:     NewSystemS(p),
			Invariants: []trs.Invariant{QCompleteInvariant(labelS, p.N)},
		},
		{
			System: NewSystemS1(p),
			Invariants: []trs.Invariant{
				PrefixInvariant(labelS1), QCompleteInvariant(labelS1, p.N)},
		},
		{
			System: NewSystemToken(p),
			Invariants: []trs.Invariant{
				PrefixInvariant(labelTok), QCompleteInvariant(labelTok, p.N)},
		},
		{
			System: NewSystemMP(p, true),
			Invariants: []trs.Invariant{
				ChainInvariant(labelMP),
				TokenUniquenessInvariant(labelMP),
				QCompleteInvariant(labelMP, p.N)},
		},
		{
			System: NewSystemSearch(p),
			Invariants: []trs.Invariant{
				ChainInvariant(labelSrch),
				TokenUniquenessInvariant(labelSrch),
				QCompleteInvariant(labelSrch, p.N)},
		},
		{
			System: NewSystemBinarySearch(p),
			Invariants: []trs.Invariant{
				ChainInvariant(labelBin),
				TokenUniquenessInvariant(labelBin),
				QCompleteInvariant(labelBin, p.N)},
		},
	}
}

// SearchFreeCheck bundles the Figure 6 free-destination Search system with
// its invariants; explore it at N=2 (its state space grows much faster
// than the ring-restricted systems because gimme messages wander freely
// and never expire).
func SearchFreeCheck(p Params) SystemCheck {
	return SystemCheck{
		System: NewSystemSearchFree(p),
		Invariants: []trs.Invariant{
			ChainInvariant(labelSrch),
			TokenUniquenessInvariant(labelSrch),
			QCompleteInvariant(labelSrch, p.N)},
	}
}

// ExploreAll explores every system exhaustively, checking its invariants.
// It returns per-system results keyed by system name.
func ExploreAll(p Params, maxStates int) (map[string]*trs.ExploreResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make(map[string]*trs.ExploreResult)
	for _, sc := range AllSystems(p) {
		res := trs.Explore(sc.System.Rules, sc.System.Init, trs.ExploreOptions{
			MaxStates:  maxStates,
			Invariants: sc.Invariants,
			Trace:      true,
		})
		out[sc.System.Name] = res
		if res.Err != nil {
			return out, fmt.Errorf("%s: %w", sc.System.Name, res.Err)
		}
		if len(res.Violations) > 0 {
			return out, fmt.Errorf("%s: %s", sc.System.Name, res.Violations[0].String())
		}
	}
	return out, nil
}
