package trs

import (
	"testing"
	"testing/quick"
)

// Property tests tying the engine's pieces together: rule application must
// produce well-formed terms, matching must be sound (substituting the
// binding into the LHS reproduces the matched term), and exploration must
// be deterministic.

// wellFormed walks a term checking structural sanity: bags canonically
// sorted, no nil children.
func wellFormed(t Term) bool {
	switch x := t.(type) {
	case Atom, Int:
		return true
	case Tuple:
		for i := 0; i < x.Len(); i++ {
			if x.At(i) == nil || !wellFormed(x.At(i)) {
				return false
			}
		}
		return true
	case Bag:
		for i := 0; i < x.Len(); i++ {
			if x.At(i) == nil || !wellFormed(x.At(i)) {
				return false
			}
			if i > 0 && Compare(x.At(i-1), x.At(i)) > 0 {
				return false // canonical order violated
			}
		}
		return true
	case Seq:
		for i := 0; i < x.Len(); i++ {
			if x.At(i) == nil || !wellFormed(x.At(i)) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// TestQuickMatchSoundness: whenever a pure pattern (no computes) matches a
// term, building the LHS under the binding reproduces the term exactly.
func TestQuickMatchSoundness(t *testing.T) {
	f := func(g1, g2, g3 termGen) bool {
		bag := NewBag(g1.T, g2.T, g3.T)
		pat := BagOf("R", V("a"), V("b"))
		for _, b := range MatchAll(pat, bag) {
			rebuilt, err := Build(pat, b)
			if err != nil || !Equal(rebuilt, bag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickApplicationsWellFormed: every successor produced by the counter
// system's rules is a well-formed term.
func TestQuickApplicationsWellFormed(t *testing.T) {
	sys := counterSystem(4)
	f := func(path []uint8) bool {
		state := sys.Init
		for _, choice := range path {
			apps, err := Applications(sys.Rules, state)
			if err != nil {
				return false
			}
			if len(apps) == 0 {
				break
			}
			state = apps[int(choice)%len(apps)].Next
			if !wellFormed(state) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickBuildWellFormed: building random ground terms through the
// template path yields well-formed results.
func TestQuickBuildWellFormed(t *testing.T) {
	f := func(g termGen) bool {
		built, err := Build(termToPattern(g.T), EmptyBinding())
		return err == nil && Equal(built, g.T) && wellFormed(built)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestExploreDeterministic: exploring the same system twice gives identical
// statistics.
func TestExploreDeterministic(t *testing.T) {
	sys := counterSystem(5)
	a := Explore(sys.Rules, sys.Init, ExploreOptions{})
	b := Explore(sys.Rules, sys.Init, ExploreOptions{})
	if a.States != b.States || a.Transitions != b.Transitions || a.Depth != b.Depth {
		t.Fatalf("nondeterministic exploration: %+v vs %+v", a, b)
	}
}

// TestQuickReduceStaysInExploredSpace: every state reached by a random
// reduction is one BFS exploration would also reach.
func TestQuickReduceStaysInExploredSpace(t *testing.T) {
	sys := counterSystem(3)
	res := Explore(sys.Rules, sys.Init, ExploreOptions{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	visited := map[string]bool{Key(sys.Init): true}
	// Re-explore collecting keys (Explore doesn't expose them).
	frontier := []Term{sys.Init}
	for len(frontier) > 0 {
		var next []Term
		for _, s := range frontier {
			apps, err := Applications(sys.Rules, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range apps {
				k := Key(a.Next)
				if !visited[k] {
					visited[k] = true
					next = append(next, a.Next)
				}
			}
		}
		frontier = next
	}
	if len(visited) != res.States {
		t.Fatalf("state recount mismatch: %d vs %d", len(visited), res.States)
	}
	f := func(seed uint64) bool {
		steps, final, err := Reduce(sys.Rules, sys.Init, NewRandomStrategy(seed), 20)
		if err != nil {
			return false
		}
		for _, st := range steps {
			if !visited[Key(st.State)] {
				return false
			}
		}
		return visited[Key(final)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
