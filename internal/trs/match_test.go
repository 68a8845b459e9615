package trs

import (
	"testing"
	"testing/quick"
)

func TestMatchVarBindsAnything(t *testing.T) {
	all := MatchAll(V("x"), NewBag(Atom("a")))
	if len(all) != 1 {
		t.Fatalf("var should match once, got %d", len(all))
	}
	if got := all[0].MustGet("x"); !Equal(got, NewBag(Atom("a"))) {
		t.Fatalf("bound %v", got)
	}
}

func TestMatchNonLinear(t *testing.T) {
	p := Tup(V("x"), V("x"))
	if !matches(p, Pair(Atom("a"), Atom("a"))) {
		t.Error("non-linear pattern should match equal elements")
	}
	if matches(p, Pair(Atom("a"), Atom("b"))) {
		t.Error("non-linear pattern must not match unequal elements")
	}
}

func TestMatchLiteralAndLabel(t *testing.T) {
	if !matches(Lit(Atom("τ")), Atom("τ")) {
		t.Error("atom literal should match itself")
	}
	if matches(Lit(Atom("τ")), Atom("φ")) {
		t.Error("atom literal must not match other atoms")
	}
	if matches(LTup("trap", V("x")), NewTuple("data", Atom("x"))) {
		t.Error("label mismatch must not match")
	}
	if !matches(Lit(Int(4)), Int(4)) || matches(Lit(Int(4)), Int(5)) {
		t.Error("int literal matching broken")
	}
}

func TestMatchTupleArity(t *testing.T) {
	if matches(Tup(V("a")), Pair(Atom("x"), Atom("y"))) {
		t.Error("arity mismatch must not match")
	}
}

func TestMatchBagPicksEachMember(t *testing.T) {
	bag := NewBag(Pair(Atom("p0"), Atom("d0")), Pair(Atom("p1"), Atom("d1")), Pair(Atom("p2"), Atom("d2")))
	p := BagOf("Q", Tup(V("x"), V("d")))
	all := MatchAll(p, bag)
	if len(all) != 3 {
		t.Fatalf("got %d matches, want 3", len(all))
	}
	seen := map[Atom]bool{}
	for _, b := range all {
		seen[b.MustGet("x").(Atom)] = true
		rest := b.Bag("Q")
		if rest.Len() != 2 {
			t.Errorf("rest should have 2 members, got %d", rest.Len())
		}
	}
	if len(seen) != 3 {
		t.Errorf("expected each member selected once, got %v", seen)
	}
}

func TestMatchBagTwoDistinguished(t *testing.T) {
	bag := NewBag(Atom("a"), Atom("b"))
	p := BagOf("R", V("x"), V("y"))
	all := MatchAll(p, bag)
	// (x=a,y=b) and (x=b,y=a).
	if len(all) != 2 {
		t.Fatalf("got %d matches, want 2", len(all))
	}
	for _, b := range all {
		if b.Bag("R").Len() != 0 {
			t.Error("rest should be empty")
		}
		if Equal(b.MustGet("x"), b.MustGet("y")) {
			t.Error("distinguished members must be distinct bag elements")
		}
	}
}

func TestMatchBagExact(t *testing.T) {
	p := BagOf("", V("x"))
	if matches(p, NewBag(Atom("a"), Atom("b"))) {
		t.Error("exact bag pattern must not match larger bag")
	}
	if !matches(p, NewBag(Atom("a"))) {
		t.Error("exact bag pattern should match singleton")
	}
	if matches(BagOf("R", V("x")), EmptyBag()) {
		t.Error("cannot pick a member from empty bag")
	}
}

func TestMatchComputeNeverMatches(t *testing.T) {
	p := Compute("k", func(Binding) Term { return Atom("x") })
	if matches(p, Atom("x")) {
		t.Error("PCompute must not match")
	}
}

func TestMatchEarlyStop(t *testing.T) {
	bag := NewBag(Atom("a"), Atom("b"), Atom("c"))
	count := 0
	Match(BagOf("R", V("x")), bag, EmptyBinding(), func(Binding) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("enumeration did not stop early: %d", count)
	}
}

// matches reports whether p matches t under at least one binding.
func matches(p Pattern, t Term) bool { return len(MatchAll(p, t)) > 0 }

// termToPattern converts a ground term into a literal-equivalent pattern.
func termToPattern(t Term) Pattern {
	switch x := t.(type) {
	case Tuple:
		elems := make([]Pattern, x.Len())
		for i := range elems {
			elems[i] = termToPattern(x.At(i))
		}
		return PTuple{Label: x.Label(), Elems: elems}
	case Bag:
		elems := make([]Pattern, x.Len())
		for i := range elems {
			elems[i] = termToPattern(x.At(i))
		}
		return PBag{Elems: elems}
	default:
		return PLit{Value: t}
	}
}

func TestQuickTermMatchesItsOwnPattern(t *testing.T) {
	f := func(g termGen) bool {
		return matches(termToPattern(g.T), g.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickVarMatchRoundTripsThroughBuild(t *testing.T) {
	f := func(g termGen) bool {
		all := MatchAll(V("x"), g.T)
		if len(all) != 1 {
			return false
		}
		built, err := Build(V("x"), all[0])
		return err == nil && Equal(built, g.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickBagMatchSoundness: for every match of BagOf(rest, elem) the
// selected element plus the rest reassembles the original bag.
func TestQuickBagMatchSoundness(t *testing.T) {
	f := func(g1, g2, g3 termGen) bool {
		bag := NewBag(g1.T, g2.T, g3.T)
		for _, b := range MatchAll(BagOf("R", V("e")), bag) {
			e := b.MustGet("e")
			rest := b.Bag("R")
			if !Equal(rest.Add(e), bag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(V("missing"), EmptyBinding()); err == nil {
		t.Error("unbound var must error")
	}
	if _, err := Build(BagOf("R"), EmptyBinding()); err == nil {
		t.Error("unbound bag rest must error")
	}
	b := EmptyBinding().Bind("R", Atom("notabag"))
	if _, err := Build(BagOf("R"), b); err == nil {
		t.Error("non-bag rest must error")
	}
	if _, err := Build(Compute("nil", func(Binding) Term { return nil }), EmptyBinding()); err == nil {
		t.Error("nil compute must error")
	}
}

func TestBuildBagWithRest(t *testing.T) {
	b := EmptyBinding().
		Bind("Q", NewBag(Atom("a"))).
		Bind("x", Atom("b"))
	built, err := Build(BagOf("Q", V("x")), b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(built, NewBag(Atom("a"), Atom("b"))) {
		t.Fatalf("built %s", built)
	}
}

func TestBindingHelpers(t *testing.T) {
	b := EmptyBinding().
		Bind("s", NewSeq(Atom("e"))).
		Bind("g", NewBag(Atom("e"))).
		Bind("i", Int(3)).
		Bind("a", Atom("z"))
	if b.Seq("s").Len() != 1 || b.Bag("g").Len() != 1 || b.Int("i") != 3 || !Equal(b.MustGet("a"), Atom("z")) {
		t.Error("typed getters broken")
	}
	// Wrong-type and missing lookups return zero values.
	if b.Seq("i").Len() != 0 || b.Bag("a").Len() != 0 || b.Int("s") != 0 || b.MustGet("nope") != nil {
		t.Error("zero-value fallbacks broken")
	}
	if b.Seq("nope").Len() != 0 {
		t.Error("missing seq should be empty")
	}
	// Shadowing.
	b2 := b.Bind("i", Int(9))
	if b2.Int("i") != 9 || b.Int("i") != 3 {
		t.Error("persistent shadowing broken")
	}
	if len(b2.Map()) != 4 {
		t.Errorf("Map size = %d", len(b2.Map()))
	}
}
