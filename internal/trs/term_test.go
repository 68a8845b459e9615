package trs

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// randomTerm builds a random term of bounded depth for property tests.
func randomTerm(r *rand.Rand, depth int) Term {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return Atom(string(rune('a' + r.Intn(6))))
		}
		return Int(r.Intn(10))
	}
	switch r.Intn(5) {
	case 0:
		return Atom(string(rune('a' + r.Intn(6))))
	case 1:
		return Int(r.Intn(10))
	case 2:
		n := r.Intn(3)
		elems := make([]Term, n)
		for i := range elems {
			elems[i] = randomTerm(r, depth-1)
		}
		return NewTuple("", elems...)
	case 3:
		n := r.Intn(4)
		elems := make([]Term, n)
		for i := range elems {
			elems[i] = randomTerm(r, depth-1)
		}
		return NewBag(elems...)
	default:
		n := r.Intn(4)
		elems := make([]Term, n)
		for i := range elems {
			elems[i] = randomTerm(r, depth-1)
		}
		return NewSeq(elems...)
	}
}

// termGen adapts randomTerm for testing/quick.
type termGen struct{ T Term }

// Generate implements quick.Generator.
func (termGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(termGen{T: randomTerm(r, 3)})
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindAtom:  "atom",
		KindInt:   "int",
		KindTuple: "tuple",
		KindBag:   "bag",
		KindSeq:   "seq",
		Kind(99):  "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestBagCanonicalOrder(t *testing.T) {
	b1 := NewBag(Atom("z"), Atom("a"), Int(3))
	b2 := NewBag(Int(3), Atom("a"), Atom("z"))
	if !Equal(b1, b2) {
		t.Fatalf("bags with same multiset not equal: %s vs %s", b1, b2)
	}
	if Key(b1) != Key(b2) {
		t.Fatalf("keys differ: %q vs %q", Key(b1), Key(b2))
	}
}

func TestBagIsMultiset(t *testing.T) {
	b1 := NewBag(Atom("a"), Atom("a"))
	b2 := NewBag(Atom("a"))
	if Equal(b1, b2) {
		t.Fatal("multiplicity must matter")
	}
	if b1.Len() != 2 {
		t.Fatalf("Len = %d, want 2", b1.Len())
	}
}

func TestBagAdd(t *testing.T) {
	b := EmptyBag().Add(Atom("b")).Add(Atom("a"))
	if b.Len() != 2 || b.At(0) != Atom("a") {
		t.Fatalf("Add/canonical order broken: %s", b)
	}
	u := b.Add(Int(1))
	if u.Len() != 3 {
		t.Fatalf("Add len = %d, want 3", u.Len())
	}
	// Original is untouched (immutability).
	if b.Len() != 2 {
		t.Fatal("bags must be immutable")
	}
}

func TestSeqAppendAndPrefix(t *testing.T) {
	s := EmptySeq().Append(Atom("a")).Append(Atom("b"))
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	p := NewSeq(Atom("a"))
	if !p.IsPrefixOf(s) {
		t.Error("⟨a⟩ should be a prefix of ⟨a,b⟩")
	}
	if !s.IsPrefixOf(s) {
		t.Error("⊂ must be reflexive")
	}
	if s.IsPrefixOf(p) {
		t.Error("longer sequence cannot be a prefix of shorter")
	}
	q := NewSeq(Atom("b"))
	if q.IsPrefixOf(s) {
		t.Error("⟨b⟩ is not a prefix of ⟨a,b⟩")
	}
}

func TestSeqProject(t *testing.T) {
	s := NewSeq(Atom("c1"), Atom("d"), Atom("c2"), Atom("d"))
	proj := s.Project(func(t Term) bool {
		a, ok := t.(Atom)
		return ok && strings.HasPrefix(string(a), "c")
	})
	want := NewSeq(Atom("c1"), Atom("c2"))
	if !Equal(proj, want) {
		t.Fatalf("Project = %s, want %s", proj, want)
	}
}

func TestTupleAccessors(t *testing.T) {
	tp := NewTuple("msg", Atom("x"), Int(4))
	if tp.Label() != "msg" || tp.Len() != 2 {
		t.Fatalf("bad tuple: %s", tp)
	}
	if tp.At(1) != Int(4) {
		t.Fatalf("At(1) = %v", tp.At(1))
	}
}

func TestCompareTotalOrderAcrossKinds(t *testing.T) {
	terms := []Term{Atom("a"), Int(1), NewTuple("", Atom("a")), NewBag(Atom("a")), NewSeq(Atom("a"))}
	for i := range terms {
		for j := range terms {
			c := Compare(terms[i], terms[j])
			switch {
			case i == j && c != 0:
				t.Errorf("Compare(%s, %s) = %d, want 0", terms[i], terms[j], c)
			case i < j && c >= 0:
				t.Errorf("Compare(%s, %s) = %d, want <0", terms[i], terms[j], c)
			case i > j && c <= 0:
				t.Errorf("Compare(%s, %s) = %d, want >0", terms[i], terms[j], c)
			}
		}
	}
}

func TestKeyInjectivityRegression(t *testing.T) {
	// Pairs that naive string encodings confuse.
	pairs := [][2]Term{
		{NewBag(Atom("ab")), NewBag(Atom("a"), Atom("b"))},
		{NewSeq(Atom("a"), Atom("b")), NewSeq(Atom("ab"))},
		{NewTuple("x", Atom("y")), NewTuple("xy", Atom(""))},
		{Int(12), Atom("12")},
		{NewBag(), NewSeq()},
		{NewTuple(""), NewBag()},
	}
	for _, p := range pairs {
		if Key(p[0]) == Key(p[1]) {
			t.Errorf("Key collision between %s and %s: %q", p[0], p[1], Key(p[0]))
		}
	}
}

func TestQuickCompareReflexiveAndKeyAgreement(t *testing.T) {
	f := func(g termGen) bool {
		if Compare(g.T, g.T) != 0 {
			return false
		}
		return Key(g.T) == Key(g.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(g1, g2 termGen) bool {
		c1 := Compare(g1.T, g2.T)
		c2 := Compare(g2.T, g1.T)
		if c1 == 0 {
			return c2 == 0 && Key(g1.T) == Key(g2.T)
		}
		return (c1 < 0) == (c2 > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualIffKeyEqual(t *testing.T) {
	f := func(g1, g2 termGen) bool {
		return Equal(g1.T, g2.T) == (Key(g1.T) == Key(g2.T))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickBagUnionCommutative(t *testing.T) {
	f := func(g1, g2 termGen) bool {
		return Equal(NewBag(g1.T).Add(g2.T), NewBag(g2.T).Add(g1.T))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	if got := EmptyBag().String(); got != "Ø" {
		t.Errorf("empty bag = %q", got)
	}
	if got := EmptySeq().String(); got != "ε" {
		t.Errorf("empty seq = %q", got)
	}
	s := NewTuple("m", Atom("x"), NewSeq(Atom("h"))).String()
	if s != "m(x, ⟨h⟩)" {
		t.Errorf("tuple string = %q", s)
	}
	b := NewBag(Atom("b"), Atom("a")).String()
	if b != "a | b" {
		t.Errorf("bag string = %q", b)
	}
}
