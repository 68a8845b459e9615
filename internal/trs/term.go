// Package trs implements a small term rewriting system (TRS) engine in the
// style used by the paper "Developing and Refining an Adaptive Token-Passing
// Strategy" (Englert, Rudolph, Shvartsman, 2001) to specify its protocols.
//
// A TRS is a set of terms and a set of rewriting rules. Terms represent
// system states; rules specify state transitions. The engine supports the
// term algebra the paper relies on:
//
//   - atoms (constant symbols such as φ_x, τ_x, ⊥ and node identifiers),
//   - integers,
//   - labeled tuples (ordered, e.g. message payloads (y, n, H, τ)),
//   - bags — multisets joined by the associative-commutative '|' connective,
//   - sequences — ordered lists built with the ⊕ append operator (histories).
//
// Patterns over these terms support variables, literals, tuple patterns,
// bag patterns with a "rest" variable (matching "Q | (x, d)" style
// left-hand sides) and guard predicates. Rules pair a left-hand-side
// pattern with a right-hand-side template; the engine enumerates every
// rule application at a state, runs reductions under pluggable strategies,
// and exhaustively explores bounded state spaces while checking invariants
// and refinement mappings.
package trs

import (
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the five concrete term representations.
type Kind int

// Term kinds, in canonical comparison order.
const (
	KindAtom Kind = iota + 1
	KindInt
	KindTuple
	KindBag
	KindSeq
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindAtom:
		return "atom"
	case KindInt:
		return "int"
	case KindTuple:
		return "tuple"
	case KindBag:
		return "bag"
	case KindSeq:
		return "seq"
	default:
		return "kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Term is a node of the term algebra. Terms are immutable: constructors copy
// their inputs and accessors copy their outputs, so a Term can be shared
// freely across goroutines and stored as a map key via Key.
type Term interface {
	// Kind reports which concrete representation the term has.
	Kind() Kind
	// String renders the term using the paper's notation where practical.
	String() string

	// encode appends an injective canonical encoding, used for hashing
	// and equality.
	encode(sb *strings.Builder)
}

// Atom is a constant symbol. It matches only itself during pattern matching.
// The paper writes constants with Greek letters (φ, τ, ⊥); here they are
// arbitrary strings.
type Atom string

// Kind implements Term.
func (Atom) Kind() Kind { return KindAtom }

// String implements Term.
func (a Atom) String() string { return string(a) }

func (a Atom) encode(sb *strings.Builder) {
	sb.WriteByte('a')
	sb.WriteString(strconv.Itoa(len(a)))
	sb.WriteByte(':')
	sb.WriteString(string(a))
}

// Int is an integer constant, used for node indices, hop distances (the n in
// search messages) and round counters.
type Int int64

// Kind implements Term.
func (Int) Kind() Kind { return KindInt }

// String implements Term.
func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

func (i Int) encode(sb *strings.Builder) {
	sb.WriteByte('i')
	sb.WriteString(strconv.FormatInt(int64(i), 10))
	sb.WriteByte(';')
}

// Tuple is an ordered, optionally labeled, fixed-arity term. The paper's
// pairs (x, d_x) and message payloads (x, (y, m)) are tuples. The label
// distinguishes tuple sorts that happen to share arity (for example trap
// records from data pairs).
type Tuple struct {
	label string
	elems []Term
}

// NewTuple builds a labeled tuple from the given elements. The element slice
// is copied.
func NewTuple(label string, elems ...Term) Tuple {
	cp := make([]Term, len(elems))
	copy(cp, elems)
	return Tuple{label: label, elems: cp}
}

// Pair builds the unlabeled 2-tuple (a, b) that pervades the paper's rules.
func Pair(a, b Term) Tuple { return NewTuple("", a, b) }

// Kind implements Term.
func (Tuple) Kind() Kind { return KindTuple }

// Label returns the tuple's sort label ("" for plain tuples).
func (t Tuple) Label() string { return t.label }

// Len returns the tuple arity.
func (t Tuple) Len() int { return len(t.elems) }

// At returns the i-th element.
func (t Tuple) At(i int) Term { return t.elems[i] }

// String implements Term.
func (t Tuple) String() string {
	var sb strings.Builder
	sb.WriteString(t.label)
	sb.WriteByte('(')
	for i, e := range t.elems {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(e.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

func (t Tuple) encode(sb *strings.Builder) {
	sb.WriteByte('t')
	sb.WriteString(strconv.Itoa(len(t.label)))
	sb.WriteByte(':')
	sb.WriteString(t.label)
	sb.WriteString(strconv.Itoa(len(t.elems)))
	sb.WriteByte('[')
	for _, e := range t.elems {
		e.encode(sb)
	}
	sb.WriteByte(']')
}

// Bag is a multiset of terms: the '|' catenation connective of the paper,
// which is associative and commutative. Bags are kept in canonical sorted
// order so that equal multisets have equal encodings.
type Bag struct {
	elems []Term // sorted by Compare
}

// NewBag builds a bag from the given elements. The input is copied and
// canonically sorted; duplicates are preserved (it is a multiset).
func NewBag(elems ...Term) Bag {
	cp := make([]Term, len(elems))
	copy(cp, elems)
	sort.SliceStable(cp, func(i, j int) bool { return Compare(cp[i], cp[j]) < 0 })
	return Bag{elems: cp}
}

// EmptyBag returns the empty multiset Ø.
func EmptyBag() Bag { return Bag{} }

// Kind implements Term.
func (Bag) Kind() Kind { return KindBag }

// Len returns the number of elements (counting multiplicity).
func (b Bag) Len() int { return len(b.elems) }

// At returns the i-th element in canonical order.
func (b Bag) At(i int) Term { return b.elems[i] }

// Elems returns a copy of the elements in canonical order.
func (b Bag) Elems() []Term {
	cp := make([]Term, len(b.elems))
	copy(cp, b.elems)
	return cp
}

// Add returns a new bag with t added.
func (b Bag) Add(t Term) Bag {
	elems := make([]Term, 0, len(b.elems)+1)
	elems = append(elems, b.elems...)
	elems = append(elems, t)
	return NewBag(elems...)
}

// String implements Term.
func (b Bag) String() string {
	if len(b.elems) == 0 {
		return "Ø"
	}
	parts := make([]string, len(b.elems))
	for i, e := range b.elems {
		parts[i] = e.String()
	}
	return strings.Join(parts, " | ")
}

func (b Bag) encode(sb *strings.Builder) {
	sb.WriteByte('b')
	sb.WriteString(strconv.Itoa(len(b.elems)))
	sb.WriteByte('{')
	for _, e := range b.elems {
		e.encode(sb)
	}
	sb.WriteByte('}')
}

// Seq is an ordered sequence of terms: the histories built with the ⊕ append
// operator. Unlike Bag, order is significant.
type Seq struct {
	elems []Term
}

// NewSeq builds a sequence from the given elements; the input is copied.
func NewSeq(elems ...Term) Seq {
	cp := make([]Term, len(elems))
	copy(cp, elems)
	return Seq{elems: cp}
}

// EmptySeq returns the empty sequence Ø.
func EmptySeq() Seq { return Seq{} }

// Kind implements Term.
func (Seq) Kind() Kind { return KindSeq }

// Len returns the sequence length.
func (s Seq) Len() int { return len(s.elems) }

// At returns the i-th element.
func (s Seq) At(i int) Term { return s.elems[i] }

// Append returns s ⊕ t, a new sequence with t appended.
func (s Seq) Append(t Term) Seq {
	elems := make([]Term, 0, len(s.elems)+1)
	elems = append(elems, s.elems...)
	elems = append(elems, t)
	return Seq{elems: elems}
}

// IsPrefixOf reports whether s is a prefix of other (the paper's ⊂ relation,
// which is reflexive: every sequence is a prefix of itself).
func (s Seq) IsPrefixOf(other Seq) bool {
	if len(s.elems) > len(other.elems) {
		return false
	}
	for i, e := range s.elems {
		if !Equal(e, other.elems[i]) {
			return false
		}
	}
	return true
}

// Project returns the subsequence of elements satisfying keep, preserving
// order. It implements the projection used by the paper's ⊂_C relation.
func (s Seq) Project(keep func(Term) bool) Seq {
	var elems []Term
	for _, e := range s.elems {
		if keep(e) {
			elems = append(elems, e)
		}
	}
	return Seq{elems: elems}
}

// String implements Term.
func (s Seq) String() string {
	if len(s.elems) == 0 {
		return "ε"
	}
	parts := make([]string, len(s.elems))
	for i, e := range s.elems {
		parts[i] = e.String()
	}
	return "⟨" + strings.Join(parts, "⊕") + "⟩"
}

func (s Seq) encode(sb *strings.Builder) {
	sb.WriteByte('s')
	sb.WriteString(strconv.Itoa(len(s.elems)))
	sb.WriteByte('<')
	for _, e := range s.elems {
		e.encode(sb)
	}
	sb.WriteByte('>')
}

// Key returns an injective canonical encoding of t, suitable for use as a
// map key when deduplicating states during exploration.
func Key(t Term) string {
	var sb strings.Builder
	t.encode(&sb)
	return sb.String()
}

// Equal reports structural equality of two terms. Bags compare as multisets
// (order-insensitively) because they are stored canonically sorted.
func Equal(a, b Term) bool { return Compare(a, b) == 0 }

// Compare imposes a total order on terms: first by kind, then by content.
// It is the order used to canonicalize bags.
func Compare(a, b Term) int {
	if ka, kb := a.Kind(), b.Kind(); ka != kb {
		return int(ka) - int(kb)
	}
	switch x := a.(type) {
	case Atom:
		y, ok := b.(Atom)
		if !ok {
			return -1
		}
		return strings.Compare(string(x), string(y))
	case Int:
		y, ok := b.(Int)
		if !ok {
			return -1
		}
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	case Tuple:
		y, ok := b.(Tuple)
		if !ok {
			return -1
		}
		if c := strings.Compare(x.label, y.label); c != 0 {
			return c
		}
		return compareSlices(x.elems, y.elems)
	case Bag:
		y, ok := b.(Bag)
		if !ok {
			return -1
		}
		return compareSlices(x.elems, y.elems)
	case Seq:
		y, ok := b.(Seq)
		if !ok {
			return -1
		}
		return compareSlices(x.elems, y.elems)
	default:
		// Unknown Term implementations compare by canonical key so the
		// order stays total.
		return strings.Compare(Key(a), Key(b))
	}
}

func compareSlices(a, b []Term) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}
