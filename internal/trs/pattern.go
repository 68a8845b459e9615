package trs

import (
	"fmt"
	"strings"
)

// Pattern is the left-hand-side language of rewrite rules. Patterns double
// as right-hand-side templates: Build instantiates a pattern under a binding
// to produce a term, which keeps rules symmetric with the paper's notation
// where the same variables appear on both sides.
type Pattern interface {
	// String renders the pattern for diagnostics.
	String() string

	isPattern()
}

// PVar matches any term and binds it to Name. If Name is already bound the
// previously bound term must be equal (non-linear patterns are supported).
type PVar struct {
	Name string
}

func (PVar) isPattern() {}

// String implements Pattern.
func (p PVar) String() string { return "$" + p.Name }

// PLit matches exactly the literal term Value (an atom, integer, or any
// fully ground term).
type PLit struct {
	Value Term
}

func (PLit) isPattern() {}

// String implements Pattern.
func (p PLit) String() string { return p.Value.String() }

// PTuple matches a tuple with the same label and arity, element-wise.
type PTuple struct {
	Label string
	Elems []Pattern
}

func (PTuple) isPattern() {}

// String implements Pattern.
func (p PTuple) String() string {
	parts := make([]string, len(p.Elems))
	for i, e := range p.Elems {
		parts[i] = e.String()
	}
	return p.Label + "(" + strings.Join(parts, ", ") + ")"
}

// PBag matches a bag. Each element pattern must match a distinct bag member;
// the remaining members are bound to the Rest variable. With Rest == "" the
// bag must contain exactly len(Elems) members. This is the "Q | (x, d_x)"
// idiom of the paper: one distinguished member plus the rest of the
// multiset.
type PBag struct {
	Elems []Pattern
	Rest  string
}

func (PBag) isPattern() {}

// String implements Pattern.
func (p PBag) String() string {
	parts := make([]string, 0, len(p.Elems)+1)
	if p.Rest != "" {
		parts = append(parts, "$"+p.Rest)
	}
	for _, e := range p.Elems {
		parts = append(parts, e.String())
	}
	if len(parts) == 0 {
		return "Ø"
	}
	return strings.Join(parts, " | ")
}

// PCompute is a template-only node: Build evaluates Fn under the current
// binding. It expresses computed right-hand sides such as H ⊕ d_x or
// u = x^{+n/2}. PCompute never matches during pattern matching.
type PCompute struct {
	Desc string
	Fn   func(Binding) Term
}

func (PCompute) isPattern() {}

// String implements Pattern.
func (p PCompute) String() string {
	if p.Desc != "" {
		return "«" + p.Desc + "»"
	}
	return "«compute»"
}

// Convenience constructors, used heavily by the spec package.

// V returns a variable pattern.
func V(name string) Pattern { return PVar{Name: name} }

// Lit returns a literal pattern for a ground term.
func Lit(t Term) Pattern { return PLit{Value: t} }

// Tup returns an unlabeled tuple pattern.
func Tup(elems ...Pattern) Pattern { return PTuple{Elems: elems} }

// LTup returns a labeled tuple pattern.
func LTup(label string, elems ...Pattern) Pattern { return PTuple{Label: label, Elems: elems} }

// BagOf returns a bag pattern with distinguished members and a rest
// variable; pass rest == "" to match the bag exactly.
func BagOf(rest string, elems ...Pattern) Pattern { return PBag{Elems: elems, Rest: rest} }

// Compute returns a template node evaluating fn at build time.
func Compute(desc string, fn func(Binding) Term) Pattern { return PCompute{Desc: desc, Fn: fn} }

// Build instantiates a pattern as a term under b. It returns an error if the
// pattern contains unbound variables or a PCompute returning nil.
func Build(p Pattern, b Binding) (Term, error) {
	switch q := p.(type) {
	case PVar:
		t, ok := b.Get(q.Name)
		if !ok {
			return nil, fmt.Errorf("build: unbound variable $%s", q.Name)
		}
		return t, nil
	case PLit:
		return q.Value, nil
	case PTuple:
		elems := make([]Term, len(q.Elems))
		for i, e := range q.Elems {
			t, err := Build(e, b)
			if err != nil {
				return nil, err
			}
			elems[i] = t
		}
		return NewTuple(q.Label, elems...), nil
	case PBag:
		var elems []Term
		if q.Rest != "" {
			rest, ok := b.Get(q.Rest)
			if !ok {
				return nil, fmt.Errorf("build: unbound bag rest $%s", q.Rest)
			}
			rb, ok := rest.(Bag)
			if !ok {
				return nil, fmt.Errorf("build: rest $%s is %s, want bag", q.Rest, rest.Kind())
			}
			elems = append(elems, rb.elems...)
		}
		for _, e := range q.Elems {
			t, err := Build(e, b)
			if err != nil {
				return nil, err
			}
			elems = append(elems, t)
		}
		return NewBag(elems...), nil
	case PCompute:
		t := q.Fn(b)
		if t == nil {
			return nil, fmt.Errorf("build: compute node %s returned nil", q.String())
		}
		return t, nil
	default:
		return nil, fmt.Errorf("build: unknown pattern %T", p)
	}
}
