package trs

import (
	"sort"
	"strings"
)

// Binding maps pattern variable names to matched terms. Bindings are
// persistent: Bind returns a new binding sharing structure with the old one,
// so the matcher can branch cheaply while enumerating alternatives.
type Binding struct {
	name   string
	term   Term
	parent *Binding // nil for the root
}

// EmptyBinding returns a binding with no variables bound.
func EmptyBinding() Binding { return Binding{} }

// Get returns the term bound to name, if any.
func (b Binding) Get(name string) (Term, bool) {
	for cur := &b; cur != nil; cur = cur.parent {
		if cur.name == name && cur.term != nil {
			return cur.term, true
		}
	}
	return nil, false
}

// MustGet returns the term bound to name, or nil when unbound. It is a
// convenience for PCompute bodies, which run only after the left-hand side
// matched and bound all their inputs.
func (b Binding) MustGet(name string) Term {
	t, _ := b.Get(name)
	return t
}

// Bind returns a new binding with name bound to t, shadowing any previous
// binding for name.
func (b Binding) Bind(name string, t Term) Binding {
	parent := b
	return Binding{name: name, term: t, parent: &parent}
}

// Seq returns the sequence bound to name, or the empty sequence when the
// variable is unbound or bound to a non-sequence.
func (b Binding) Seq(name string) Seq {
	if t, ok := b.Get(name); ok {
		if s, ok := t.(Seq); ok {
			return s
		}
	}
	return EmptySeq()
}

// Bag returns the bag bound to name, or the empty bag when the variable is
// unbound or bound to a non-bag.
func (b Binding) Bag(name string) Bag {
	if t, ok := b.Get(name); ok {
		if bg, ok := t.(Bag); ok {
			return bg
		}
	}
	return EmptyBag()
}

// Int returns the integer bound to name, or 0 when unbound or non-integer.
func (b Binding) Int(name string) Int {
	if t, ok := b.Get(name); ok {
		if i, ok := t.(Int); ok {
			return i
		}
	}
	return 0
}

// Map flattens the binding into a name→term map, honoring shadowing.
func (b Binding) Map() map[string]Term {
	m := make(map[string]Term)
	for cur := &b; cur != nil; cur = cur.parent {
		if cur.term == nil {
			continue
		}
		if _, seen := m[cur.name]; !seen {
			m[cur.name] = cur.term
		}
	}
	return m
}

// String renders the binding deterministically for diagnostics.
func (b Binding) String() string {
	m := b.Map()
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = "$" + k + "=" + m[k].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
