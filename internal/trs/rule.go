package trs

import (
	"fmt"
	"strings"
)

// Rule is a rewriting rule s1 → s2 (if p(s1)): a left-hand-side pattern, an
// optional guard predicate over the matched binding, and a right-hand-side
// template built under that binding.
type Rule struct {
	// Name identifies the rule in traces ("1", "3'", "broadcast", ...).
	Name string
	// LHS is the pattern the current state must match.
	LHS Pattern
	// Guard, when non-nil, must return true for the application to be
	// enabled. It sees the binding produced by matching LHS.
	Guard func(Binding) bool
	// RHS is the template for the successor state.
	RHS Pattern
}

// String renders the rule in the paper's  lhs → rhs  form.
func (r Rule) String() string {
	s := r.Name + ": " + r.LHS.String() + " → " + r.RHS.String()
	if r.Guard != nil {
		s += " (if guard)"
	}
	return s
}

// System is a named collection of rewrite rules together with an initial
// state, mirroring the paper's "System S", "System BinarySearch", etc.
type System struct {
	// Name of the system, for diagnostics.
	Name string
	// Rules in declaration order.
	Rules []Rule
	// Init is the initial state term.
	Init Term
}

// RuleByName returns the named rule.
func (s System) RuleByName(name string) (Rule, bool) {
	for _, r := range s.Rules {
		if r.Name == name {
			return r, true
		}
	}
	return Rule{}, false
}

// Application is one enabled rewrite at a state: the rule, the binding that
// matched, and the successor state.
type Application struct {
	Rule    Rule
	Binding Binding
	Next    Term
}

// String summarizes the application.
func (a Application) String() string {
	return fmt.Sprintf("%s %s ⇒ %s", a.Rule.Name, a.Binding, a.Next)
}

// Applications enumerates every enabled application of every rule at state,
// in rule order. Matching is at the root: the paper's protocol rules pattern
// the entire global state tuple.
func Applications(rules []Rule, state Term) ([]Application, error) {
	var out []Application
	for _, r := range rules {
		var buildErr error
		Match(r.LHS, state, EmptyBinding(), func(b Binding) bool {
			if r.Guard != nil && !r.Guard(b) {
				return true
			}
			next, err := Build(r.RHS, b)
			if err != nil {
				buildErr = fmt.Errorf("rule %s: %w", r.Name, err)
				return false
			}
			out = append(out, Application{Rule: r, Binding: b, Next: next})
			return true
		})
		if buildErr != nil {
			return nil, buildErr
		}
	}
	return out, nil
}

// FormatRules renders a rule set like the paper's figures.
func FormatRules(s System) string {
	var sb strings.Builder
	sb.WriteString("System ")
	sb.WriteString(s.Name)
	sb.WriteByte('\n')
	sb.WriteString("0  init: ")
	sb.WriteString(s.Init.String())
	sb.WriteByte('\n')
	for _, r := range s.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
