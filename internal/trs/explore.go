package trs

import (
	"errors"
	"fmt"
)

// ErrStateLimit is reported (inside ExploreResult.Err) when exploration
// stops because MaxStates distinct states were reached before the frontier
// drained.
var ErrStateLimit = errors.New("trs: state limit reached")

// Invariant is a named predicate over states checked during exploration.
// Check returns a descriptive error when the state violates the invariant.
type Invariant struct {
	Name  string
	Check func(Term) error
}

// Violation records an invariant failure at a reachable state, together with
// the rule path from the initial state when tracing was enabled.
type Violation struct {
	Invariant string
	State     Term
	Err       error
	// Path holds the rule names applied from the initial state to State
	// (empty unless ExploreOptions.Trace was set).
	Path []string
}

// String summarizes the violation.
func (v Violation) String() string {
	s := fmt.Sprintf("invariant %q violated: %v at %s", v.Invariant, v.Err, v.State)
	if len(v.Path) > 0 {
		s += fmt.Sprintf(" (path %v)", v.Path)
	}
	return s
}

// ExploreOptions configures Explore.
type ExploreOptions struct {
	// MaxStates bounds the number of distinct states visited; 0 means
	// DefaultMaxStates.
	MaxStates int
	// Invariants are checked at every reachable state, including the
	// initial one.
	Invariants []Invariant
	// Trace records parent pointers so violations carry a rule path.
	Trace bool
	// StopAtViolation halts at the first invariant violation instead of
	// collecting all of them.
	StopAtViolation bool
}

// DefaultMaxStates bounds exploration when ExploreOptions.MaxStates is 0.
const DefaultMaxStates = 1 << 20

// ExploreResult reports the outcome of a breadth-first state-space
// exploration.
type ExploreResult struct {
	// States is the number of distinct reachable states visited.
	States int
	// Transitions is the number of rule applications examined.
	Transitions int
	// Depth is the maximum BFS depth reached.
	Depth int
	// Terminal is the number of states with no enabled rule.
	Terminal int
	// Violations found.
	Violations []Violation
	// Err is ErrStateLimit when exploration was truncated, or a rule
	// build error.
	Err error
}

type parentEdge struct {
	parentKey string
	rule      string
}

// Explore performs breadth-first exploration of the state space of rules
// from init, checking invariants at every reachable state.
func Explore(rules []Rule, init Term, opts ExploreOptions) *ExploreResult {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	res := &ExploreResult{}

	visited := map[string]Term{}
	var parents map[string]parentEdge
	if opts.Trace {
		parents = map[string]parentEdge{}
	}
	depth := map[string]int{}

	check := func(key string, t Term) bool {
		for _, inv := range opts.Invariants {
			if err := inv.Check(t); err != nil {
				v := Violation{Invariant: inv.Name, State: t, Err: err}
				if opts.Trace {
					v.Path = tracePath(parents, key)
				}
				res.Violations = append(res.Violations, v)
				if opts.StopAtViolation {
					return false
				}
			}
		}
		return true
	}

	initKey := Key(init)
	visited[initKey] = init
	depth[initKey] = 0
	res.States = 1
	if !check(initKey, init) {
		return res
	}

	queue := []string{initKey}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		state := visited[key]
		d := depth[key]
		if d > res.Depth {
			res.Depth = d
		}

		apps, err := Applications(rules, state)
		if err != nil {
			res.Err = err
			return res
		}
		if len(apps) == 0 {
			res.Terminal++
		}
		for _, a := range apps {
			res.Transitions++
			nk := Key(a.Next)
			if _, seen := visited[nk]; seen {
				continue
			}
			if res.States >= maxStates {
				res.Err = ErrStateLimit
				return res
			}
			visited[nk] = a.Next
			depth[nk] = d + 1
			res.States++
			if opts.Trace {
				parents[nk] = parentEdge{parentKey: key, rule: a.Rule.Name}
			}
			if !check(nk, a.Next) {
				return res
			}
			queue = append(queue, nk)
		}
	}
	return res
}

func tracePath(parents map[string]parentEdge, key string) []string {
	var rev []string
	for {
		e, ok := parents[key]
		if !ok {
			break
		}
		rev = append(rev, e.rule)
		key = e.parentKey
	}
	// Reverse into initial→violation order.
	out := make([]string, len(rev))
	for i, r := range rev {
		out[len(rev)-1-i] = r
	}
	return out
}

// RefinementOptions configures CheckRefinement.
type RefinementOptions struct {
	// MaxStates bounds the concrete-state exploration.
	MaxStates int
	// MaxAbstractSteps is the number of abstract rule applications one
	// concrete step may correspond to (default 1). The paper's System
	// Token rule 2, for example, "is a combination of rules 2 and 3 of
	// System S1" and therefore needs two abstract steps.
	MaxAbstractSteps int
}

// RefinementError describes a concrete transition with no abstract
// counterpart.
type RefinementError struct {
	ConcreteFrom Term
	ConcreteTo   Term
	Rule         string
	AbstractFrom Term
	AbstractTo   Term
}

// Error implements error.
func (e *RefinementError) Error() string {
	return fmt.Sprintf(
		"refinement broken: concrete rule %s takes %s to %s, but abstraction %s cannot reach %s (nor stutter)",
		e.Rule, e.ConcreteFrom, e.ConcreteTo, e.AbstractFrom, e.AbstractTo)
}

// CheckRefinement verifies a forward-simulation relation induced by the
// abstraction function abs: for every reachable concrete transition c →r c',
// either abs(c) == abs(c') (a stuttering step) or the abstract rules take
// abs(c) to abs(c') within MaxAbstractSteps applications. This is exactly
// the shape of the paper's safety proofs (Lemmas 1–3, Theorem 1), checked
// exhaustively on a bounded instance.
func CheckRefinement(concrete, abstract []Rule, abs func(Term) Term, init Term, opts RefinementOptions) error {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	maxAbs := opts.MaxAbstractSteps
	if maxAbs <= 0 {
		maxAbs = 1
	}
	visited := map[string]struct{}{}
	type qent struct{ state Term }
	initKey := Key(init)
	visited[initKey] = struct{}{}
	queue := []qent{{state: init}}

	for len(queue) > 0 {
		cur := queue[0].state
		queue = queue[1:]
		a1 := abs(cur)
		a1key := Key(a1)

		apps, err := Applications(concrete, cur)
		if err != nil {
			return err
		}
		for _, app := range apps {
			a2 := abs(app.Next)
			if Key(a2) != a1key {
				ok, err := abstractReaches(abstract, a1, a2, maxAbs)
				if err != nil {
					return err
				}
				if !ok {
					return &RefinementError{
						ConcreteFrom: cur,
						ConcreteTo:   app.Next,
						Rule:         app.Rule.Name,
						AbstractFrom: a1,
						AbstractTo:   a2,
					}
				}
			}
			nk := Key(app.Next)
			if _, seen := visited[nk]; seen {
				continue
			}
			if len(visited) >= maxStates {
				return ErrStateLimit
			}
			visited[nk] = struct{}{}
			queue = append(queue, qent{state: app.Next})
		}
	}
	return nil
}

// abstractReaches reports whether the abstract rules can take from to to
// within at most maxSteps applications (BFS over abstract successors).
func abstractReaches(abstract []Rule, from, to Term, maxSteps int) (bool, error) {
	toKey := Key(to)
	frontier := []Term{from}
	seen := map[string]struct{}{Key(from): {}}
	for step := 0; step < maxSteps; step++ {
		var next []Term
		for _, s := range frontier {
			apps, err := Applications(abstract, s)
			if err != nil {
				return false, err
			}
			for _, a := range apps {
				k := Key(a.Next)
				if k == toKey {
					return true, nil
				}
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				next = append(next, a.Next)
			}
		}
		frontier = next
	}
	return false, nil
}
