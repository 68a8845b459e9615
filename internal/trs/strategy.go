package trs

import "fmt"

// Strategy selects which enabled application to take at each step of a
// reduction. The paper notes that "a rewriting strategy can be used to
// specify which rule among the applicable rules should be applied at each
// rewriting step"; restricting the strategy restricts behaviors without
// affecting safety.
type Strategy interface {
	// Pick returns the index of the application to apply, or -1 to stop
	// the reduction even though applications remain.
	Pick(apps []Application, step int) int
}

// RandomStrategy picks uniformly at random using a deterministic xorshift
// generator, so reductions are reproducible per seed.
type RandomStrategy struct {
	state uint64
}

// NewRandomStrategy returns a RandomStrategy seeded with seed (0 is mapped
// to a fixed non-zero seed).
func NewRandomStrategy(seed uint64) *RandomStrategy {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RandomStrategy{state: seed}
}

// Pick implements Strategy.
func (s *RandomStrategy) Pick(apps []Application, _ int) int {
	if len(apps) == 0 {
		return -1
	}
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return int(s.state % uint64(len(apps)))
}

// Step records one step of a reduction.
type Step struct {
	Rule  string
	State Term
}

// Reduce runs a reduction from init under strategy s for at most maxSteps
// steps, returning the steps taken (excluding the initial state) and the
// final state. The reduction ends early when no rule applies or the
// strategy declines to pick.
func Reduce(rules []Rule, init Term, s Strategy, maxSteps int) ([]Step, Term, error) {
	state := init
	var steps []Step
	for i := 0; i < maxSteps; i++ {
		apps, err := Applications(rules, state)
		if err != nil {
			return steps, state, err
		}
		idx := s.Pick(apps, i)
		if idx < 0 {
			return steps, state, nil
		}
		if idx >= len(apps) {
			return steps, state, fmt.Errorf("trs: strategy picked %d of %d applications", idx, len(apps))
		}
		state = apps[idx].Next
		steps = append(steps, Step{Rule: apps[idx].Rule.Name, State: state})
	}
	return steps, state, nil
}
