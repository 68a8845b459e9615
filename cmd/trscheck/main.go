// Command trscheck verifies the paper's formal layer: it encodes Systems
// S, S1, Token, Message-Passing, Search and BinarySearch as term rewriting
// systems, explores their bounded state spaces exhaustively, checks the
// prefix-property / token-uniqueness invariants at every reachable state,
// and verifies the refinement chain (each system forward-simulates S1,
// which simulates S).
//
// Usage:
//
//	trscheck                 # explore all systems at the default instance
//	trscheck -n 3 -b 2 -p 3  # custom bounds
//	trscheck -refine         # also check the refinement chain (N=2 advised)
//	trscheck -rules          # print the rule sets, paper style
//	trscheck -trace binsearch -steps 12  # show a random reduction
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"adaptivetoken/internal/spec"
	"adaptivetoken/internal/trs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trscheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trscheck", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 3, "number of processors")
		bcasts    = fs.Int("b", 2, "max broadcasts generated")
		passes    = fs.Int("p", 3, "max recorded token rotations")
		maxStates = fs.Int("max-states", 2_000_000, "state budget per system")
		refine    = fs.Bool("refine", false, "check the refinement chain too")
		rules     = fs.Bool("rules", false, "print every system's rules and exit")
		trace     = fs.String("trace", "", "show a seeded random reduction of the named system")
		steps     = fs.Int("steps", 15, "reduction length for -trace")
		seed      = fs.Uint64("seed", 1, "seed for -trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	params := spec.Params{N: *n, MaxBroadcasts: *bcasts, MaxPending: 1, MaxPasses: *passes}
	if err := params.Validate(); err != nil {
		return err
	}

	if *rules {
		for _, sc := range spec.AllSystems(params) {
			fmt.Fprintln(out, trs.FormatRules(sc.System))
		}
		return nil
	}

	if *trace != "" {
		return showTrace(out, params, *trace, *steps, *seed)
	}

	fmt.Fprintf(out, "exploring all systems at N=%d, ≤%d broadcasts, ≤%d rotations\n\n",
		params.N, params.MaxBroadcasts, params.MaxPasses)
	results, err := spec.ExploreAll(params, *maxStates)
	for _, sc := range spec.AllSystems(params) {
		r, ok := results[sc.System.Name]
		if !ok {
			continue
		}
		status := "OK"
		if len(r.Violations) > 0 {
			status = "VIOLATION: " + r.Violations[0].String()
		}
		fmt.Fprintf(out, "%-22s states=%-8d transitions=%-9d depth=%-4d terminal=%-5d %s\n",
			sc.System.Name, r.States, r.Transitions, r.Depth, r.Terminal, status)
	}
	if err != nil {
		return err
	}
	if params.N <= 2 {
		// The fully nondeterministic Figure 6 system is tractable only
		// at tiny instances.
		free := spec.SearchFreeCheck(params)
		fres := trs.Explore(free.System.Rules, free.System.Init, trs.ExploreOptions{
			MaxStates:  *maxStates,
			Invariants: free.Invariants,
		})
		status := "OK"
		if fres.Err != nil {
			status = "ERROR: " + fres.Err.Error()
		} else if len(fres.Violations) > 0 {
			status = "VIOLATION: " + fres.Violations[0].String()
		}
		fmt.Fprintf(out, "%-22s states=%-8d transitions=%-9d depth=%-4d terminal=%-5d %s\n",
			free.System.Name, fres.States, fres.Transitions, fres.Depth, fres.Terminal, status)
	}

	if *refine {
		fmt.Fprintln(out, "\nchecking refinement chain (forward simulation):")
		err := spec.CheckRefinements(spec.Chain(params), *maxStates, func(link spec.RefinementCheck) {
			fmt.Fprintf(out, "  %-18s OK (≤%d abstract steps per concrete step)\n",
				link.Name, link.MaxAbstractSteps)
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "\nall checks passed")
	return nil
}

// showTrace prints a seeded random reduction of one system.
func showTrace(out io.Writer, params spec.Params, name string, steps int, seed uint64) error {
	var sys trs.System
	found := false
	for _, sc := range spec.AllSystems(params) {
		if strings.EqualFold(sc.System.Name, name) ||
			strings.EqualFold(sc.System.Name, "System"+name) {
			sys = sc.System
			found = true
			break
		}
	}
	if !found {
		var names []string
		for _, sc := range spec.AllSystems(params) {
			names = append(names, sc.System.Name)
		}
		return fmt.Errorf("unknown system %q (have: %s)", name, strings.Join(names, ", "))
	}
	fmt.Fprintf(out, "reduction of System %s (seed %d):\n0: %s\n", sys.Name, seed, sys.Init)
	trace, _, err := trs.Reduce(sys.Rules, sys.Init, trs.NewRandomStrategy(seed), steps)
	if err != nil {
		return err
	}
	for i, st := range trace {
		fmt.Fprintf(out, "%d: [rule %s] %s\n", i+1, st.Rule, st.State)
	}
	return nil
}
