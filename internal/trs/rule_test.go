package trs

import (
	"strings"
	"testing"
)

// counterSystem is a toy system: state (bag of "c" atoms, limit). Rule inc
// adds a "c" while below limit; rule drop removes one.
func counterSystem(limit int64) System {
	return System{
		Name: "counter",
		Init: Pair(EmptyBag(), Int(limit)),
		Rules: []Rule{
			{
				Name: "inc",
				LHS:  Tup(V("B"), V("n")),
				Guard: func(b Binding) bool {
					return int64(b.Bag("B").Len()) < int64(b.Int("n"))
				},
				RHS: Tup(Compute("B+c", func(b Binding) Term {
					return b.Bag("B").Add(Atom("c"))
				}), V("n")),
			},
			{
				Name: "drop",
				LHS:  Tup(BagOf("B", Lit(Atom("c"))), V("n")),
				RHS:  Tup(BagOf("B"), V("n")),
			},
		},
	}
}

func TestApplicationsBasic(t *testing.T) {
	sys := counterSystem(2)
	apps, err := Applications(sys.Rules, sys.Init)
	if err != nil {
		t.Fatal(err)
	}
	// Only inc applies at the empty state.
	if len(apps) != 1 || apps[0].Rule.Name != "inc" {
		t.Fatalf("apps = %v", apps)
	}
	next := apps[0].Next
	apps2, err := Applications(sys.Rules, next)
	if err != nil {
		t.Fatal(err)
	}
	// inc (still below limit) and drop.
	if len(apps2) != 2 {
		t.Fatalf("apps2 = %v", apps2)
	}
}

func TestGuardDisablesRule(t *testing.T) {
	sys := counterSystem(0)
	apps, err := Applications(sys.Rules, sys.Init)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 0 {
		t.Fatalf("guard should disable inc at limit 0, got %v", apps)
	}
}

func TestRuleByName(t *testing.T) {
	sys := counterSystem(1)
	if _, ok := sys.RuleByName("inc"); !ok {
		t.Error("inc should exist")
	}
	if _, ok := sys.RuleByName("nope"); ok {
		t.Error("nope should not exist")
	}
}

func TestApplicationsBuildErrorPropagates(t *testing.T) {
	bad := Rule{
		Name: "bad",
		LHS:  V("x"),
		RHS:  V("unbound"),
	}
	if _, err := Applications([]Rule{bad}, Atom("s")); err == nil {
		t.Fatal("expected build error")
	}
}

func TestFormatRules(t *testing.T) {
	out := FormatRules(counterSystem(2))
	for _, frag := range []string{"System counter", "inc", "drop", "init"} {
		if !strings.Contains(out, frag) {
			t.Errorf("FormatRules output missing %q:\n%s", frag, out)
		}
	}
}

func TestRuleString(t *testing.T) {
	r := counterSystem(1).Rules[0]
	if !strings.Contains(r.String(), "guard") {
		t.Errorf("guarded rule should mention guard: %s", r)
	}
	r2 := counterSystem(1).Rules[1]
	if strings.Contains(r2.String(), "guard") {
		t.Errorf("unguarded rule should not mention guard: %s", r2)
	}
}
