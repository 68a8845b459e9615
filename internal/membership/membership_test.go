package membership

import (
	"testing"
)

func TestNewViewSortsAndDedups(t *testing.T) {
	v := NewView(1, []int{5, 2, 9, 2, 5})
	if len(v.Members) != 3 || v.Members[0] != 2 || v.Members[2] != 9 {
		t.Fatalf("view = %v", v)
	}
}

func TestPositionOf(t *testing.T) {
	v := NewView(0, []int{10, 20, 30, 40})
	if p, ok := v.PositionOf(30); !ok || p != 2 {
		t.Errorf("PositionOf(30) = %d, %v", p, ok)
	}
	if _, ok := v.PositionOf(25); ok {
		t.Error("25 is not a member")
	}
	if !v.Contains(10) || v.Contains(11) {
		t.Error("Contains broken")
	}
}

func TestJoinLeave(t *testing.T) {
	v := NewView(0, []int{1, 3})
	j := v.WithJoined(2)
	if j.Epoch != 1 || len(j.Members) != 3 || j.Members[1] != 2 {
		t.Fatalf("joined = %v", j)
	}
	l := j.WithLeft(3)
	if l.Epoch != 2 || len(l.Members) != 2 || l.Contains(3) {
		t.Fatalf("left = %v", l)
	}
	// Original untouched.
	if len(v.Members) != 2 || v.Epoch != 0 {
		t.Error("views must be immutable")
	}
}

func TestTrackerAppliesOrderedChanges(t *testing.T) {
	tr := NewTracker(NewView(0, []int{0, 1, 2}))
	tr.Apply(Change{Kind: Join, Node: 5})
	v := tr.Apply(Change{Kind: Leave, Node: 1})
	if v.Epoch != 2 || len(v.Members) != 3 || v.Contains(1) || !v.Contains(5) {
		t.Fatalf("view = %v", v)
	}
	if got := tr.View(); got.String() != v.String() {
		t.Fatalf("View() = %v, Apply returned %v", got, v)
	}
	// Idempotent changes: no epoch bump.
	tr.Apply(Change{Kind: Join, Node: 5})
	tr.Apply(Change{Kind: Leave, Node: 1})
	tr.Apply(Change{Kind: ChangeKind(9), Node: 7})
	if tr.View().Epoch != 2 {
		t.Error("idempotent changes must not bump the epoch")
	}
}

// TestTrackerConvergence: two trackers applying the same ordered change
// stream end in identical views — the property total-order delivery gives.
func TestTrackerConvergence(t *testing.T) {
	changes := []Change{
		{Join, 7}, {Join, 9}, {Leave, 0}, {Join, 4}, {Leave, 9}, {Join, 0},
	}
	a := NewTracker(NewView(0, []int{0, 1, 2}))
	b := NewTracker(NewView(0, []int{0, 1, 2}))
	for _, c := range changes {
		a.Apply(c)
		b.Apply(c)
	}
	if a.View().String() != b.View().String() {
		t.Fatalf("diverged: %v vs %v", a.View(), b.View())
	}
}
