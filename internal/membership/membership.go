// Package membership implements the dynamic-ring machinery the paper
// sketches in its conclusion: views of the nodes comprising the ring and
// totally ordered view changes (joins and leaves agreed through the
// token-ordered broadcast). The binary search's logarithmic "halfway"
// neighbours are computed by the protocol itself (protocol/view.go).
package membership

import (
	"fmt"
	"sort"
	"sync"
)

// View is one ring configuration: a sorted set of member identifiers. Ring
// position i is Members[i]; the binary search runs over positions.
type View struct {
	// Epoch increases with every view change.
	Epoch uint64
	// Members is sorted ascending.
	Members []int
}

// NewView builds a view from members (copied, sorted, deduplicated).
func NewView(epoch uint64, members []int) View {
	cp := append([]int(nil), members...)
	sort.Ints(cp)
	out := cp[:0]
	for i, m := range cp {
		if i > 0 && cp[i-1] == m {
			continue
		}
		out = append(out, m)
	}
	return View{Epoch: epoch, Members: append([]int(nil), out...)}
}

// Contains reports whether id is a member.
func (v View) Contains(id int) bool {
	_, ok := v.PositionOf(id)
	return ok
}

// PositionOf returns id's ring position.
func (v View) PositionOf(id int) (int, bool) {
	i := sort.SearchInts(v.Members, id)
	if i < len(v.Members) && v.Members[i] == id {
		return i, true
	}
	return 0, false
}

// WithJoined returns a new view with id added and the epoch bumped.
func (v View) WithJoined(id int) View {
	return NewView(v.Epoch+1, append(append([]int(nil), v.Members...), id))
}

// WithLeft returns a new view with id removed and the epoch bumped.
func (v View) WithLeft(id int) View {
	out := make([]int, 0, len(v.Members))
	for _, m := range v.Members {
		if m != id {
			out = append(out, m)
		}
	}
	return View{Epoch: v.Epoch + 1, Members: out}
}

// String renders the view.
func (v View) String() string {
	return fmt.Sprintf("view{epoch=%d members=%v}", v.Epoch, v.Members)
}

// ChangeKind classifies view changes.
type ChangeKind int

// View change kinds.
const (
	// Join adds a member.
	Join ChangeKind = iota + 1
	// Leave removes a member.
	Leave
)

// Change is one membership event. Changes applied in the same total order
// at every node (e.g. via the tobcast service) yield identical views
// everywhere.
type Change struct {
	Kind ChangeKind
	Node int
}

// Tracker folds a totally ordered stream of changes into the current view.
// Safe for concurrent use.
type Tracker struct {
	mu   sync.Mutex
	view View
}

// NewTracker starts from the initial view.
func NewTracker(initial View) *Tracker {
	return &Tracker{view: initial}
}

// View returns the current view.
func (t *Tracker) View() View {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.view
}

// Apply folds one change into the view and returns the result.
// Idempotent changes (joining a member, removing a non-member) and unknown
// kinds leave the view and its epoch as they are.
func (t *Tracker) Apply(c Change) View {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case c.Kind == Join && !t.view.Contains(c.Node):
		t.view = t.view.WithJoined(c.Node)
	case c.Kind == Leave && t.view.Contains(c.Node):
		t.view = t.view.WithLeft(c.Node)
	}
	return t.view
}
