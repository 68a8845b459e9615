package metrics

import (
	"sort"
	"testing"
)

func TestSnapshotSortedMatchesSnapshot(t *testing.T) {
	m := NewMessages()
	m.IncSlot(slotToken)
	for i := 0; i < 42; i++ {
		m.IncSlot(slotSearch)
	}
	m.IncDropped()
	m.IncDelayed()

	snap := m.Snapshot()
	sorted := m.SnapshotSorted()
	if len(sorted) != len(snap) {
		t.Fatalf("SnapshotSorted has %d entries, Snapshot %d", len(sorted), len(snap))
	}
	for i, kc := range sorted {
		if snap[kc.Kind] != kc.Count {
			t.Errorf("kind %q: sorted %d, map %d", kc.Kind, kc.Count, snap[kc.Kind])
		}
		if i > 0 && sorted[i-1].Kind >= kc.Kind {
			t.Errorf("not sorted: %q before %q", sorted[i-1].Kind, kc.Kind)
		}
	}
}

func TestSnapshotSortedAllocBounded(t *testing.T) {
	m := NewMessages()
	for i := 0; i < numSlots; i++ {
		m.IncSlot(i)
	}
	// One slice allocation per call; the fast slots need no sort and no
	// per-entry allocation.
	allocs := testing.AllocsPerRun(100, func() {
		_ = m.SnapshotSorted()
	})
	if allocs > 1 {
		t.Fatalf("SnapshotSorted allocates %.1f/op, want ≤ 1", allocs)
	}
}

func TestSlotKindsSortedAndComplete(t *testing.T) {
	kinds := SlotKinds()
	if !sort.StringsAreSorted(kinds) {
		t.Fatalf("SlotKinds not sorted: %v", kinds)
	}
	want := map[string]bool{
		"token": true, "token-return": true, "search": true, "probe": true,
		"probe-reply": true, "want-query": true, "want-reply": true,
		"recovery-probe": true, "recovery-reply": true,
		"dropped": true, "duplicated": true, "delayed": true,
	}
	if len(kinds) != len(want) {
		t.Fatalf("SlotKinds has %d kinds, want %d: %v", len(kinds), len(want), kinds)
	}
	for _, k := range kinds {
		if !want[k] {
			t.Errorf("unexpected slot kind %q", k)
		}
	}
}
