package spec

import (
	"testing"

	"adaptivetoken/internal/trs"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{N: 3, MaxBroadcasts: 2, MaxPending: 1, MaxPasses: 3}).Validate(); err != nil {
		t.Fatalf("small params invalid: %v", err)
	}
	if err := (Params{N: 1}).Validate(); err == nil {
		t.Error("N=1 should be rejected")
	}
	if err := (Params{N: 3, MaxBroadcasts: -1}).Validate(); err == nil {
		t.Error("negative bound should be rejected")
	}
}

func TestSucc(t *testing.T) {
	cases := []struct {
		x    trs.Int
		k, n int
		want trs.Int
	}{
		{0, 1, 5, 1},
		{4, 1, 5, 0},
		{0, -1, 5, 4},
		{2, -4, 5, 3},
		{2, 7, 5, 4},
		{0, 0, 5, 0},
		{1, -6, 5, 0},
	}
	for _, c := range cases {
		if got := succ(c.x, c.k, c.n); got != c.want {
			t.Errorf("succ(%d, %d, %d) = %d, want %d", c.x, c.k, c.n, got, c.want)
		}
	}
}

func TestAppendSeqIdentity(t *testing.T) {
	h := trs.NewSeq(dataEvent(0))
	if !trs.Equal(appendSeq(h, trs.EmptySeq()), h) {
		t.Error("φ must be a right identity for ⊕ here")
	}
	if !trs.Equal(appendSeq(trs.EmptySeq(), h), h) {
		t.Error("φ must be a left identity for ⊕")
	}
	both := appendSeq(h, trs.NewSeq(dataEvent(1)))
	if both.Len() != 2 {
		t.Errorf("append length = %d", both.Len())
	}
}

func TestEventClassification(t *testing.T) {
	if !isData(dataEvent(1)) || isCirc(dataEvent(1)) {
		t.Error("dataEvent misclassified")
	}
	if !isCirc(circEvent(1)) || isData(circEvent(1)) {
		t.Error("circEvent misclassified")
	}
	if isData(trs.Atom("x")) || isCirc(trs.Int(1)) {
		t.Error("non-events misclassified")
	}
}

func TestCountAndStrip(t *testing.T) {
	h := trs.NewSeq(dataEvent(0), circEvent(0), dataEvent(1), circEvent(1), circEvent(2))
	d, c := countEvents(h)
	if d != 2 || c != 3 {
		t.Fatalf("counts = (%d, %d), want (2, 3)", d, c)
	}
	if got := stripCirc(h); got.Len() != 2 || !isData(got.At(0)) {
		t.Errorf("stripCirc = %s", got)
	}
	if got := projectCirc(h); got.Len() != 3 || !isCirc(got.At(0)) {
		t.Errorf("projectCirc = %s", got)
	}
}

func TestPrefixC(t *testing.T) {
	// Same circulation projection, different data: still ⊂_C both ways.
	a := trs.NewSeq(circEvent(0), dataEvent(5))
	b := trs.NewSeq(dataEvent(9), circEvent(0))
	if !prefixC(a, b) || !prefixC(b, a) {
		t.Error("equal projections must be mutual ⊂_C prefixes")
	}
	longer := trs.NewSeq(circEvent(0), circEvent(1))
	if !prefixC(a, longer) {
		t.Error("shorter circulation view must be a ⊂_C prefix of longer")
	}
	if prefixC(longer, a) {
		t.Error("longer view is not a prefix of shorter")
	}
	diverged := trs.NewSeq(circEvent(2))
	if prefixC(diverged, longer) || prefixC(longer, diverged) {
		t.Error("diverged circulation views are incomparable")
	}
}

func TestPendingTotalAndLongest(t *testing.T) {
	q := trs.NewBag(
		trs.Pair(node(0), trs.NewSeq(dataEvent(0))),
		trs.Pair(node(1), trs.EmptySeq()),
		trs.Pair(node(2), trs.NewSeq(dataEvent(2))),
	)
	if pendingTotal(q) != 2 {
		t.Errorf("pendingTotal = %d", pendingTotal(q))
	}
	seqs := []trs.Seq{trs.EmptySeq(), trs.NewSeq(dataEvent(0), dataEvent(1)), trs.NewSeq(dataEvent(2))}
	if longestSeq(seqs).Len() != 2 {
		t.Error("longestSeq broken")
	}
	if longestSeq(nil).Len() != 0 {
		t.Error("longestSeq of nothing should be empty")
	}
}

func TestChainError(t *testing.T) {
	a := trs.NewSeq(dataEvent(0))
	ab := trs.NewSeq(dataEvent(0), dataEvent(1))
	c := trs.NewSeq(dataEvent(2))
	if err := chainError([]trs.Seq{a, ab, trs.EmptySeq()}); err != nil {
		t.Errorf("chain should hold: %v", err)
	}
	if err := chainError([]trs.Seq{a, c}); err == nil {
		t.Error("diverging histories must be detected")
	}
}

func TestTrapHelpers(t *testing.T) {
	w := trs.NewBag(trapAt(node(0), node(2)), trapAt(node(1), node(2)))
	if !hasTrap(w, node(0), node(2)) || hasTrap(w, node(2), node(2)) {
		t.Error("hasTrap broken")
	}
	if !hasTrapFor(w, node(2)) || hasTrapFor(w, node(0)) {
		t.Error("hasTrapFor broken")
	}
}

func TestHasSearchFor(t *testing.T) {
	o := trs.NewBag(
		outEntry(node(0), node(1), searchMsg(2, trs.EmptySeq(), node(0))),
		outEntry(node(1), node(2), tokenMsg(trs.EmptySeq())),
	)
	if !hasSearchFor(o, node(0)) {
		t.Error("should find search for node 0")
	}
	if hasSearchFor(o, node(1)) {
		t.Error("no search for node 1")
	}
}

func TestHistoriesInMessages(t *testing.T) {
	h1 := trs.NewSeq(dataEvent(0))
	h2 := trs.NewSeq(dataEvent(0), circEvent(0))
	bag := trs.NewBag(
		outEntry(node(0), node(1), tokenMsg(h1)),
		outEntry(node(1), node(2), returnMsg(h2)),
		outEntry(node(2), node(0), searchMsg(2, h1, node(2))),
	)
	got := historiesInMessages(bag)
	if len(got) != 3 {
		t.Fatalf("found %d histories, want 3", len(got))
	}
}

func TestGeneratedCount(t *testing.T) {
	q := trs.NewBag(trs.Pair(node(0), trs.NewSeq(dataEvent(0))))
	hist := []trs.Seq{trs.NewSeq(dataEvent(1), circEvent(1))}
	if g := generated(q, hist); g != 2 {
		t.Errorf("generated = %d, want 2 (1 pending + 1 completed)", g)
	}
}

func TestInitShapes(t *testing.T) {
	q := initQ(4)
	p := initP(4)
	if q.Len() != 4 || p.Len() != 4 {
		t.Fatalf("init sizes: Q=%d P=%d", q.Len(), p.Len())
	}
	if err := QCompleteInvariant(labelS, 4).Check(trs.NewTuple(labelS, q, trs.EmptySeq())); err != nil {
		t.Errorf("initQ should be complete: %v", err)
	}
}
