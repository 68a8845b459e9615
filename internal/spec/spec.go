// Package spec encodes the six protocol specifications of the paper —
// Systems S, S1, Token, Message-Passing, Search and BinarySearch — as term
// rewriting systems over the engine in internal/trs, and provides the
// machinery to verify the paper's safety claims exhaustively on bounded
// instances:
//
//   - the prefix property (Definition 2): every local history is a prefix
//     of the global history — generalized for the distributed systems to
//     "all histories in the state form a chain under the prefix relation";
//   - the refinement lemmas (Lemmas 1–3, Theorem 1): each refined system
//     forward-simulates System S1 (and S1 simulates S) under an
//     abstraction that erases the refinement machinery.
//
// Modeling decisions (documented in DESIGN.md):
//
//   - Broadcast rules reset a node's pending data to φ_x (the empty
//     request) instead of deleting the (x, d_x) pair, following the
//     explicit reset in System Token's rule 2 (Figure 4). Under the literal
//     "delete the pair" reading of Figures 2/3/5 a node could never issue a
//     second request and Token would not refine S1.
//   - Histories record token-circulation events c(x) in the ring-based
//     systems (Message-Passing 3′, Search rule 4, BinarySearch rule 4),
//     since the ⊂_C comparison of BinarySearch rule 6 projects "onto the
//     circular token ring rotation events", which therefore must be in the
//     histories. Abstractions to S1 erase circulation events.
//   - Exploration is bounded by Params: at most MaxBroadcasts data items
//     are ever generated and at most MaxPasses circulation events recorded,
//     the round-counter bounding the paper sketches in §4.4.
package spec

import (
	"fmt"

	"adaptivetoken/internal/trs"
)

// Params bounds a model-checking instance.
type Params struct {
	// N is the number of processors (ring size).
	N int
	// MaxBroadcasts bounds the total number of data items generated by
	// rule 1 across all nodes.
	MaxBroadcasts int
	// MaxPending bounds each node's pending data queue d_x.
	MaxPending int
	// MaxPasses bounds the number of recorded token circulation events,
	// keeping ring systems finite-state.
	MaxPasses int
}

// Validate reports whether the parameters denote a checkable instance.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("spec: N = %d, need at least 2 processors", p.N)
	}
	if p.MaxBroadcasts < 0 || p.MaxPending < 0 || p.MaxPasses < 0 {
		return fmt.Errorf("spec: negative bound in %+v", p)
	}
	return nil
}

// Distinguished symbols.
const (
	// bottom is ⊥: the token is in transit, no node holds it.
	bottom = trs.Atom("⊥")

	// Event labels inside histories.
	labelData = "d" // d(x): node x broadcast a datum
	labelCirc = "c" // c(x): the token completed a hop away from x

	// Message payload labels.
	labelToken  = "tok"  // regular token message, carries the history
	labelReturn = "ret"  // decorated token ŷ: use once and return
	labelSearch = "srch" // gimme message: (hop, requester history, requester)
)

// node returns the term for processor i.
func node(i int) trs.Term { return trs.Int(int64(i)) }

// dataEvent returns the history event d(x).
func dataEvent(x trs.Int) trs.Term { return trs.NewTuple(labelData, x) }

// circEvent returns the history event c(x).
func circEvent(x trs.Int) trs.Term { return trs.NewTuple(labelCirc, x) }

// isCirc reports whether a history event is a circulation event.
func isCirc(t trs.Term) bool {
	tp, ok := t.(trs.Tuple)
	return ok && tp.Label() == labelCirc
}

// isData reports whether a history event is a data event.
func isData(t trs.Term) bool {
	tp, ok := t.(trs.Tuple)
	return ok && tp.Label() == labelData
}

// initQ returns ||_{x∈P} (x, φ_x): every node with an empty request.
func initQ(n int) trs.Bag {
	elems := make([]trs.Term, n)
	for i := 0; i < n; i++ {
		elems[i] = trs.Pair(node(i), trs.EmptySeq())
	}
	return trs.NewBag(elems...)
}

// initP returns ||_{x∈P} (x, Ø): every node with an empty local history.
func initP(n int) trs.Bag {
	elems := make([]trs.Term, n)
	for i := 0; i < n; i++ {
		elems[i] = trs.Pair(node(i), trs.EmptySeq())
	}
	return trs.NewBag(elems...)
}

// succ returns x^{+k} on a ring of n nodes; k may be negative.
func succ(x trs.Int, k, n int) trs.Int {
	m := (int(x) + k) % n
	if m < 0 {
		m += n
	}
	return trs.Int(m)
}

// appendSeq returns h ⊕ d: the concatenation of two sequences (φ, the empty
// sequence, is the left identity, matching the paper's φ_x convention).
func appendSeq(h, d trs.Seq) trs.Seq {
	out := h
	for i := 0; i < d.Len(); i++ {
		out = out.Append(d.At(i))
	}
	return out
}

// countEvents returns the number of data events and circulation events in h.
func countEvents(h trs.Seq) (data, circ int) {
	for i := 0; i < h.Len(); i++ {
		switch {
		case isData(h.At(i)):
			data++
		case isCirc(h.At(i)):
			circ++
		}
	}
	return data, circ
}

// stripCirc removes circulation events from a history, leaving the pure
// broadcast history the abstract systems reason about.
func stripCirc(h trs.Seq) trs.Seq {
	return h.Project(isData)
}

// projectCirc keeps only circulation events: the paper's "projection onto
// the circular token ring rotation events" used by ⊂_C.
func projectCirc(h trs.Seq) trs.Seq {
	return h.Project(isCirc)
}

// prefixC implements A ⊂_C B: A is a prefix of B once both are projected
// onto circulation events.
func prefixC(a, b trs.Seq) bool {
	return projectCirc(a).IsPrefixOf(projectCirc(b))
}

// pendingTotal sums the pending-queue lengths over a Q bag.
func pendingTotal(q trs.Bag) int {
	total := 0
	for i := 0; i < q.Len(); i++ {
		pair, ok := q.At(i).(trs.Tuple)
		if !ok || pair.Len() != 2 {
			continue
		}
		if s, ok := pair.At(1).(trs.Seq); ok {
			total += s.Len()
		}
	}
	return total
}

// longestSeq returns the longest of the given sequences (the effective
// global history under the chain invariant).
func longestSeq(seqs []trs.Seq) trs.Seq {
	var best trs.Seq
	for _, s := range seqs {
		if s.Len() > best.Len() {
			best = s
		}
	}
	return best
}

// historiesInBag extracts the history component of every (x, H) pair in a
// P-style bag.
func historiesInBag(p trs.Bag) []trs.Seq {
	out := make([]trs.Seq, 0, p.Len())
	for i := 0; i < p.Len(); i++ {
		pair, ok := p.At(i).(trs.Tuple)
		if !ok || pair.Len() != 2 {
			continue
		}
		if s, ok := pair.At(1).(trs.Seq); ok {
			out = append(out, s)
		}
	}
	return out
}

// historiesInMessages extracts histories carried inside token and search
// messages of an I/O-style bag of (node, (peer, payload)) entries.
func historiesInMessages(inOut trs.Bag) []trs.Seq {
	var out []trs.Seq
	for i := 0; i < inOut.Len(); i++ {
		entry, ok := inOut.At(i).(trs.Tuple)
		if !ok || entry.Len() != 2 {
			continue
		}
		inner, ok := entry.At(1).(trs.Tuple)
		if !ok || inner.Len() != 2 {
			continue
		}
		payload, ok := inner.At(1).(trs.Tuple)
		if !ok {
			continue
		}
		switch payload.Label() {
		case labelToken, labelReturn:
			if s, ok := payload.At(0).(trs.Seq); ok {
				out = append(out, s)
			}
		case labelSearch:
			if s, ok := payload.At(1).(trs.Seq); ok {
				out = append(out, s)
			}
		}
	}
	return out
}

// chainError reports a pair of histories that are not prefix-comparable,
// i.e. two nodes that disagree on the global order.
func chainError(seqs []trs.Seq) error {
	for i := range seqs {
		for j := i + 1; j < len(seqs); j++ {
			a, b := seqs[i], seqs[j]
			if !a.IsPrefixOf(b) && !b.IsPrefixOf(a) {
				return fmt.Errorf("histories diverge: %s vs %s", a, b)
			}
		}
	}
	return nil
}
