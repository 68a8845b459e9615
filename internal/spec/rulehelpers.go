package spec

import "adaptivetoken/internal/trs"

// Pattern/template helpers shared by the system encodings. Rule variables
// follow the paper's names: x, y, z nodes; dx pending data; H, Hz histories;
// Q, P, I, O, W the rest of the respective multisets.

// pairPat matches a (x, v) pair inside a bag.
func pairPat(x, v string) trs.Pattern { return trs.Tup(trs.V(x), trs.V(v)) }

// bagWith matches a bag as one distinguished (x, v) pair plus rest.
func bagWith(rest, x, v string) trs.Pattern {
	return trs.BagOf(rest, pairPat(x, v))
}

// restPlusPair rebuilds bag rest ∪ {(x, v)} where v is computed.
func restPlusPair(rest, x string, v func(trs.Binding) trs.Term) trs.Pattern {
	return trs.Compute(rest+"|("+x+",·)", func(b trs.Binding) trs.Term {
		return b.Bag(rest).Add(trs.Pair(b.MustGet(x), v(b)))
	})
}

// restPlusReset rebuilds bag rest ∪ {(x, φ)}: the broadcast reset.
func restPlusReset(rest, x string) trs.Pattern {
	return restPlusPair(rest, x, func(trs.Binding) trs.Term { return trs.EmptySeq() })
}

// appendedHistory computes H ⊕ d_x from bound sequence variables.
func appendedHistory(h, dx string) func(trs.Binding) trs.Term {
	return func(b trs.Binding) trs.Term {
		return appendSeq(b.Seq(h), b.Seq(dx))
	}
}

// tokenMsg builds the regular token payload carrying history h.
func tokenMsg(h trs.Seq) trs.Term { return trs.NewTuple(labelToken, h) }

// returnMsg builds the decorated (ŷ) token payload: use once and return.
func returnMsg(h trs.Seq) trs.Term { return trs.NewTuple(labelReturn, h) }

// searchMsg builds the gimme payload: hop window n, requester history hz,
// requester z.
func searchMsg(n trs.Int, hz trs.Seq, z trs.Term) trs.Term {
	return trs.NewTuple(labelSearch, n, hz, z)
}

// outEntry builds an output-set entry (from, (to, payload)).
func outEntry(from, to, payload trs.Term) trs.Term {
	return trs.Pair(from, trs.Pair(to, payload))
}

// trap builds the trap record τ_z stored at a node.
func trap(z trs.Term) trs.Term { return trs.NewTuple("τ", z) }

// trapAt builds the W entry (x, τ_z).
func trapAt(x, z trs.Term) trs.Term { return trs.Pair(x, trap(z)) }

// hasTrap reports whether bag w contains (x, τ_z).
func hasTrap(w trs.Bag, x, z trs.Term) bool {
	want := trapAt(x, z)
	for i := 0; i < w.Len(); i++ {
		if trs.Equal(w.At(i), want) {
			return true
		}
	}
	return false
}

// hasTrapFor reports whether any node holds a trap for z.
func hasTrapFor(w trs.Bag, z trs.Term) bool {
	for i := 0; i < w.Len(); i++ {
		entry, ok := w.At(i).(trs.Tuple)
		if !ok || entry.Len() != 2 {
			continue
		}
		tr, ok := entry.At(1).(trs.Tuple)
		if !ok || tr.Label() != "τ" || tr.Len() != 1 {
			continue
		}
		if trs.Equal(tr.At(0), z) {
			return true
		}
	}
	return false
}

// hasSearchFor reports whether an I/O-style bag carries a search message on
// behalf of requester z.
func hasSearchFor(inOut trs.Bag, z trs.Term) bool {
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
		if !ok || payload.Label() != labelSearch || payload.Len() != 3 {
			continue
		}
		if trs.Equal(payload.At(2), z) {
			return true
		}
	}
	return false
}

// distributedHistories collects every history present in a distributed
// state: local prefix histories in P plus histories in flight inside I/O.
func distributedHistories(p, in, out trs.Bag) []trs.Seq {
	seqs := historiesInBag(p)
	seqs = append(seqs, historiesInMessages(in)...)
	seqs = append(seqs, historiesInMessages(out)...)
	return seqs
}

// generated counts all data items ever created in a distributed state:
// data events in the longest history plus pending queue contents.
func generated(q trs.Bag, histories []trs.Seq) int {
	data, _ := countEvents(longestSeq(histories))
	return data + pendingTotal(q)
}

// transitRule is the message-passing rule shared by the distributed
// systems: O | (x, (y, m)) moves to I | (y, (x, m)). The label and arity of
// the state tuple vary per system, so the caller supplies the field layout:
// pre/post are the state fields before/after I and O in the tuple.
func transitRule(label string, pre []string, post []string) trs.Rule {
	lhs := make([]trs.Pattern, 0, len(pre)+2+len(post))
	rhs := make([]trs.Pattern, 0, len(pre)+2+len(post))
	for _, f := range pre {
		lhs = append(lhs, trs.V(f))
		rhs = append(rhs, trs.V(f))
	}
	lhs = append(lhs,
		trs.V("I"),
		trs.BagOf("O", trs.Tup(trs.V("x"), trs.Tup(trs.V("y"), trs.V("m")))),
	)
	rhs = append(rhs,
		trs.Compute("I|(y,(x,m))", func(b trs.Binding) trs.Term {
			return b.Bag("I").Add(trs.Pair(b.MustGet("y"), trs.Pair(b.MustGet("x"), b.MustGet("m"))))
		}),
		trs.V("O"),
	)
	for _, f := range post {
		lhs = append(lhs, trs.V(f))
		rhs = append(rhs, trs.V(f))
	}
	return trs.Rule{
		Name: "2",
		LHS:  trs.LTup(label, lhs...),
		RHS:  trs.LTup(label, rhs...),
	}
}
