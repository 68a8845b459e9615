package trs

// Match enumerates every way pattern p can match term t, starting from
// binding b. For each successful match it calls yield with the extended
// binding; if yield returns false, enumeration stops early and Match
// returns false. Multiple matches arise from bag patterns, where each
// element pattern may be satisfied by different multiset members.
//
// PCompute nodes never match: they are template-only.
func Match(p Pattern, t Term, b Binding, yield func(Binding) bool) bool {
	switch q := p.(type) {
	case PVar:
		if prev, ok := b.Get(q.Name); ok {
			// Non-linear pattern: repeated variables must match
			// equal terms.
			if !Equal(prev, t) {
				return true
			}
			return yield(b)
		}
		return yield(b.Bind(q.Name, t))
	case PLit:
		if !Equal(q.Value, t) {
			return true
		}
		return yield(b)
	case PTuple:
		tt, ok := t.(Tuple)
		if !ok || tt.label != q.Label || len(tt.elems) != len(q.Elems) {
			return true
		}
		return matchSlice(q.Elems, tt.elems, b, yield)
	case PBag:
		bt, ok := t.(Bag)
		if !ok {
			return true
		}
		if q.Rest == "" && bt.Len() != len(q.Elems) {
			return true
		}
		if bt.Len() < len(q.Elems) {
			return true
		}
		return matchBag(q, bt, b, yield)
	case PCompute:
		return true
	default:
		return true
	}
}

// MatchAll collects every binding under which p matches t.
func MatchAll(p Pattern, t Term) []Binding {
	var out []Binding
	Match(p, t, EmptyBinding(), func(b Binding) bool {
		out = append(out, b)
		return true
	})
	return out
}

// matchSlice matches patterns against terms position by position,
// enumerating the cross-product of alternatives.
func matchSlice(ps []Pattern, ts []Term, b Binding, yield func(Binding) bool) bool {
	if len(ps) == 0 {
		return yield(b)
	}
	return Match(ps[0], ts[0], b, func(b2 Binding) bool {
		return matchSlice(ps[1:], ts[1:], b2, yield)
	})
}

// matchBag assigns each element pattern to a distinct bag member, in every
// possible way, binding the unassigned members to the rest variable.
func matchBag(q PBag, bag Bag, b Binding, yield func(Binding) bool) bool {
	used := make([]bool, bag.Len())
	var rec func(pi int, b Binding) bool
	rec = func(pi int, b Binding) bool {
		if pi == len(q.Elems) {
			if q.Rest == "" {
				return yield(b)
			}
			rest := make([]Term, 0, bag.Len()-len(q.Elems))
			for i, u := range used {
				if !u {
					rest = append(rest, bag.elems[i])
				}
			}
			return bindChecked(b, q.Rest, Bag{elems: rest}, yield)
		}
		for i := range bag.elems {
			if used[i] {
				continue
			}
			used[i] = true
			cont := Match(q.Elems[pi], bag.elems[i], b, func(b2 Binding) bool {
				return rec(pi+1, b2)
			})
			used[i] = false
			if !cont {
				return false
			}
		}
		return true
	}
	return rec(0, b)
}

// bindChecked binds name to t unless name is already bound, in which case
// the existing term must be equal (non-linear rest variables).
func bindChecked(b Binding, name string, t Term, yield func(Binding) bool) bool {
	if prev, ok := b.Get(name); ok {
		if !Equal(prev, t) {
			return true
		}
		return yield(b)
	}
	return yield(b.Bind(name, t))
}
