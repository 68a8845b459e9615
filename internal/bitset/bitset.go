// Package bitset provides a fixed-size bit set with a maintained population
// count. It packs the driver's per-node boolean state — dead, paused,
// membership, pending-leave — 64 nodes to the word, so a 10⁶-node ring
// costs ~122 KiB per flag instead of ~1 MB, and the "how many bits are set"
// questions the driver asks on every step stay O(1).
package bitset

import "math/bits"

// Set is a fixed-length bit set. The zero value has length 0 and no bits;
// use New for a sized set. Not safe for concurrent use.
type Set struct {
	words []uint64
	n     int
	count int
}

// New returns a set of n bits, all clear.
func New(n int) Set {
	if n < 0 {
		n = 0
	}
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the set's capacity in bits (the n passed to New).
func (s *Set) Len() int { return s.n }

// Get reports whether bit i is set. Out-of-range indices read as clear.
func (s *Set) Get(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		return
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&m == 0 {
		s.words[w] |= m
		s.count++
	}
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	if i < 0 || i >= s.n {
		return
	}
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if s.words[w]&m != 0 {
		s.words[w] &^= m
		s.count--
	}
}

// SetTo sets bit i to v.
func (s *Set) SetTo(i int, v bool) {
	if v {
		s.Set(i)
	} else {
		s.Clear(i)
	}
}

// Count returns the number of set bits. O(1): the count is maintained by
// Set/Clear.
func (s *Set) Count() int { return s.count }

// Any reports whether any bit is set.
func (s *Set) Any() bool { return s.count > 0 }

// ClearAll clears every bit, keeping the capacity.
func (s *Set) ClearAll() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// Next returns the index of the first set bit at or after i, or -1 if none.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n || s.count == 0 {
		return -1
	}
	w := i >> 6
	if rem := s.words[w] >> (uint(i) & 63); rem != 0 {
		return i + bits.TrailingZeros64(rem)
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s.words[w])
		}
	}
	return -1
}
