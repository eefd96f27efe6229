package ir

import "math/bits"

// RegSet is a set of registers of one body, one bit per register. It
// grows to the highest register added, so a set over a wide register
// file costs only as many words as its highest member needs. The zero
// value is empty. Registers are never negative: Translate numbers them
// from 0.
type RegSet struct{ words []uint64 }

// Add puts register r in the set.
func (s *RegSet) Add(r int) {
	w := r >> 6
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[w] |= 1 << (r & 63)
}

// Remove takes register r out of the set.
func (s *RegSet) Remove(r int) {
	if w := r >> 6; w < len(s.words) {
		s.words[w] &^= 1 << (r & 63)
	}
}

// Has reports whether register r is in the set.
func (s *RegSet) Has(r int) bool {
	w := r >> 6
	return w < len(s.words) && s.words[w]>>(r&63)&1 != 0
}

// Len returns the number of registers in the set.
func (s *RegSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}
