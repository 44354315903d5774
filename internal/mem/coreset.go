package mem

import "math/bits"

// CoreSet is a multi-word bitset over core ids — the generalisation of the
// single-uint64 core masks that capped the machine at 64 cores. A set is
// sized at construction for a fixed core count ((nCores+63)/64 words) and
// every set flowing through one System has that System's width; the
// word-granular operations below assume equal widths.
//
// The zero-length set is valid and empty. All operations are
// allocation-free except NewCoreSet and Clone.
type CoreSet []uint64

// NewCoreSet returns an empty set sized for nCores cores.
func NewCoreSet(nCores int) CoreSet {
	return make(CoreSet, (nCores+63)/64)
}

// Has reports whether core is in the set.
func (s CoreSet) Has(core int) bool {
	w := core >> 6
	return w < len(s) && s[w]&(1<<uint(core&63)) != 0
}

// Add inserts core into the set.
func (s CoreSet) Add(core int) {
	s[core>>6] |= 1 << uint(core&63)
}

// Or unions t into s.
func (s CoreSet) Or(t CoreSet) {
	for i, w := range t {
		s[i] |= w
	}
}

// Count returns the number of cores in the set.
func (s CoreSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s CoreSet) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset clears the set.
func (s CoreSet) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Clone returns an independent copy of the set.
func (s CoreSet) Clone() CoreSet {
	out := make(CoreSet, len(s))
	copy(out, s)
	return out
}

// ForEach calls fn for every member in ascending core-id order.
func (s CoreSet) ForEach(fn func(core int)) {
	for i, w := range s {
		for w != 0 {
			fn(i<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
