package mapping

import (
	"math/bits"
	"strconv"
	"strings"
)

// IDSet is a fixed-universe bitset of mapping IDs [0, n). It backs the b.M
// component of blocks: Algorithm 2 of the paper is dominated by
// intersections of mapping-ID sets, which bitsets perform word-parallel.
// The zero value is unusable; create with NewIDSet.
type IDSet struct {
	words []uint64
}

// NewIDSet returns an empty set over the universe [0, n).
func NewIDSet(n int) *IDSet {
	return &IDSet{words: make([]uint64, (n+63)/64)}
}

// Add inserts id into the set.
func (s *IDSet) Add(id int) { s.words[id>>6] |= 1 << (uint(id) & 63) }

// Has reports whether id is in the set.
func (s *IDSet) Has(id int) bool { return s.words[id>>6]&(1<<(uint(id)&63)) != 0 }

// Len returns the number of elements in the set.
func (s *IDSet) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of the set.
func (s *IDSet) Clone() *IDSet {
	return &IDSet{words: append([]uint64(nil), s.words...)}
}

// IntersectWith replaces s with s ∩ o and returns s.
func (s *IDSet) IntersectWith(o *IDSet) *IDSet {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
	return s
}

// Intersect returns a new set s ∩ o.
func (s *IDSet) Intersect(o *IDSet) *IDSet { return s.Clone().IntersectWith(o) }

// IDs returns the members in ascending order.
func (s *IDSet) IDs() []int {
	out := make([]int, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// Bytes returns the storage footprint of the set in the byte-size model of
// the compression-ratio metric (one 64-bit word per 64 universe slots).
func (s *IDSet) Bytes() int { return 8 * len(s.words) }

// String renders the set as "{0,3,17}".
func (s *IDSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.IDs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(id))
	}
	b.WriteByte('}')
	return b.String()
}
