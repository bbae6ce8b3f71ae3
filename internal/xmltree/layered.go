package xmltree

import (
	"maps"
	"slices"
)

// Layered is a map that a write updates without copying it: a complete
// map at the bottom under a few overlays, each a key-sorted array of the
// entries later writes replaced (a value of length zero deletes its key).
// A lookup binary-searches the overlays, newest first, then reads the
// bottom; with no overlay it is one map lookup. With returns a new map
// and leaves its receiver valid, so versions share layers, never each
// other, and Settle keeps the overlays few by size: the logarithmic method
// of Bentley and Saxe ("Decomposable searching problems I: static-to-
// dynamic transformation", J. Algorithms 1, 1980). A document's path index
// and an index's path and value postings are Layered maps.
type Layered[K comparable, V sized] struct {
	bottom   map[K]V
	overlays [][]Entry[K, V] // newest first
	cmp      func(a, b K) int
}

type sized interface{ Len() int }

// Entry is one key and its value.
type Entry[K, V any] struct {
	Key K
	Val V
}

// NewLayered returns a Layered map over bottom, whose keys cmp orders.
// Nobody may write bottom after.
func NewLayered[K comparable, V sized](bottom map[K]V, cmp func(a, b K) int) Layered[K, V] {
	return Layered[K, V]{bottom: bottom, cmp: cmp}
}

// Get returns k's value, or the zero V when the map does not hold k. The
// overlay search is a call of its own, so that Get inlines and a map with
// no overlay costs its caller one map lookup.
func (m *Layered[K, V]) Get(k K) V {
	if len(m.overlays) == 0 {
		return m.bottom[k]
	}
	return m.search(k)
}

func (m *Layered[K, V]) search(k K) V {
	for _, o := range m.overlays {
		i, j := 0, len(o)
		for i < j {
			if h := int(uint(i+j) >> 1); m.cmp(o[h].Key, k) < 0 {
				i = h + 1
			} else {
				j = h
			}
		}
		if i < len(o) && o[i].Key == k {
			return o[i].Val
		}
	}
	return m.bottom[k]
}

// With returns the map with top laid over it as its newest overlay. top
// must be sorted by key with one entry per key; the new map owns it.
func (m Layered[K, V]) With(top []Entry[K, V]) Layered[K, V] {
	m.overlays = append(append(make([][]Entry[K, V], 0, len(m.overlays)+1), top), m.overlays...)
	return m
}

// Sorted returns the map's entries in key order, in a fresh array.
func (m *Layered[K, V]) Sorted() []Entry[K, V] {
	all := m.bottom
	if len(m.overlays) > 0 {
		all = m.materialize()
	}
	out := make([]Entry[K, V], 0, len(all))
	for k, v := range all {
		out = append(out, Entry[K, V]{k, v})
	}
	slices.SortFunc(out, func(a, b Entry[K, V]) int { return m.cmp(a.Key, b.Key) })
	return out
}

// Keys returns the map's keys in order, in a fresh array.
func (m *Layered[K, V]) Keys() []K {
	entries := m.Sorted()
	keys := make([]K, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// materialize returns a fresh map: the bottom with each overlay applied.
func (m *Layered[K, V]) materialize() map[K]V {
	out := maps.Clone(m.bottom)
	for i := len(m.overlays) - 1; i >= 0; i-- {
		for _, e := range m.overlays[i] {
			if e.Val.Len() == 0 {
				delete(out, e.Key)
			} else {
				out[e.Key] = e.Val
			}
		}
	}
	return out
}

// layers is what Settle needs of a Layered map, whatever its types.
type layers interface {
	depth() int     // the number of overlays
	size(i int) int // entries of overlay i, newest first; i == depth() is the bottom
	absorb(k int)   // merge the newest k overlays into one
	fold()          // apply every overlay to a fresh bottom
}

func (m *Layered[K, V]) depth() int { return len(m.overlays) }

func (m *Layered[K, V]) size(i int) int {
	if i == len(m.overlays) {
		return len(m.bottom)
	}
	return len(m.overlays[i])
}

// absorb merges the sorted heads of the newest k overlays: the smallest
// key goes next, from the newest overlay holding it.
func (m *Layered[K, V]) absorb(k int) {
	runs, n := m.overlays[:k], 0
	for _, o := range runs {
		n += len(o)
	}
	merged := make([]Entry[K, V], 0, n)
	for {
		next := -1
		for i, o := range runs {
			if len(o) > 0 && (next < 0 || m.cmp(o[0].Key, runs[next][0].Key) < 0) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		e := runs[next][0]
		merged = append(merged, e)
		for i := next; i < k; i++ {
			if o := runs[i]; len(o) > 0 && o[0].Key == e.Key {
				runs[i] = o[1:]
			}
		}
	}
	m.overlays[0] = merged
	m.overlays = slices.Delete(m.overlays, 1, k)
}

func (m *Layered[K, V]) fold() { m.bottom, m.overlays = m.materialize(), nil }

// Settle keeps the overlays of maps fresh from With few by size, so that
// a write pays for the entries it replaced and not for the map, and
// returns how many are left. The maps gained their newest overlays from
// one write and settle together, by each layer's entries summed over them.
//   - The newest overlay absorbs those below it while they hold no more
//     than twice its entries. Sizes then more than double down the chain:
//     there are at most log2 of the entries, and an entry is copied once
//     per doubling.
//   - Once the overlays hold floor entries and 1/fraction of the bottom's,
//     all are folded into a fresh bottom (0 left): a pass over the map once
//     per that many replaced entries, which lets go of superseded values.
func Settle(fraction, floor int, ms ...layers) int {
	size := func(i int) (n int) {
		for _, m := range ms {
			n += m.size(i)
		}
		return n
	}
	// The sum stands in for the merged size, which shared keys only shrink.
	n, k := size(0), 1
	for ; k < ms[0].depth() && size(k) <= 2*n; k++ {
		n += size(k)
	}
	if k > 1 {
		for _, m := range ms {
			m.absorb(k)
		}
	}
	depth, overlays := ms[0].depth(), 0
	for i := 0; i < depth; i++ {
		overlays += size(i)
	}
	if overlays >= floor && overlays*fraction >= size(depth) {
		for _, m := range ms {
			m.fold()
		}
		return 0
	}
	return depth
}
