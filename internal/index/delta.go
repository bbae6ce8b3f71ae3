package index

// Incremental index maintenance under document mutation. A mutated
// document snapshot (produced by xmltree's revision layer) differs from
// its base by an explicit node-level change set; ApplyChanges turns the
// base snapshot's index into the new snapshot's index by splicing exactly
// the postings lists those changes touch. The result is an overlay epoch:
// an Index whose top layer holds only the spliced entries, resting on the
// base index's layers, so the untouched majority of the postings —
// typically all but a handful of paths — is shared structurally across
// epochs. Lookups walk the layers newest-first.
//
// The chain is kept short by size, never by a count of writes, so that a
// write pays for the entries it splices and not for the index:
//
//   - A new overlay absorbs the overlays below it for as long as they hold
//     no more than twice its own entries (the logarithmic method). Sizes
//     along the chain therefore more than double from each overlay to the
//     one below, the chain is at most log2 of the accumulated entries
//     long, and an entry is copied once per doubling.
//   - When the overlays together have grown to 1/compactFraction of the
//     complete maps at the bottom, the whole chain is folded into one fresh
//     complete layer. That pass is O(index), and it happens once per
//     O(index) spliced entries — a constant per entry, whatever the
//     document's size. It also lets go of the superseded lists the older
//     overlays still held, and of the node objects of superseded snapshots
//     those lists point to.
//
// Spliced lists are block-compressed like built ones: an overlay entry
// lives until the next compaction, which may be thousands of writes away.
// The commonest
// splice is cheaper than that, though: a clone that replaces its original
// at the same (start, end, level) — every spine clone of an edit, and a
// settext target — leaves the region encoding of its path's list as it
// was, so the new list shares the old one's compressed blocks and takes
// the new document's per-path node array as its pointer array.
//
// The base index's lists are never written, so queries running against
// any older snapshot proceed unperturbed while new epochs are built — the
// copy-on-write contract the delta subsystem's concurrency model rests on.

import (
	"slices"
	"time"

	"xmatch/internal/xmltree"
)

const (
	// compactFraction sets when the overlay chain is folded into a fresh
	// self-contained index: when the overlays hold at least 1/compactFraction
	// of the entries the index below them holds.
	compactFraction = 4
	// compactMinEntries keeps a chain too small to be worth a pass from
	// compacting at all: over a tiny index the fraction above is reached by
	// a single write.
	compactMinEntries = 64
)

// change is the part of a change set that falls under one index key: the
// nodes leaving and entering that key's list, each sorted by start.
type change struct {
	dropped, added []*xmltree.Node
}

// changes groups a change set by index key.
type changes[K comparable] map[K]*change

func (cs changes[K]) of(k K) *change {
	c := cs[k]
	if c == nil {
		c = &change{}
		cs[k] = c
	}
	return c
}

// ApplyChanges derives the index of a mutated document snapshot from the
// index of its base snapshot and the revision's change set. Postings of
// unaffected paths are shared with the base; affected paths and value
// keys get freshly spliced lists. Cached evaluation results whose bound
// paths the change set did not touch are carried over (see carryFrom). The
// receiver is not modified and remains the valid index of its own
// document. The returned index is not yet attached to newDoc; callers
// publish it with Install.
func (ix *Index) ApplyChanges(newDoc *xmltree.Document, cs *xmltree.ChangeSet) *Index {
	start := time.Now()
	nx := &Index{
		doc: newDoc,
		layer: &layer{
			paths:  make(map[string]*PostingList),
			values: make(map[valueKey]*PostingList),
			below:  ix.layer,
		},
		epoch: ix.epoch + 1,
		ctr:   ix.ctr,
		prof:  ix.prof,
		stats: ix.stats,
	}
	nx.stats.Epoch = nx.epoch

	byPath := changes[string]{}
	byValue := changes[valueKey]{}
	each := func(n *xmltree.Node, f func(*change)) {
		f(byPath.of(n.Path))
		if n.Text != "" {
			f(byValue.of(valueKey{n.Path, n.Text}))
		}
	}
	for _, n := range cs.Dropped { // both lists come sorted by start
		each(n, func(c *change) { c.dropped = append(c.dropped, n) })
	}
	for _, n := range cs.Added {
		each(n, func(c *change) { c.added = append(c.added, n) })
	}

	for p, c := range byPath {
		old := ix.list(p)
		nl := splicePath(old, c, newDoc.NodesByPath(p))
		nx.paths[p] = nl
		nx.stats.Postings += nl.Len() - old.Len()
		nx.stats.addPostings(old, nl, len(p))
		switch {
		case old.Len() == 0 && nl.Len() > 0:
			nx.stats.DistinctPaths++
		case old.Len() > 0 && nl.Len() == 0:
			nx.stats.DistinctPaths--
		}
	}
	for k, c := range byValue {
		old := ix.valueList(k)
		nl := splice(old, c)
		nx.values[k] = nl
		nx.stats.addPostings(old, nl, len(k.path)+len(k.text))
		switch {
		case old.Len() == 0 && nl.Len() > 0:
			nx.stats.ValueKeys++
		case old.Len() > 0 && nl.Len() == 0:
			nx.stats.ValueKeys--
		}
	}

	carried, dropped := 0, 0
	if nx.stats.Overlays = nx.settle(); nx.stats.Overlays == 0 {
		// Compacted, and the memo starts empty: carried results reference
		// node objects of superseded snapshots, and a compaction is where
		// those are let go.
		dropped = ix.memo.len()
	} else {
		carried, dropped = nx.memo.carryFrom(&ix.memo, cs.Touched)
	}
	ix.ctr.addMemoCarry(carried, dropped)
	globalCounters.addMemoCarry(carried, dropped)
	nx.stats.BuildTime = time.Since(start)
	return nx
}

// addPostings moves the byte accounting from one version of a list to the
// next; keyBytes is the map key's string footprint, counted while the list
// is non-empty.
func (st *Stats) addPostings(old, nl *PostingList, keyBytes int) {
	dr, df := nl.residentBytes()-old.residentBytes(), nl.flatBytes()-old.flatBytes()
	st.PostingsBytes += dr
	st.PostingsFlatBytes += df
	switch {
	case old.Len() == 0 && nl.Len() > 0:
		dr, df = dr+keyBytes, df+keyBytes
	case old.Len() > 0 && nl.Len() == 0:
		dr, df = dr-keyBytes, df-keyBytes
	}
	st.ResidentBytes += dr
	st.FlatBytes += df
}

// entries is the number of map entries the layer itself holds — for an
// overlay, the entries it has spliced.
func (l *layer) entries() int { return len(l.paths) + len(l.values) }

// settle keeps the chain under the overlay l, not yet published, short by
// the two rules above, and returns the number of layers left below l — 0
// when it folded the whole chain into l.
//
// First l absorbs the overlays below it that are no longer much larger than
// it is: their entries that l has not spliced again move up, and l comes to
// rest on the first layer it left alone. How far down to go is decided
// before anything is copied (the sum of entries stands in for the merged
// size, which shared keys can only shrink), so each merged map is allocated
// once at its final size.
func (l *layer) settle() (depth int) {
	np, nv, stop := len(l.paths), len(l.values), l.below
	for stop.below != nil && stop.entries() <= 2*(np+nv) {
		np, nv = np+len(stop.paths), nv+len(stop.values)
		stop = stop.below
	}
	if stop != l.below {
		paths := make(map[string]*PostingList, np)
		values := make(map[valueKey]*PostingList, nv)
		for x := l; x != stop; x = x.below {
			mergeUnder(paths, x.paths)
			mergeUnder(values, x.values)
		}
		l.paths, l.values, l.below = paths, values, stop
	}
	overlays, bottom := 0, l
	for ; bottom.below != nil; bottom = bottom.below {
		overlays += bottom.entries()
		depth++
	}
	if overlays >= compactMinEntries && overlays*compactFraction >= bottom.entries() {
		l.paths, l.values = l.materialize()
		l.below, depth = nil, 0
	}
	return depth
}

// mergeUnder copies into dst the entries of an older overlay that dst does
// not hold yet.
func mergeUnder[K comparable, V any](dst, older map[K]V) {
	for k, v := range older {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// splicePath splices one path's postings list. nodes is the path's node
// list in the new document. When every change under the path is a clone
// standing at its original's (start, end, level), the list's region
// encoding is unchanged: the result shares old's compressed blocks and
// takes nodes — the same nodes in the same order, by definition — as its
// pointer array, allocating nothing per posting.
func splicePath(old *PostingList, c *change, nodes []*xmltree.Node) *PostingList {
	if old == nil || len(c.dropped) != len(c.added) || len(nodes) != old.count {
		return splice(old, c)
	}
	for i, n := range c.added {
		if o := c.dropped[i]; o.Start != n.Start || o.End != n.End || o.Level != n.Level {
			return splice(old, c)
		}
	}
	// The id is kept: the new list takes over the old one's decode-cache
	// slot (entries verify the list pointer, so the stale decode is evicted,
	// not served).
	nl := *old
	nl.nodes = nodes
	return &nl
}

// splice merges one postings list: the old postings minus those of the
// dropped nodes, interleaved by start number with postings for the added
// nodes. The result is a fresh compressed list in document order, or nil —
// the overlay's deletion marker — when nothing is left.
func splice(old *PostingList, c *change) *PostingList {
	dropped, added := c.dropped, c.added
	obuf, nbuf := getPostingBuf(), getPostingBuf()
	olds := old.appendAll(*obuf)
	out := (*nbuf)[:0]
	for _, p := range olds {
		for len(added) > 0 && added[0].Start < int(p.Start) {
			out = append(out, postingOf(added[0]))
			added = added[1:]
		}
		for len(dropped) > 0 && dropped[0].Start < int(p.Start) {
			dropped = dropped[1:]
		}
		if len(dropped) > 0 && dropped[0] == p.Node {
			dropped = dropped[1:]
			continue
		}
		out = append(out, p)
	}
	for _, n := range added {
		out = append(out, postingOf(n))
	}
	nl := compressPostings(out)
	*obuf, *nbuf = olds, out
	putPostingBuf(obuf)
	putPostingBuf(nbuf)
	return nl
}

func postingOf(n *xmltree.Node) Posting {
	return Posting{Start: int32(n.Start), End: int32(n.End), Level: int32(n.Level), Node: n}
}

func valueKeyLess(a, b valueKey) bool {
	if a.path != b.path {
		return a.path < b.path
	}
	return a.text < b.text
}

// materialize returns the effective maps of the layer chain: the bottom
// layer's complete maps with each overlay applied on top, oldest first (nil
// entries delete). The returned maps are fresh even for a single layer, so
// callers may keep them.
func (l *layer) materialize() (map[string]*PostingList, map[valueKey]*PostingList) {
	var chain []*layer
	for x := l; x != nil; x = x.below {
		chain = append(chain, x)
	}
	slices.Reverse(chain)
	bottom := chain[0] // nearly every entry is the bottom layer's
	paths := make(map[string]*PostingList, len(bottom.paths))
	values := make(map[valueKey]*PostingList, len(bottom.values))
	for _, x := range chain {
		for p, pl := range x.paths {
			if pl.Len() == 0 {
				delete(paths, p)
			} else {
				paths[p] = pl
			}
		}
		for k, pl := range x.values {
			if pl.Len() == 0 {
				delete(values, k)
			} else {
				values[k] = pl
			}
		}
	}
	return paths, values
}
