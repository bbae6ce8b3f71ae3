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
// The postings are xmltree.Layered maps, and xmltree.Settle keeps their
// overlays few by size, never by a count of writes, so that a write pays
// for the entries it splices and not for the index: a new overlay absorbs
// the overlays below it while they hold no more than twice its entries,
// and the chain is folded into one fresh complete map once the overlays
// hold 1/compactFraction of the entries below them. A fold also lets go
// of the superseded lists the older overlays still held, and of the node
// objects of superseded snapshots those lists point to. The path and
// value maps take every decision together, one per epoch.
//
// Spliced lists are block-compressed like built ones: an overlay entry
// lives until the next compaction, which may be thousands of writes away.
// The commonest splice is cheaper than that, though: a clone that
// replaces its original at the same (start, end, level) — every spine
// clone of an edit, and a settext target — leaves the region encoding of
// its path's list as it was, so the new list shares the old one's
// compressed blocks and takes the new document's per-path node array as
// its pointer array.
//
// The base index's lists are never written, so queries running against
// any older snapshot proceed unperturbed while new epochs are built — the
// copy-on-write contract the delta subsystem's concurrency model rests on.

import (
	"cmp"
	"slices"
	"strings"
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

// ApplyChanges derives the index of a mutated document snapshot from the
// index of its base snapshot and the revision's change set. Postings of
// unaffected paths are shared with the base; affected paths and value
// keys get freshly spliced lists. The new epoch shares the receiver's
// result memo and records only the paths the change set touched: an entry
// is checked against them the first time a later epoch uses it (see
// resultMemo). The receiver is not modified and remains the valid index
// of its own document. The returned index is not yet attached to newDoc;
// callers publish it with Install.
func (ix *Index) ApplyChanges(newDoc *xmltree.Document, cs *xmltree.ChangeSet) *Index {
	start := time.Now()
	nx := &Index{
		doc:   newDoc,
		epoch: ix.epoch + 1,
		ctr:   ix.ctr,
		prof:  ix.prof,
		stats: ix.stats,
	}
	nx.stats.Epoch = nx.epoch

	// A path's runs are the change set's own: its lists are grouped by
	// path. A value key's come from its text nodes, sorted by key.
	paths := make([]xmltree.Entry[string, *PostingList], 0, max(len(cs.Dropped), len(cs.Added)))
	xmltree.EachRun(cs.Dropped, cs.Added, xmltree.ComparePaths, func(k *xmltree.Node, dropped, added []*xmltree.Node) {
		p := k.Path
		old := ix.paths.Get(p)
		nl := splicePath(old, dropped, added, newDoc.NodesByPath(p))
		paths = append(paths, xmltree.Entry[string, *PostingList]{Key: p, Val: nl})
		nx.stats.Postings += nl.Len() - old.Len()
		nx.stats.DistinctPaths += nx.stats.addPostings(old, nl, len(p))
	})
	textDropped, textAdded := textNodes(cs.Dropped), textNodes(cs.Added)
	values := make([]xmltree.Entry[valueKey, *PostingList], 0, max(len(textDropped), len(textAdded)))
	xmltree.EachRun(textDropped, textAdded, compareValues, func(n *xmltree.Node, dropped, added []*xmltree.Node) {
		k := valueKey{n.Path, n.Text}
		old := ix.values.Get(k)
		nl := splice(old, dropped, added)
		values = append(values, xmltree.Entry[valueKey, *PostingList]{Key: k, Val: nl})
		nx.stats.ValueKeys += nx.stats.addPostings(old, nl, len(k.path)+len(k.text))
	})
	nx.paths, nx.values = ix.paths.With(paths), ix.values.With(values)

	m := ix.memo.Load()
	if nx.stats.Overlays = xmltree.Settle(compactFraction, compactMinEntries, &nx.paths, &nx.values); nx.stats.Overlays == 0 {
		// Compacted, and the memo starts empty: carried results reference
		// node objects of superseded snapshots, and a compaction is where
		// those are let go.
		dropped := m.len()
		ix.ctr.addMemoCarry(0, dropped)
		globalCounters.addMemoCarry(0, dropped)
		m = new(resultMemo)
	} else if ix.derived.CompareAndSwap(false, true) {
		prev := ix.write
		if nx.epoch%maxWriteRecords == 0 {
			prev = nil
		}
		nx.write = &writeRecord{epoch: nx.epoch, touched: cs.Touched, prev: prev}
	} else {
		m = new(resultMemo) // a second successor of ix: its epoch's stamps are taken
	}
	nx.memo.Store(m)
	nx.stats.BuildTime = time.Since(start)
	return nx
}

// textNodes returns the nodes of list that carry text, sorted by value
// key and then by start.
func textNodes(list []*xmltree.Node) []*xmltree.Node {
	var out []*xmltree.Node
	for _, n := range list {
		if n.Text != "" {
			out = append(out, n)
		}
	}
	slices.SortFunc(out, func(a, b *xmltree.Node) int { return cmp.Or(compareValues(a, b), a.Start-b.Start) })
	return out
}

func compareValues(a, b *xmltree.Node) int {
	return compareValueKeys(valueKey{a.Path, a.Text}, valueKey{b.Path, b.Text})
}

// addPostings moves the byte accounting from one version of a list to the
// next, and returns the change in distinct keys: keyBytes is the map key's
// string footprint, counted while the list is non-empty.
func (st *Stats) addPostings(old, nl *PostingList, keyBytes int) (keys int) {
	switch {
	case old.Len() == 0 && nl.Len() > 0:
		keys = 1
	case old.Len() > 0 && nl.Len() == 0:
		keys = -1
	}
	dr, df := nl.residentBytes()-old.residentBytes(), nl.flatBytes()-old.flatBytes()
	st.PostingsBytes += dr
	st.PostingsFlatBytes += df
	st.ResidentBytes += dr + keys*keyBytes
	st.FlatBytes += df + keys*keyBytes
	return keys
}

// splicePath splices one path's postings list. nodes is the path's node
// list in the new document. When every change under the path is a clone
// standing at its original's (start, end, level), the list's region
// encoding is unchanged: the result shares old's compressed blocks and
// takes nodes — the same nodes in the same order, by definition — as its
// pointer array, allocating nothing per posting.
func splicePath(old *PostingList, dropped, added, nodes []*xmltree.Node) *PostingList {
	if old == nil || len(dropped) != len(added) || len(nodes) != old.count {
		return splice(old, dropped, added)
	}
	for i, n := range added {
		if o := dropped[i]; o.Start != n.Start || o.End != n.End || o.Level != n.Level {
			return splice(old, dropped, added)
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
func splice(old *PostingList, dropped, added []*xmltree.Node) *PostingList {
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

func compareValueKeys(a, b valueKey) int {
	if c := strings.Compare(a.path, b.path); c != 0 {
		return c
	}
	return strings.Compare(a.text, b.text)
}
