package xmltree

// This file implements the document mutation substrate behind the
// immutable-query API: a Revision is a copy-on-write edit session over one
// Document snapshot. Edits clone only the nodes they touch (the spine from
// the root to the edited node, plus the subtree whose labels, paths, or
// interval numbers change); every other node object — and hence every index
// posting holding a pointer to it — is shared with the base snapshot.
// Commit assembles a fresh Document around the partially-shared tree and
// reports exactly which node objects entered and left the document, which
// is what internal/index needs to splice its postings instead of
// rebuilding.
//
// Interval numbers come from the gaps the stride-Gap numbering leaves
// between existing boundaries (see Gap). An insertion takes numbers from
// the gap between its neighbours; only when a gap is exhausted does the
// revision renumber — and then only the subtree of the nearest ancestor
// with enough slack, cloning that subtree so the base snapshot's numbering
// is untouched. A full-document renumbering happens only when the root
// interval itself runs out of room.

import (
	"fmt"
	"slices"
	"sort"
)

// Revision is an in-progress copy-on-write edit batch over a base
// document. It is single-goroutine; the base document is only read. Apply
// edits through InsertSubtree, DeleteSubtree, Rename, and SetText, then
// call Commit for the resulting snapshot. A revision abandoned before
// Commit leaves no trace.
type Revision struct {
	base *Document
	root *Node // current root (cloned lazily)

	// owned holds the nodes created by this revision, each mapped to the
	// base-snapshot node it is a clone of (nil for an inserted node).
	owned   map[*Node]*Node
	dropped []*Node // base-snapshot nodes no longer in the document
}

// ChangeSet reports a committed revision's node-level delta: the node
// objects that left the document (deleted nodes, plus originals superseded
// by clones) and those that entered it (clones, plus inserted nodes). A
// node whose position, label, path, and text are all unchanged appears in
// neither list. Added is in the new snapshot's document order, Dropped in
// the base snapshot's (the start numbers the nodes carry).
//
// Most entries of a change set are not changes a query can observe: every
// edit clones the spine from the root to its target, and a clone that
// equals its original in Start, End, Level, Path, Label and Text is a
// position-identical replacement — a new object standing exactly where the
// old one stood. Touched lists, sorted, the dotted paths that changed
// semantically: the paths of every added or dropped node that is not such
// a replacement (a settext target, inserted, deleted, renamed and
// renumbered nodes; a rename touches the old path and the new one). The
// nodes of every other path have, position by position, the fields above
// unchanged — the guarantee a cache of per-path results needs to outlive
// the write.
type ChangeSet struct {
	Dropped []*Node
	Added   []*Node
	Touched []string
}

// samePosition reports whether clone c is a position-identical replacement
// of its original o: equal in every field a consumer of query results may
// read. Children are not compared: a clone shares its original's children
// until an edit below it clones them too.
func samePosition(c, o *Node) bool {
	return c.Start == o.Start && c.End == o.End && c.Level == o.Level &&
		c.Path == o.Path && c.Label == o.Label && c.Text == o.Text
}

// BeginRevision opens a copy-on-write edit session over the document. The
// document itself is never modified.
func (d *Document) BeginRevision() *Revision {
	return &Revision{base: d, root: d.Root, owned: make(map[*Node]*Node)}
}

// clone makes an owned copy of n, sharing n's children, and records n as
// dropped.
func (r *Revision) clone(n *Node) *Node {
	c := &Node{
		Label:    n.Label,
		Text:     n.Text,
		Children: append([]*Node(nil), n.Children...),
		Start:    n.Start,
		End:      n.End,
		Level:    n.Level,
		Path:     n.Path,
	}
	r.owned[c] = n
	r.dropped = append(r.dropped, n)
	return c
}

func (r *Revision) isOwned(n *Node) bool {
	_, ok := r.owned[n]
	return ok
}

// childIndex returns the index of the child of p whose interval contains
// start (or whose Start equals it), or -1.
func childIndex(p *Node, start int) int {
	i := sort.Search(len(p.Children), func(i int) bool { return p.Children[i].Start > start }) - 1
	if i >= 0 && start <= p.Children[i].End {
		return i
	}
	return -1
}

// spine returns the chain of current nodes from the root to the node whose
// Start equals start, or nil when no such node exists. Descending by
// interval containment keeps the walk on current objects even where the
// tree shares subtrees with older snapshots.
func (r *Revision) spine(start int) []*Node {
	n := r.root
	if start < n.Start || start > n.End {
		return nil
	}
	chain := []*Node{n}
	for n.Start != start {
		i := childIndex(n, start)
		if i < 0 {
			return nil
		}
		n = n.Children[i]
		chain = append(chain, n)
	}
	if n.Start != start {
		return nil
	}
	return chain
}

// Locate returns the current node with the given preorder start number, or
// nil. The returned node must be treated as read-only.
func (r *Revision) Locate(start int) *Node {
	chain := r.spine(start)
	if chain == nil {
		return nil
	}
	return chain[len(chain)-1]
}

// LocateByPath returns the ordinal-th node (0-based, document order) whose
// dotted label path equals path in the revision's current tree, or nil.
// Until the revision's first edit its tree is the base snapshot's, whose
// path index answers directly; afterwards the tree is walked.
func (r *Revision) LocateByPath(path string, ordinal int) *Node {
	if ordinal < 0 {
		return nil
	}
	if len(r.owned) == 0 && len(r.dropped) == 0 {
		if list := r.base.NodesByPath(path); ordinal < len(list) {
			return list[ordinal]
		}
		return nil
	}
	var found *Node
	seen := 0
	var walk func(n *Node)
	walk = func(n *Node) {
		if found != nil {
			return
		}
		if n.Path == path {
			if seen == ordinal {
				found = n
				return
			}
			seen++
			// A node's path strictly extends its ancestors', so no
			// descendant can share it; descending further is wasted work.
			return
		}
		// Only children whose path could prefix the target are worth
		// visiting: every node's Path extends its parent's by one label.
		for _, c := range n.Children {
			if len(c.Path) <= len(path) && path[:len(c.Path)] == c.Path {
				walk(c)
			}
		}
	}
	walk(r.root)
	return found
}

// own clones every non-owned node along the spine to start, returning the
// chain of owned current nodes root..target, or nil when start resolves to
// no node.
func (r *Revision) own(start int) []*Node {
	chain := r.spine(start)
	if chain == nil {
		return nil
	}
	for i, n := range chain {
		if r.isOwned(n) {
			continue
		}
		c := r.clone(n)
		if i == 0 {
			r.root = c
		} else {
			parent := chain[i-1]
			parent.Children[childIndex(parent, n.Start)] = c
		}
		chain[i] = c
	}
	return chain
}

// ownSubtree makes every node of the subtree rooted at the owned node n
// owned, cloning shared descendants in place.
func (r *Revision) ownSubtree(n *Node) {
	for i, c := range n.Children {
		if !r.isOwned(c) {
			c = r.clone(c)
			n.Children[i] = c
		}
		r.ownSubtree(c)
	}
}

// SetText replaces the text of the node with the given start number.
func (r *Revision) SetText(start int, text string) error {
	chain := r.own(start)
	if chain == nil {
		return fmt.Errorf("xmltree: revision: no node with start %d", start)
	}
	chain[len(chain)-1].Text = text
	return nil
}

// Rename replaces the label of the node with the given start number. The
// node's dotted path — and every descendant's — changes with it, so the
// whole subtree is cloned.
func (r *Revision) Rename(start int, label string) error {
	if label == "" {
		return fmt.Errorf("xmltree: revision: empty label")
	}
	chain := r.own(start)
	if chain == nil {
		return fmt.Errorf("xmltree: revision: no node with start %d", start)
	}
	n := chain[len(chain)-1]
	n.Label = label
	r.ownSubtree(n)
	prefix := ""
	if len(chain) > 1 {
		prefix = chain[len(chain)-2].Path
	}
	repath(n, prefix)
	return nil
}

// repath rewrites the dotted paths of an owned subtree below the given
// parent path prefix.
func repath(n *Node, prefix string) {
	if prefix == "" {
		n.Path = n.Label
	} else {
		n.Path = prefix + "." + n.Label
	}
	for _, c := range n.Children {
		repath(c, n.Path)
	}
}

// DeleteSubtree removes the node with the given start number and its
// entire subtree. The root cannot be deleted.
func (r *Revision) DeleteSubtree(start int) error {
	chain := r.spine(start)
	if chain == nil {
		return fmt.Errorf("xmltree: revision: no node with start %d", start)
	}
	if len(chain) == 1 {
		return fmt.Errorf("xmltree: revision: cannot delete the document root")
	}
	// Own the spine up to the parent; the deleted subtree itself needs no
	// clones, only bookkeeping.
	parentChain := r.own(chain[len(chain)-2].Start)
	parent := parentChain[len(parentChain)-1]
	i := childIndex(parent, start)
	target := parent.Children[i]
	parent.Children = append(parent.Children[:i:i], parent.Children[i+1:]...)
	r.dropSubtree(target)
	return nil
}

// dropSubtree records every node of a detached subtree as gone: shared
// nodes are dropped from the document, revision-owned nodes simply cease
// to be additions.
func (r *Revision) dropSubtree(n *Node) {
	if r.isOwned(n) {
		delete(r.owned, n)
	} else {
		r.dropped = append(r.dropped, n)
	}
	for _, c := range n.Children {
		r.dropSubtree(c)
	}
}

// InsertSubtree inserts a freshly built node tree (for example the root of
// a parsed fragment; it must not belong to any document) as a child of the
// node with the given parent start number, at child position pos (clamped;
// negative appends). The subtree's interval numbers are drawn from the gap
// between its new neighbours; when the gap is too small, the nearest
// enclosing ancestor subtree with enough numbering slack is renumbered.
func (r *Revision) InsertSubtree(parentStart, pos int, sub *Node) error {
	if sub == nil {
		return fmt.Errorf("xmltree: revision: nil subtree")
	}
	chain := r.own(parentStart)
	if chain == nil {
		return fmt.Errorf("xmltree: revision: no node with start %d", parentStart)
	}
	parent := chain[len(chain)-1]
	if pos < 0 || pos > len(parent.Children) {
		pos = len(parent.Children)
	}
	// Adopt the fresh subtree: every node becomes owned, with levels and
	// paths derived from the insertion point. Interval numbers come later.
	var adopt func(n, p *Node)
	adopt = func(n, p *Node) {
		n.Level = p.Level + 1
		if p.Path == "" {
			n.Path = n.Label
		} else {
			n.Path = p.Path + "." + n.Label
		}
		r.owned[n] = nil
		for _, c := range n.Children {
			adopt(c, n)
		}
	}
	adopt(sub, parent)
	parent.Children = append(parent.Children[:pos:pos], append([]*Node{sub}, parent.Children[pos:]...)...)

	// Boundaries of the gap the new subtree must fit in.
	lo, hi := parent.Start, parent.End
	if pos > 0 {
		lo = parent.Children[pos-1].End
	}
	if pos+1 < len(parent.Children) {
		hi = parent.Children[pos+1].Start
	}
	m := countNodes(sub)
	if hi-lo-1 >= 2*m {
		numberInto(sub, lo, hi)
		return nil
	}
	r.renumberNear(chain)
	return nil
}

// countNodes returns the number of nodes in the subtree rooted at n.
func countNodes(n *Node) int {
	c := 1
	for _, ch := range n.Children {
		c += countNodes(ch)
	}
	return c
}

// numberInto assigns interval numbers to the subtree rooted at n, spreading
// its 2·m boundaries evenly across the open interval (lo, hi). The caller
// guarantees hi-lo-1 >= 2·m, so consecutive boundaries stay strictly
// increasing.
func numberInto(n *Node, lo, hi int) {
	m := countNodes(n)
	span := hi - lo
	k := 0
	var assign func(x *Node)
	assign = func(x *Node) {
		k++
		x.Start = lo + k*span/(2*m+1)
		for _, c := range x.Children {
			assign(c)
		}
		k++
		x.End = lo + k*span/(2*m+1)
	}
	assign(n)
}

// renumberNear handles gap exhaustion after an insert (the new subtree is
// already attached, so node counts below include it): walking the (owned)
// spine bottom-up, it finds the nearest non-root ancestor whose interval
// still has 2x numbering slack — slack so the next few inserts in the
// same region stay renumbering-free — clones that ancestor's subtree, and
// renumbers it in place. When no ancestor qualifies, the whole document
// is renumbered with fresh stride-Gap boundaries (the root's own End
// moves, which no interval below constrains).
func (r *Revision) renumberNear(chain []*Node) {
	for i := len(chain) - 1; i > 0; i-- {
		a := chain[i]
		desc := countNodes(a) - 1 // boundaries to place: 2 per descendant
		if a.End-a.Start-1 < 4*desc {
			continue
		}
		r.ownSubtree(a)
		renumberChildren(a)
		return
	}
	// Renumber the whole document with fresh gaps, preserving the
	// numbering base so a collection member stays inside its offset range.
	root := chain[0]
	r.ownSubtree(root)
	counter := r.base.numBase
	var assign func(n *Node)
	assign = func(n *Node) {
		counter += Gap
		n.Start = counter
		for _, c := range n.Children {
			assign(c)
		}
		counter += Gap
		n.End = counter
	}
	assign(root)
}

// renumberChildren redistributes the interval numbers of a's descendants
// evenly across a's own (unchanged) interval.
func renumberChildren(a *Node) {
	desc := countNodes(a) - 1
	if desc == 0 {
		return
	}
	span := a.End - a.Start
	k := 0
	var assign func(x *Node)
	assign = func(x *Node) {
		k++
		x.Start = a.Start + k*span/(2*desc+1)
		for _, c := range x.Children {
			assign(c)
		}
		k++
		x.End = a.Start + k*span/(2*desc+1)
	}
	for _, c := range a.Children {
		assign(c)
	}
}

// Commit assembles the revised snapshot: a new Document sharing every
// untouched node with the base, plus the change set internal/index needs
// to splice its postings. The base document and any snapshot published
// from it remain fully usable. Committing a revision twice, or using it
// after Commit, is invalid.
func (r *Revision) Commit() (*Document, *ChangeSet) {
	cs := &ChangeSet{Dropped: r.dropped}
	slices.SortFunc(cs.Dropped, byStart)
	cs.Added = make([]*Node, 0, len(r.owned))
	touched := make(map[string]bool)
	replaced := make(map[*Node]bool, len(r.owned)) // originals a position-identical clone stands in for
	for n, orig := range r.owned {
		cs.Added = append(cs.Added, n)
		if orig != nil && samePosition(n, orig) {
			replaced[orig] = true
		} else {
			touched[n.Path] = true
		}
	}
	slices.SortFunc(cs.Added, byStart)

	// The path index becomes an overlay over the base document's: only
	// the affected paths get freshly spliced lists (nil marks a path that
	// disappeared); every other lookup falls through the chain. An added
	// node takes the string its path already has in the lineage, or the
	// string of the first node added on it, so that a path keeps one
	// string (see Node.Path).
	droppedBy := make(map[string][]*Node) // sorted by start, like cs.Dropped
	for _, n := range cs.Dropped {
		droppedBy[n.Path] = append(droppedBy[n.Path], n)
		if !replaced[n] {
			touched[n.Path] = true
		}
	}
	addedBy := make(map[string][]*Node) // document order, like cs.Added
	for _, n := range cs.Added {
		addedBy[n.Path] = append(addedBy[n.Path], n)
		if _, ok := droppedBy[n.Path]; !ok {
			droppedBy[n.Path] = nil // a path that only gained nodes is affected too
		}
	}
	cs.Touched = make([]string, 0, len(touched))
	for p := range touched {
		cs.Touched = append(cs.Touched, p)
	}
	sort.Strings(cs.Touched)

	top := &pathLayer{byPath: make(map[string][]*Node, len(droppedBy)), below: r.base.paths}
	for p, dropped := range droppedBy {
		old, added := r.base.NodesByPath(p), addedBy[p]
		if len(old) > 0 {
			p = old[0].Path
		}
		for _, n := range added {
			n.Path = p
		}
		list := SpliceNodes(old, dropped, added)
		if len(list) == 0 {
			list = nil // the path disappeared
		}
		top.byPath[p] = list
	}
	top.settle()
	return &Document{
		Root:    r.root,
		count:   r.base.count + len(cs.Added) - len(cs.Dropped),
		numBase: r.base.numBase,
		paths:   top,
	}, cs
}

// pathCompactFraction sets when a snapshot's path-index overlays are folded
// into one complete layer: when they hold at least 1/pathCompactFraction of
// the entries the complete layer at the bottom holds.
const pathCompactFraction = 4

// settle keeps the layers under a fresh top layer few by size, so that a
// commit pays for the paths it touched and not for every path the document
// has: the new overlay absorbs the overlays below it for as long as they
// hold no more than twice its entries (sizes then more than double down the
// chain, which bounds its length by a logarithm and copies an entry once
// per doubling), and the chain is folded into one complete layer only when
// the overlays have grown to a fixed fraction of the bottom one — once per
// that many touched paths, not once per so many commits. (internal/index
// keeps its overlay chain by the same two rules.)
func (l *pathLayer) settle() {
	// How far down to absorb is decided before anything is copied (the sum
	// stands in for the merged size, which shared paths can only shrink),
	// so the merged map is allocated once at its final size.
	n, stop := len(l.byPath), l.below
	for stop.below != nil && len(stop.byPath) <= 2*n {
		n += len(stop.byPath)
		stop = stop.below
	}
	if stop != l.below {
		merged := make(map[string][]*Node, n)
		for x := l; x != stop; x = x.below {
			for p, list := range x.byPath {
				if _, ok := merged[p]; !ok { // the newer overlay's entry stands
					merged[p] = list
				}
			}
		}
		l.byPath, l.below = merged, stop
	}
	overlays, bottom := 0, l
	for ; bottom.below != nil; bottom = bottom.below {
		overlays += len(bottom.byPath)
	}
	if overlays*pathCompactFraction >= len(bottom.byPath) {
		l.byPath, l.below = l.materialize(), nil
	}
}

func byStart(a, b *Node) int { return a.Start - b.Start }

// SpliceNodes returns list — nodes in document order — without the nodes
// of dropped and with the nodes of added, in document order: the update of
// one per-path (or per-text) node list under a change set. dropped and
// added must each be sorted by Start; a dropped node is removed by object
// identity at its start number, so a clone in added takes exactly its
// original's slot. The positions are found by binary search and the runs
// between them copied whole, so the cost is the fresh array plus a few
// probes, not a comparison per node. list is not modified.
func SpliceNodes(list, dropped, added []*Node) []*Node {
	out := make([]*Node, 0, max(0, len(list)-len(dropped))+len(added))
	// upTo copies the run of list below the given start (through it, when
	// inclusive) and leaves list at the first node past the run.
	upTo := func(start int, inclusive bool) {
		j := sort.Search(len(list), func(k int) bool {
			return list[k].Start > start || (!inclusive && list[k].Start == start)
		})
		out = append(out, list[:j]...)
		list = list[j:]
	}
	for len(dropped) > 0 || len(added) > 0 {
		// A drop at the same start as an add goes first: it is the original
		// the added clone replaces (or a renumbered neighbour's old slot).
		if len(added) == 0 || (len(dropped) > 0 && dropped[0].Start <= added[0].Start) {
			upTo(dropped[0].Start, false)
			if len(list) > 0 && list[0] == dropped[0] {
				list = list[1:]
			}
			dropped = dropped[1:]
		} else {
			upTo(added[0].Start, true)
			out = append(out, added[0])
			added = added[1:]
		}
	}
	return append(out, list...)
}
