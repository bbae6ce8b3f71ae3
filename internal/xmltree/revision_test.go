package xmltree

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// validate checks a document's full structural consistency: preorder node
// list matches the tree, intervals nest properly and strictly increase,
// levels and paths derive from the tree shape, and the path index covers
// exactly the nodes.
func validate(t *testing.T, d *Document) {
	t.Helper()
	var walk func(n *Node, level int, prefix string) []*Node
	walk = func(n *Node, level int, prefix string) []*Node {
		if n.Level != level {
			t.Fatalf("node %q: level %d, want %d", n.Path, n.Level, level)
		}
		wantPath := n.Label
		if prefix != "" {
			wantPath = prefix + "." + n.Label
		}
		if n.Path != wantPath {
			t.Fatalf("node path %q, want %q", n.Path, wantPath)
		}
		if n.Start >= n.End {
			t.Fatalf("node %q: start %d >= end %d", n.Path, n.Start, n.End)
		}
		out := []*Node{n}
		prev := n.Start
		for _, c := range n.Children {
			if c.Start <= prev {
				t.Fatalf("node %q: child start %d not after %d", n.Path, c.Start, prev)
			}
			if !(n.Start < c.Start && c.End < n.End) {
				t.Fatalf("node %q: child %q interval %d:%d outside %d:%d", n.Path, c.Label, c.Start, c.End, n.Start, n.End)
			}
			out = append(out, walk(c, level+1, n.Path)...)
			prev = c.End
		}
		return out
	}
	want := walk(d.Root, 0, "")
	// Len is arithmetic on a revision snapshot and Nodes derived on demand:
	// ask Len first, so it cannot lean on the array.
	if d.Len() != len(want) {
		t.Fatalf("Len() = %d, tree has %d nodes", d.Len(), len(want))
	}
	got := d.Nodes()
	if len(got) != len(want) {
		t.Fatalf("Nodes() has %d entries, tree has %d", len(got), len(want))
	}
	counts := map[string]int{}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Nodes()[%d] is %q(%d), want %q(%d)", i, got[i].Path, got[i].Start, want[i].Path, want[i].Start)
		}
		counts[got[i].Path]++
	}
	total := 0
	for p, c := range counts {
		list := d.NodesByPath(p)
		if len(list) != c {
			t.Fatalf("byPath[%q] has %d nodes, want %d", p, len(list), c)
		}
		for i := 1; i < len(list); i++ {
			if list[i].Start <= list[i-1].Start {
				t.Fatalf("byPath[%q] out of document order", p)
			}
		}
		total += len(list)
	}
	if total != len(got) {
		t.Fatalf("byPath covers %d nodes, want %d", total, len(got))
	}
}

func TestGapNumberingLeavesRoom(t *testing.T) {
	doc, err := ParseString(`<a><b>x</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, doc)
	ns := doc.Nodes()
	for i := 1; i < len(ns); i++ {
		if ns[i].Start-ns[i-1].Start < Gap {
			t.Fatalf("consecutive starts %d and %d closer than Gap", ns[i-1].Start, ns[i].Start)
		}
	}
}

func TestRevisionSetTextSharesUntouchedNodes(t *testing.T) {
	base, err := ParseString(`<r><a>1</a><b><c>2</c></b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	a := base.NodesByPath("r.a")[0]
	rev := base.BeginRevision()
	if err := rev.SetText(a.Start, "99"); err != nil {
		t.Fatal(err)
	}
	doc, cs := rev.Commit()
	validate(t, doc)
	// The base snapshot is unperturbed.
	if base.NodesByPath("r.a")[0].Text != "1" {
		t.Fatal("base snapshot text changed")
	}
	if doc.NodesByPath("r.a")[0].Text != "99" {
		t.Fatal("revision text not applied")
	}
	// The untouched subtree is the same object; the spine is cloned.
	if doc.NodesByPath("r.b")[0] != base.NodesByPath("r.b")[0] {
		t.Fatal("untouched sibling subtree was cloned")
	}
	if doc.Root == base.Root {
		t.Fatal("root was not cloned")
	}
	if len(cs.Dropped) != 2 || len(cs.Added) != 2 { // root + a superseded
		t.Fatalf("change set %d dropped / %d added, want 2/2", len(cs.Dropped), len(cs.Added))
	}
}

func TestRevisionInsertUsesGap(t *testing.T) {
	base, err := ParseString(`<r><a/><b/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	rev := base.BeginRevision()
	frag, _ := ParseString(`<x><y>t</y></x>`)
	if err := rev.InsertSubtree(base.Root.Start, 1, frag.Root); err != nil {
		t.Fatal(err)
	}
	doc, cs := rev.Commit()
	validate(t, doc)
	if got := len(doc.Nodes()); got != 5 {
		t.Fatalf("revised doc has %d nodes, want 5", got)
	}
	// a and b keep their numbers and identities: the insert fit in the gap.
	for _, p := range []string{"r.a", "r.b"} {
		if doc.NodesByPath(p)[0] != base.NodesByPath(p)[0] {
			t.Fatalf("%s was cloned by a gap-fitting insert", p)
		}
	}
	if doc.NodesByPath("r.x.y")[0].Text != "t" {
		t.Fatal("inserted subtree text missing")
	}
	if len(cs.Added) != 3 { // root clone + x + y
		t.Fatalf("added %d nodes, want 3", len(cs.Added))
	}
	if len(base.Nodes()) != 3 {
		t.Fatal("base document changed size")
	}
}

func TestRevisionDeleteAndRename(t *testing.T) {
	base, err := ParseString(`<r><a><b>1</b></a><c/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	a := base.NodesByPath("r.a")[0]
	c := base.NodesByPath("r.c")[0]
	rev := base.BeginRevision()
	if err := rev.DeleteSubtree(a.Start); err != nil {
		t.Fatal(err)
	}
	if err := rev.Rename(c.Start, "d"); err != nil {
		t.Fatal(err)
	}
	doc, _ := rev.Commit()
	validate(t, doc)
	if doc.NodesByPath("r.a") != nil || doc.NodesByPath("r.a.b") != nil {
		t.Fatal("deleted subtree still indexed")
	}
	if doc.NodesByPath("r.c") != nil {
		t.Fatal("renamed path still present")
	}
	if len(doc.NodesByPath("r.d")) != 1 {
		t.Fatal("renamed node missing")
	}
	if base.NodesByPath("r.c")[0].Label != "c" {
		t.Fatal("base label changed")
	}
	if err := base.BeginRevision().DeleteSubtree(base.Root.Start); err == nil {
		t.Fatal("deleting the root succeeded")
	}
}

func TestRevisionRenumberFallback(t *testing.T) {
	base, err := ParseString(`<r><a/><z/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	// Repeatedly insert right after a: the a..z gap (Gap-1 slots wide at
	// the start) must exhaust and force renumbering, which in turn must
	// keep every revision — and the original — structurally valid.
	doc := base
	for i := 0; i < 40; i++ {
		rev := doc.BeginRevision()
		frag, _ := ParseString(`<m><n/></m>`)
		if err := rev.InsertSubtree(doc.Root.Start, 1, frag.Root); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		next, _ := rev.Commit()
		validate(t, next)
		if next.Len() != doc.Len()+2 {
			t.Fatalf("insert %d: len %d, want %d", i, next.Len(), doc.Len()+2)
		}
		doc = next
	}
	validate(t, base)
	if base.Len() != 3 {
		t.Fatal("base document grew")
	}
}

func TestRevisionRandomizedAgainstRebuild(t *testing.T) {
	labels := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		doc := New(randomTree(rng, 2+rng.Intn(30)))
		for batch := 0; batch < 3; batch++ {
			rev := doc.BeginRevision()
			edits := 1 + rng.Intn(4)
			for e := 0; e < edits; e++ {
				ns := doc.Nodes()
				n := ns[rng.Intn(len(ns))]
				switch rng.Intn(4) {
				case 0, 1:
					sub := NewRoot(labels[rng.Intn(4)])
					if rng.Intn(2) == 0 {
						sub.AddChild(labels[rng.Intn(4)]).AddText("t")
					}
					if err := rev.InsertSubtree(n.Start, rng.Intn(3)-1, sub); err != nil {
						// The node may have been deleted earlier in the batch.
						if rev.Locate(n.Start) != nil {
							t.Fatalf("trial %d: insert: %v", trial, err)
						}
					}
				case 2:
					if n != doc.Root && rev.Locate(n.Start) != nil {
						if err := rev.DeleteSubtree(n.Start); err != nil {
							t.Fatalf("trial %d: delete: %v", trial, err)
						}
					}
				case 3:
					if rev.Locate(n.Start) != nil {
						var err error
						if rng.Intn(2) == 0 {
							err = rev.Rename(n.Start, labels[rng.Intn(4)])
						} else {
							err = rev.SetText(n.Start, "t2")
						}
						if err != nil {
							t.Fatalf("trial %d: %v", trial, err)
						}
					}
				}
			}
			next, _ := rev.Commit()
			validate(t, next)
			// The revised snapshot must serialize exactly like a fresh
			// document built from the same tree shape.
			reparsed, err := ParseString(next.String())
			if err != nil {
				t.Fatalf("trial %d: reparse: %v", trial, err)
			}
			if reparsed.String() != next.String() {
				t.Fatalf("trial %d: serialization unstable", trial)
			}
			doc = next
		}
	}
}

// randomRevisionEdit applies one random structural or text edit to rev,
// targeting a node of doc (the snapshot rev was opened on, or an earlier
// state of it: a target an earlier edit of the batch removed is skipped).
func randomRevisionEdit(t *testing.T, rng *rand.Rand, rev *Revision, doc *Document) {
	t.Helper()
	labels := []string{"a", "b", "c", "d"}
	ns := doc.Nodes()
	n := ns[rng.Intn(len(ns))]
	if rev.Locate(n.Start) == nil {
		return
	}
	var err error
	switch rng.Intn(5) {
	case 0, 1:
		sub := NewRoot(labels[rng.Intn(4)])
		if rng.Intn(2) == 0 {
			sub.AddChild(labels[rng.Intn(4)]).AddText("t")
		}
		err = rev.InsertSubtree(n.Start, rng.Intn(3)-1, sub)
	case 2:
		if n != doc.Root {
			err = rev.DeleteSubtree(n.Start)
		}
	case 3:
		err = rev.Rename(n.Start, labels[rng.Intn(4)])
	default:
		err = rev.SetText(n.Start, fmt.Sprintf("t%d", rng.Intn(3)))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestNodesDerivedAfterManyEdits: forty one-edit commits in a row never
// build a preorder array; the one derived at the end equals a preorder
// walk from Root, Len agrees with it, and concurrent first calls agree
// with each other (run under -race).
func TestNodesDerivedAfterManyEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	doc := New(randomTree(rng, 60))
	for i := 0; i < 40; i++ {
		rev := doc.BeginRevision()
		// The target comes from a walk, not from Nodes: the intermediate
		// snapshots must stay without their arrays.
		var ns []*Node
		doc.Walk(func(n *Node) bool { ns = append(ns, n); return true })
		if len(ns) != doc.Len() {
			t.Fatalf("commit %d: Len() = %d, walk finds %d", i, doc.Len(), len(ns))
		}
		n := ns[rng.Intn(len(ns))]
		var err error
		switch {
		case i%4 == 0:
			err = rev.InsertSubtree(n.Start, -1, NewRoot("n").AddText("t"))
		case i%4 == 1 && n != doc.Root:
			err = rev.DeleteSubtree(n.Start)
		case i%4 == 2:
			err = rev.Rename(n.Start, "m")
		default:
			err = rev.SetText(n.Start, fmt.Sprintf("t%d", i))
		}
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		doc, _ = rev.Commit()
		if doc.nodes != nil {
			t.Fatalf("commit %d materialized the preorder array", i)
		}
	}
	var wg sync.WaitGroup
	got := make([][]*Node, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = doc.Nodes()
		}()
	}
	wg.Wait()
	for g := 1; g < len(got); g++ {
		if &got[g][0] != &got[0][0] || len(got[g]) != len(got[0]) {
			t.Fatal("concurrent first Nodes() calls returned different arrays")
		}
	}
	validate(t, doc)
}

// TestLocateByPathAnswersFromPathIndex: a clean revision answers
// path+ordinal lookups from the base snapshot's path index, a dirty one by
// walking its tree; the two must agree on every (path, ordinal) — past the
// end, negative, and paths that do not exist included.
func TestLocateByPathAnswersFromPathIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		doc := New(randomTree(rng, 2+rng.Intn(60)))
		// A few commits first, so the path index under test is an overlay
		// chain and not only a freshly built map.
		for c := rng.Intn(4); c > 0; c-- {
			rev := doc.BeginRevision()
			randomRevisionEdit(t, rng, rev, doc)
			doc, _ = rev.Commit()
		}
		clean := doc.BeginRevision()
		dirty := doc.BeginRevision()
		// Rewriting the root's text with itself owns the root — the walk
		// runs — and leaves every node where and what it was.
		if err := dirty.SetText(doc.Root.Start, doc.Root.Text); err != nil {
			t.Fatal(err)
		}
		paths := append(doc.Paths(), "nope", doc.Root.Path+".nope", "")
		for i := 0; i < 200; i++ {
			p := paths[rng.Intn(len(paths))]
			ord := rng.Intn(len(doc.NodesByPath(p))+3) - 1
			a, b := clean.LocateByPath(p, ord), dirty.LocateByPath(p, ord)
			if (a == nil) != (b == nil) || (a != nil && a.Start != b.Start) {
				t.Fatalf("trial %d: LocateByPath(%q, %d): index says %v, walk says %v", trial, p, ord, a, b)
			}
			if inRange := ord >= 0 && ord < len(doc.NodesByPath(p)); inRange != (a != nil) {
				t.Fatalf("trial %d: LocateByPath(%q, %d) = %v", trial, p, ord, a)
			}
		}
	}
}

// TestChangeSetTouchedIsSemantic pins which paths a change set reports as
// touched: the paths of nodes that changed in a field a query can read,
// never those of position-identical spine clones.
func TestChangeSetTouchedIsSemantic(t *testing.T) {
	const xml = `<r><h><e>x</e></h><l><q>1</q></l><l><q>2</q></l></r>`
	cases := []struct {
		name string
		edit func(doc *Document, rev *Revision) error
		want []string
	}{
		{"settext touches the leaf only", func(doc *Document, rev *Revision) error {
			return rev.SetText(doc.NodesByPath("r.l.q")[1].Start, "9")
		}, []string{"r.l.q"}},
		{"settext to the same text touches nothing", func(doc *Document, rev *Revision) error {
			return rev.SetText(doc.NodesByPath("r.h.e")[0].Start, "x")
		}, []string{}},
		{"insert touches the inserted paths, not the parent", func(doc *Document, rev *Revision) error {
			sub := NewRoot("l")
			sub.AddChild("q").AddText("3")
			return rev.InsertSubtree(doc.Root.Start, -1, sub)
		}, []string{"r.l", "r.l.q"}},
		{"delete touches the deleted paths, not the parent", func(doc *Document, rev *Revision) error {
			return rev.DeleteSubtree(doc.NodesByPath("r.h")[0].Start)
		}, []string{"r.h", "r.h.e"}},
		{"rename touches the old paths and the new", func(doc *Document, rev *Revision) error {
			return rev.Rename(doc.NodesByPath("r.h")[0].Start, "k")
		}, []string{"r.h", "r.h.e", "r.k", "r.k.e"}},
		{"an edit undone within the batch touches nothing", func(doc *Document, rev *Revision) error {
			start := doc.NodesByPath("r.h.e")[0].Start
			if err := rev.SetText(start, "y"); err != nil {
				return err
			}
			return rev.SetText(start, "x")
		}, []string{}},
	}
	for _, tc := range cases {
		doc, err := ParseString(xml)
		if err != nil {
			t.Fatal(err)
		}
		rev := doc.BeginRevision()
		if err := tc.edit(doc, rev); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		_, cs := rev.Commit()
		if !reflect.DeepEqual(cs.Touched, tc.want) {
			t.Errorf("%s: touched %v, want %v", tc.name, cs.Touched, tc.want)
		}
		if len(cs.Dropped) == 0 || len(cs.Added) == 0 {
			t.Errorf("%s: change set lists no clones (%d dropped, %d added)", tc.name, len(cs.Dropped), len(cs.Added))
		}
	}

	// Gap exhaustion renumbers a subtree: every renumbered node's path is
	// touched, though none of them was the edit's target.
	doc, err := ParseString(`<r><p><a/><z>t</z></p></r>`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		rev := doc.BeginRevision()
		if err := rev.InsertSubtree(doc.NodesByPath("r.p")[0].Start, 1, NewRoot("m")); err != nil {
			t.Fatal(err)
		}
		zBefore := doc.NodesByPath("r.p.z")[0].Start
		var cs *ChangeSet
		doc, cs = rev.Commit()
		renumbered := doc.NodesByPath("r.p.z")[0].Start != zBefore
		if renumbered != slices.Contains(cs.Touched, "r.p.z") {
			t.Fatalf("insert %d: r.p.z renumbered=%v, touched %v", i, renumbered, cs.Touched)
		}
		if renumbered {
			break
		}
		if i > 64 {
			t.Fatal("gap never exhausted")
		}
	}
}

// TestSpliceNodesAgainstFilterAndSort: the binary-search splice equals the
// obvious remove-append-sort on random inputs, clones at their originals'
// starts included.
func TestSpliceNodesAgainstFilterAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		var list []*Node
		start := 0
		for i := rng.Intn(12); i > 0; i-- {
			start += 2 * (1 + rng.Intn(4)) // even: odd starts stay free
			list = append(list, &Node{Start: start})
		}
		var dropped, added []*Node
		for _, n := range list {
			switch rng.Intn(4) {
			case 0:
				dropped = append(dropped, n)
			case 1: // replaced by a clone at the same start
				dropped = append(dropped, n)
				added = append(added, &Node{Start: n.Start})
			}
		}
		for i := rng.Intn(3); i > 0; i-- { // fresh nodes at unused starts
			s := rng.Intn(start/2+2)*2 + 1
			if !slices.ContainsFunc(added, func(n *Node) bool { return n.Start == s }) {
				added = append(added, &Node{Start: s})
			}
		}
		slices.SortFunc(added, byStart)
		var want []*Node
		for _, n := range list {
			if !slices.Contains(dropped, n) {
				want = append(want, n)
			}
		}
		want = append(want, added...)
		slices.SortStableFunc(want, byStart)
		got := SpliceNodes(list, dropped, added)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: splice diverged: got %d nodes, want %d", trial, len(got), len(want))
		}
	}
}

func byStart(a, b *Node) int { return a.Start - b.Start }
