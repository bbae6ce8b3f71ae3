package oracle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/store"
	"xmatch/internal/xmltree"
)

// heavyRevisionDigest is the SHA-256 of the checkpoint blob the edits of
// TestParentPositionsSurviveHeavyRevision leave behind, recorded when
// every node still carried a pointer to its parent. A checkpoint written
// without one must be byte-identical.
const heavyRevisionDigest = "515c7b2c1b78490984e6e7682716065e385c811f1998487c5f917813a841db7e"

// childrenSpecs flattens a document into preorder specs by walking
// Children from the root: the parent positions every other derivation is
// checked against.
func childrenSpecs(d *xmltree.Document) []xmltree.NodeSpec {
	var specs []xmltree.NodeSpec
	var walk func(n *xmltree.Node, parent int)
	walk = func(n *xmltree.Node, parent int) {
		i := len(specs)
		specs = append(specs, xmltree.NodeSpec{Label: n.Label, Text: n.Text, Parent: parent, Start: n.Start, End: n.End})
		for _, c := range n.Children {
			walk(c, i)
		}
	}
	walk(d.Root, -1)
	return specs
}

// reviseOnce applies one random edit to doc through a revision: a
// settext, a leaf delete, a subtree rename, or a two-node insert at
// position 0 under a parent that stays hot for a while, so its first gap
// runs out and the revision renumbers around it. It reports whether the
// revision renumbered existing nodes.
func reviseOnce(t *testing.T, rng *rand.Rand, doc *xmltree.Document, hot *int, i int) (*xmltree.Document, bool) {
	t.Helper()
	nodes := doc.Nodes()
	pick := func() *xmltree.Node { return nodes[1+rng.Intn(len(nodes)-1)] }
	rev := doc.BeginRevision()
	var err error
	inserted := -1
	switch op := rng.Intn(8); {
	case op < 3:
		err = rev.SetText(pick().Start, fmt.Sprintf("t%d", i))
	case op == 3:
		n := pick()
		for len(n.Children) > 0 {
			n = n.Children[0]
		}
		err = rev.DeleteSubtree(n.Start)
	case op == 4:
		err = rev.Rename(pick().Start, fmt.Sprintf("R%d", i%5))
	default:
		p := doc.Root
		for _, n := range nodes {
			if n.Start == *hot {
				p = n
			}
		}
		if p == doc.Root || rng.Intn(10) == 0 {
			p = pick()
			*hot = p.Start
		}
		inserted = p.Level + 1
		frag := xmltree.NewRoot("Audit")
		frag.AddChild("Who").AddText(fmt.Sprintf("w%d", i))
		err = rev.InsertSubtree(p.Start, 0, frag)
	}
	if err != nil {
		t.Fatalf("edit %d: %v", i, err)
	}
	next, cs := rev.Commit()
	// An insert without renumbering drops only the clones of its spine.
	return next, inserted >= 0 && len(cs.Dropped) > inserted
}

// TestParentPositionsSurviveHeavyRevision: after hundreds of copy-on-write
// edits over D7's document — settexts, deletes, renames, and inserts that
// exhaust numbering gaps — a checkpoint round trip and the oracle's copy
// both put every node under the parent a Children walk finds, and the
// final checkpoint is byte-identical to the one recorded before nodes
// lost their parent pointers.
func TestParentPositionsSurviveHeavyRevision(t *testing.T) {
	doc := dataset.MustLoad("D7").OrderDocument(1200, 7)
	rng := rand.New(rand.NewSource(45))
	hot, renumbered := 0, 0
	const edits = 300
	var blob bytes.Buffer
	for i := 1; i <= edits; i++ {
		var r bool
		if doc, r = reviseOnce(t, rng, doc, &hot, i); r {
			renumbered++
		}
		if i%20 != 0 {
			continue
		}
		want := childrenSpecs(doc)
		blob.Reset()
		if err := store.SaveCheckpoint(&blob, doc, uint64(i)); err != nil {
			t.Fatal(err)
		}
		ck, err := store.LoadCheckpoint(bytes.NewReader(blob.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(childrenSpecs(ck.Doc), want) {
			t.Fatalf("edit %d: the checkpoint round trip moved a node", i)
		}
		cp, err := copyOf(doc)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(childrenSpecs(cp), want) {
			t.Fatalf("edit %d: the oracle's copy moved a node", i)
		}
	}
	if renumbered < 3 {
		t.Fatalf("%d inserts renumbered; the gaps never ran out", renumbered)
	}
	sum := sha256.Sum256(blob.Bytes())
	if got := hex.EncodeToString(sum[:]); got != heavyRevisionDigest {
		t.Fatalf("checkpoint digest %s, want %s", got, heavyRevisionDigest)
	}
}
