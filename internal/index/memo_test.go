package index_test

// The stamped result memo across epochs: an entry is checked against the
// writes since it was last known valid when a later epoch first uses it,
// through a bounded chain of write records, and two epochs that share a
// number never share a memo.

import (
	"testing"

	"xmatch/internal/index"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// setTextAt applies one settext on the first node of path to ix's document
// and returns the new epoch's index and document.
func setTextAt(t *testing.T, ix *index.Index, path, text string) (*index.Index, *xmltree.Document) {
	t.Helper()
	rev := ix.Document().BeginRevision()
	if err := rev.SetText(rev.LocateByPath(path, 0).Start, text); err != nil {
		t.Fatal(err)
	}
	doc, cs := rev.Commit()
	return ix.ApplyChanges(doc, cs), doc
}

// TestMemoWriteChainCap: an entry last known valid anywhere within the
// write chain is carried at its first use, however many writes ago that
// was; one last known valid below the chain — cut at every 64th epoch —
// is a miss.
func TestMemoWriteChainCap(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b>x</b></a><c>y</c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	leaf, pair := twig.MustParse(`r/a/b`), twig.MustParse(`r/a`)
	ln, pn := leaf.Nodes(), pair.Nodes()
	leafPaths := twig.PathBinding{ln[0]: "r", ln[1]: "r.a", ln[2]: "r.a.b"}
	pairPaths := twig.PathBinding{pn[0]: "r", pn[1]: "r.a"}
	ix.MatchTwig(doc, leaf.Root, leafPaths)
	ix.MatchTwig(doc, pair.Root, pairPaths)

	const chainCap = 64 // maxWriteRecords
	tip := ix
	for i := range chainCap - 1 {
		if tip, doc = setTextAt(t, tip, "r.c", "y"+string(rune('a'+i%26))); tip.Stats().Overlays == 0 {
			t.Fatalf("fixture: write %d compacted the index", i+1)
		}
	}
	before := tip.Counters()
	tip.MatchTwig(doc, leaf.Root, leafPaths)
	if d := tip.Counters().Sub(before); d.MemoHits != 1 || d.MemoCarried != 1 {
		t.Fatalf("an entry %d writes old: %+v, want one carried hit", chainCap-1, d)
	}
	tip, doc = setTextAt(t, tip, "r.c", "z")
	before = tip.Counters()
	tip.MatchTwig(doc, leaf.Root, leafPaths)
	tip.MatchTwig(doc, pair.Root, pairPaths)
	if d := tip.Counters().Sub(before); d.MemoHits != 1 || d.MemoCarried != 1 || d.MemoMisses != 1 || d.MemoDropped != 1 {
		t.Fatalf("one write later: %+v, want the stamped entry carried and the one below the cap dropped", d)
	}
}

// TestMemoBranchedEpochsDoNotShare: two epochs derived from one base carry
// the same number; the second must not read the stamps the first's readers
// left, or it would serve the first's answers.
func TestMemoBranchedEpochsDoNotShare(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b>x</b></a><c>y</c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	p := twig.MustParse(`r/a/b`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "r", n[1]: "r.a", n[2]: "r.a.b"}
	ix.MatchTwig(doc, p.Root, paths)

	a, docA := setTextAt(t, ix, "r.c", "z") // leaves the entry valid
	if got := a.MatchTwig(docA, p.Root, paths); len(got) != 1 || got[0][2].D.Text != "x" {
		t.Fatalf("first branch: %v", got)
	}
	b, docB := setTextAt(t, ix, "r.a.b", "w") // invalidates it
	if a.Epoch() != b.Epoch() {
		t.Fatalf("fixture: epochs %d and %d", a.Epoch(), b.Epoch())
	}
	if got := b.MatchTwig(docB, p.Root, paths); len(got) != 1 || got[0][2].D.Text != "w" {
		t.Fatalf("second branch served %v, want the new text", got)
	}
}
