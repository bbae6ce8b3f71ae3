package delta_test

import (
	"fmt"
	"runtime"
	"testing"
	"weak"

	"xmatch/internal/delta"
	"xmatch/internal/xmltree"
)

// openWatched opens a handle on a fresh carryDoc and returns it with a weak
// pointer to the opened document's root; the document itself goes out of
// scope on return.
func openWatched(lines int) (*delta.Handle, weak.Pointer[xmltree.Node]) {
	doc := carryDoc(lines)
	return delta.Open(doc), weak.Make(doc.Root)
}

// TestWriteReleasesOpenedDocument: a live document under round-robin
// writes to its line items (the header subtree is never touched, so its
// nodes stay shared with the opened version) lets the opened version go
// once the index has compacted: neither the document, nor the index and
// its overlays, nor the memo entries carried across the writes reach it.
func TestWriteReleasesOpenedDocument(t *testing.T) {
	const lines = 24
	h, opened := openWatched(lines)
	probes := carryProbes()
	compactions := 0
	for i := 0; compactions < 3; i++ {
		if i == 20000 {
			t.Fatalf("%d compactions after %d writes", compactions, i)
		}
		snap, err := h.Apply([]delta.Edit{{Op: delta.OpSetText, Path: "r.l.q", Ordinal: i % lines, Text: fmt.Sprintf("w%d", i)}})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probes {
			snap.Index.MatchTwig(snap.Doc, p.root, p.paths)
		}
		if snap.Index.Stats().Overlays == 0 {
			compactions++
		}
	}
	runtime.GC()
	runtime.GC()
	if opened.Value() != nil {
		t.Fatal("the opened document's root is still reachable after three compactions")
	}
	if got := h.Snapshot().Doc.NodesByPath("r.h.e")[0].Text; got != "e0" {
		t.Fatalf("untouched header text %q", got)
	}
}
