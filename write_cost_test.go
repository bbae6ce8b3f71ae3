package xmatch_test

import (
	"fmt"
	"runtime"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/index"
	"xmatch/internal/twig"
)

// TestWriteCostTracksEditNotDocument asserts the write path's complexity
// without a clock: the bytes a one-edit settext allocates — bench/'s edit
// shape, averaged over enough writes to include index compactions — on a
// 50,000-node shard against the 3,473-node Order document. What may still
// grow with the document is the pointer array of a touched list, not the
// document: 14x the nodes must cost under 3x the bytes (it cost 8x when
// every commit re-merged the preorder array and every sixteenth write
// copied the index).
func TestWriteCostTracksEditNotDocument(t *testing.T) {
	const writes = 1024
	d7 := dataset.MustLoad("D7")
	perWrite := func(nodes int) float64 {
		doc := d7.OrderDocument(nodes, 43)
		h := delta.Open(doc)
		edits := leafSetTexts(doc, writes)
		apply := func(i int) {
			e := edits[i%writes]
			e.Text = fmt.Sprintf("s%d", i)
			if _, err := h.Apply([]delta.Edit{e}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			apply(i) // pools and chain shape settle
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 64; i < 64+writes; i++ {
			apply(i)
		}
		runtime.ReadMemStats(&after)
		if got := h.Snapshot().Index.Stats().Epoch; got != 64+writes {
			t.Fatalf("epoch %d after %d writes", got, 64+writes)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / writes
	}
	small, large := perWrite(3473), perWrite(50000)
	t.Logf("bytes per one-edit write: %.0f on 3,473 nodes, %.0f on 50,000", small, large)
	if large > 3*small {
		t.Fatalf("a write on the 50,000-node document allocates %.0f B, over 3x the %.0f B on the 3,473-node one", large, small)
	}
}

// TestWriteCostTracksEditNotMemo is the same measure across the result
// memo: bytes per one-edit write on the 3,473-node document with an empty
// memo and with 8,192 entries the edits do not bind (refilled after every
// compaction, which starts the memo over) must agree within 10%. A write
// that copied the memo's surviving entries into the next epoch's cost
// ~115 B per entry.
func TestWriteCostTracksEditNotMemo(t *testing.T) {
	const writes = 1024
	d7 := dataset.MustLoad("D7")
	perWrite := func(entries int) float64 {
		doc := d7.OrderDocument(3473, 43)
		h := delta.Open(doc)
		edits := leafSetTexts(doc, writes)
		var total uint64
		var before, after runtime.MemStats
		for i := range 64 + writes { // the first 64 let pools and chain shape settle
			if ix := h.Snapshot().Index; ix.Stats().Overlays == 0 {
				fillMemo(ix, entries)
			}
			e := edits[i%writes]
			e.Text = fmt.Sprintf("s%d", i)
			runtime.ReadMemStats(&before)
			_, err := h.Apply([]delta.Edit{e})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if i >= 64 {
				total += after.TotalAlloc - before.TotalAlloc
			}
		}
		return float64(total) / writes
	}
	empty, warm := perWrite(0), perWrite(8192)
	t.Logf("bytes per one-edit write: %.0f with an empty memo, %.0f with 8,192 entries", empty, warm)
	if warm > 1.1*empty || empty > 1.1*warm {
		t.Fatalf("a write allocates %.0f B over a memo of 8,192 entries and %.0f B over an empty one: more than 10%% apart", warm, empty)
	}
}

// fillMemo stores n result-memo entries over ix whose keys name no path of
// any document, so that no edit binds them.
func fillMemo(ix *index.Index, n int) {
	unit := new(twig.Node)
	for i := range n {
		ix.StoreUnit(unit, fmt.Sprintf("warm.%d\x00", i), nil)
	}
}
