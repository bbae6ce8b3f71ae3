package xmatch_test

import (
	"fmt"
	"runtime"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/delta"
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
