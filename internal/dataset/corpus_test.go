package dataset

import (
	"hash/crc32"
	"testing"

	"xmatch/internal/xmltree"
)

func TestOrderCorpusDeterministic(t *testing.T) {
	d := MustLoad("D7")
	a := d.OrderCorpus(4, 8000, 7)
	b := d.OrderCorpus(4, 8000, 7)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("got %d/%d members, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i].Len() != b[i].Len() {
			t.Fatalf("member %d: %d vs %d nodes", i, a[i].Len(), b[i].Len())
		}
		if a[i].NumBase() != b[i].NumBase() {
			t.Fatalf("member %d: base %d vs %d", i, a[i].NumBase(), b[i].NumBase())
		}
		if a[i].String() != b[i].String() {
			t.Fatalf("member %d: serializations differ", i)
		}
		an, bn := a[i].Nodes(), b[i].Nodes()
		for j := range an {
			if an[j].Start != bn[j].Start || an[j].End != bn[j].End {
				t.Fatalf("member %d node %d: intervals differ", i, j)
			}
		}
	}
}

func TestOrderCorpusLayout(t *testing.T) {
	d := MustLoad("D7")
	members := d.OrderCorpus(3, 9000, 11)
	total := 0
	for i, m := range members {
		total += m.Len()
		if i > 0 {
			prev := members[i-1]
			if m.Root.Start <= prev.Root.End {
				t.Fatalf("member %d range [%d,%d] overlaps member %d end %d",
					i, m.Root.Start, m.Root.End, i-1, prev.Root.End)
			}
			// 4x headroom: the next base sits at prev.base + 4*span.
			span := prev.MaxEnd() - prev.NumBase()
			if m.NumBase() != prev.NumBase()+4*span {
				t.Fatalf("member %d base %d, want %d", i, m.NumBase(), prev.NumBase()+4*span)
			}
		}
	}
	// Approximately totalNodes overall: each member misses its target by
	// at most one line-item subtree, like OrderDocument.
	if total < 9000*9/10 || total > 9000*11/10 {
		t.Fatalf("corpus totals %d nodes, want ~9000", total)
	}
	// Members differ in content (distinct derived seeds).
	if members[0].String() == members[1].String() {
		t.Fatal("members 0 and 1 are identical; seeds not derived per member")
	}
	// The members assemble into a corpus oracle.
	if _, err := xmltree.Corpus(members...); err != nil {
		t.Fatalf("corpus assembly: %v", err)
	}
	// Shard count 1 degenerates to a single OrderDocument-shaped member.
	one := d.OrderCorpus(1, 3473, 7)
	if len(one) != 1 || one[0].NumBase() != 0 {
		t.Fatalf("single-shard corpus: %d members, base %d", len(one), one[0].NumBase())
	}
	if one[0].String() != d.OrderDocument(3473, 7).String() {
		t.Fatal("single-shard member differs from OrderDocument with the same seed")
	}
}

// TestGeneratedBytesPinned pins the serialisations of one Order document and
// one corpus, as generated before leaf values looked their concept up by
// element: the generator's draws, and so every value, must not move.
func TestGeneratedBytesPinned(t *testing.T) {
	d := MustLoad("D7")
	if got := crc32.ChecksumIEEE([]byte(d.OrderDocument(3473, 43).String())); got != 0x00d2f453 {
		t.Errorf("OrderDocument(3473, 43) crc32 %08x, want 00d2f453", got)
	}
	h := crc32.NewIEEE()
	for _, m := range d.OrderCorpus(4, 8000, 7) {
		if err := m.WriteXML(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Sum32(); got != 0x2491daf9 {
		t.Errorf("OrderCorpus(4, 8000, 7) crc32 %08x, want 2491daf9", got)
	}
}
