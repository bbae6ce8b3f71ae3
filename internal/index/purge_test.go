package index_test

// PurgeMemo lifecycle tests: purging drops an epoch's cached evaluations —
// the ones it inherited from its predecessor included — later queries still
// answer correctly (and repopulate the cache), and purging races cleanly
// against concurrent MatchTwig callers — the reload path the server
// exercises. Run under -race in CI.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"xmatch/internal/index"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

func TestPurgeMemoAnswersSurvive(t *testing.T) {
	doc := buildDoc()
	ix := index.Build(doc)
	p := twig.MustParse(`Order/POLine[./LineNo="2"]/Quantity`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Num", n[3]: "PO.Line.Qty"}

	want := ix.MatchTwig(doc, p.Root, paths)
	if len(want) != 1 {
		t.Fatalf("matches = %d, want 1", len(want))
	}
	// Warm hit before the purge, cold recompute after it: both identical.
	if got := ix.MatchTwig(doc, p.Root, paths); !reflect.DeepEqual(got, want) {
		t.Fatal("warm memo hit diverged")
	}
	ix.PurgeMemo()
	if got := ix.MatchTwig(doc, p.Root, paths); !reflect.DeepEqual(got, want) {
		t.Fatal("post-purge evaluation diverged")
	}
	ix.PurgeMemo()
}

// TestPurgeMemoConcurrentMatch: purge storms while other goroutines
// evaluate the same patterns. The race detector proves readers never see
// a mid-purge map; the assertions prove answers stay right.
func TestPurgeMemoConcurrentMatch(t *testing.T) {
	doc := buildDoc()
	ix := index.Build(doc)
	p := twig.MustParse(`Order/POLine/Quantity`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Qty"}
	want := twig.MatchByPaths(doc, p.Root, paths)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := ix.MatchTwig(doc, p.Root, paths); !reflect.DeepEqual(got, want) {
					t.Error("concurrent evaluation diverged during purge")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		ix.PurgeMemo()
	}
	close(stop)
	wg.Wait()
}

// TestPurgeMemoOverlayChain: the server purges whatever index the retired
// snapshot holds, which after mutations is an overlay epoch; purging one
// must leave it answering correctly.
func TestPurgeMemoOverlayChain(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b>x</b></a><a><b>y</b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	p := twig.MustParse(`r/a/b`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "r", n[1]: "r.a", n[2]: "r.a.b"}
	if ms := ix.MatchTwig(doc, p.Root, paths); len(ms) != 2 {
		t.Fatalf("base matches = %d, want 2", len(ms))
	}

	rev := doc.BeginRevision()
	target := rev.LocateByPath("r.a.b", 0)
	if target == nil {
		t.Fatal("r.a.b not found")
	}
	if err := rev.SetText(target.Start, "z"); err != nil {
		t.Fatal(err)
	}
	newDoc, cs := rev.Commit()
	tip := ix.ApplyChanges(newDoc, cs)
	if tip.Epoch() == 0 || tip.Stats().Overlays == 0 {
		t.Fatalf("expected an overlay tip, got epoch %d overlays %d", tip.Epoch(), tip.Stats().Overlays)
	}
	wantTip := tip.MatchTwig(newDoc, p.Root, paths)
	tip.PurgeMemo()
	if got := tip.MatchTwig(newDoc, p.Root, paths); !reflect.DeepEqual(got, wantTip) {
		t.Fatal("overlay evaluation diverged after chain purge")
	}
}

// TestPurgeMemoDropsCarriedEntries: a write hands the next epoch its
// predecessor's memo, whose entries the write did not invalidate are
// carried at first use. Purging that epoch empties its memo — and nothing
// else: an older epoch a reader still pins keeps the memo it shared.
func TestPurgeMemoDropsCarriedEntries(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b>x</b></a><c>y</c></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	p := twig.MustParse(`r/a/b`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "r", n[1]: "r.a", n[2]: "r.a.b"}
	ix.MatchTwig(doc, p.Root, paths)

	rev := doc.BeginRevision()
	if err := rev.SetText(rev.LocateByPath("r.c", 0).Start, "z"); err != nil {
		t.Fatal(err)
	}
	newDoc, cs := rev.Commit()
	tip := ix.ApplyChanges(newDoc, cs)
	before := tip.Counters()
	tip.MatchTwig(newDoc, p.Root, paths)
	if d := tip.Counters().Sub(before); d.MemoCarried != 1 || d.MemoHits != 1 {
		t.Fatalf("first use after the write: %d entries carried and %d memo hits, want 1 and 1", d.MemoCarried, d.MemoHits)
	}
	tip.PurgeMemo()
	before = tip.Counters()
	tip.MatchTwig(newDoc, p.Root, paths)
	ix.MatchTwig(doc, p.Root, paths)
	if d := tip.Counters().Sub(before); d.MemoMisses != 1 || d.MemoHits != 1 {
		t.Fatalf("after purging the tip: %d misses and %d hits, want the tip to miss and the pinned epoch to hit", d.MemoMisses, d.MemoHits)
	}
}

// TestPurgeAndCapDropUnitEntries: evaluation-plan units live in the one
// memo, so both ways it is emptied drop them — PurgeMemo, and the reset of
// a shard that a runaway population of entries overflows.
func TestPurgeAndCapDropUnitEntries(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b>x</b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	// A unit binding the root path, under a node of its own.
	p := twig.MustParse(`r`)
	unit, key := new(twig.Node), string(twig.PathBinding{p.Root: "r"}.AppendKey(nil, p.Root))
	out := ix.MatchTwig(doc, p.Root, twig.PathBinding{p.Root: "r"})
	stored := func() bool {
		t.Helper()
		got, ok := ix.LookupUnit(unit, key)
		if ok && !reflect.DeepEqual(got, out) {
			t.Fatal("a unit lookup returned another unit's output")
		}
		return ok
	}
	before := ix.Counters()
	if stored() {
		t.Fatal("an empty memo answered a unit lookup")
	}
	ix.StoreUnit(unit, key, out)
	if !stored() {
		t.Fatal("a stored unit was not found")
	}
	if d := ix.Counters().Sub(before); d.UnitHits != 1 || d.UnitMisses != 1 || d.Evals != 0 {
		t.Fatalf("two lookups counted as %+v", d)
	}
	ix.PurgeMemo()
	if stored() {
		t.Fatal("PurgeMemo left a unit entry behind")
	}
	ix.StoreUnit(unit, key, out)
	for i := range 2 * 8 * 4096 { // twice memoShards × memoShardCap entries
		ix.StoreUnit(unit, fmt.Sprintf("r%d\x00", i), nil)
	}
	if stored() {
		t.Fatal("the cap reset left a unit entry behind")
	}
}
