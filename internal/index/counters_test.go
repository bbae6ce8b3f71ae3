package index_test

import (
	"strings"
	"testing"

	"xmatch/internal/index"
	"xmatch/internal/obs"
	"xmatch/internal/twig"
)

func TestCountersTrackEvaluations(t *testing.T) {
	doc := buildDoc()
	ix := index.Build(doc)
	p := twig.MustParse(`Order/POLine/Quantity`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Qty"}

	before := ix.Counters()
	globalBefore := index.GlobalCounters()
	if ms := ix.MatchTwig(doc, p.Root, paths); len(ms) != 3 {
		t.Fatalf("matches = %d, want 3", len(ms))
	}
	d := ix.Counters().Sub(before)
	if d.Evals != 1 || d.MemoMisses != 1 || d.MemoHits != 0 {
		t.Fatalf("first eval delta = %+v", d)
	}
	if d.Candidates == 0 || d.Emitted != 3 {
		t.Fatalf("first eval candidates/emitted = %+v", d)
	}
	if d.GallopMerges+d.LinearMerges == 0 {
		t.Fatalf("no merge passes counted: %+v", d)
	}

	// A repeat is a memo hit: Evals and MemoHits move, nothing else.
	mid := ix.Counters()
	ix.MatchTwig(doc, p.Root, paths)
	d = ix.Counters().Sub(mid)
	if d.Evals != 1 || d.MemoHits != 1 || d.MemoMisses != 0 || d.Emitted != 0 {
		t.Fatalf("memo-hit delta = %+v", d)
	}

	// The package-global aggregate moved at least as much.
	gd := index.GlobalCounters().Sub(globalBefore)
	if gd.Evals < 2 || gd.MemoHits < 1 {
		t.Fatalf("global delta = %+v", gd)
	}

	// Single-node fast path.
	fp := twig.MustParse(`Line`)
	fpBefore := ix.Counters()
	ix.MatchTwig(doc, fp.Root, twig.PathBinding{fp.Root: "PO.Line"})
	d = ix.Counters().Sub(fpBefore)
	if d.FastPath != 1 || d.Emitted != 3 {
		t.Fatalf("fast-path delta = %+v", d)
	}
}

func TestCountersSurviveApplyChanges(t *testing.T) {
	doc := buildDoc()
	ix := index.Build(doc)
	p := twig.MustParse(`Order/POLine/Quantity`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Qty"}
	ix.MatchTwig(doc, p.Root, paths)
	before := ix.Counters()
	if before.Evals == 0 {
		t.Fatal("no evals recorded on base index")
	}

	rev := doc.BeginRevision()
	target := rev.LocateByPath("PO.Line.Qty", 0)
	if target == nil {
		t.Fatal("PO.Line.Qty not found")
	}
	if err := rev.SetText(target.Start, "9"); err != nil {
		t.Fatal(err)
	}
	newDoc, cs := rev.Commit()
	nx := ix.ApplyChanges(newDoc, cs)
	// The overlay epoch shares the chain's counters, so history carries
	// over, and the write itself moves none of them: the memo is checked
	// when an entry is first used.
	if got := nx.Counters(); got != before {
		t.Fatalf("overlay counters = %+v, want inherited %+v", got, before)
	}
	// The one cached result binds the edited path, so its first use over
	// the new epoch refuses it and the join runs.
	nx.MatchTwig(newDoc, p.Root, paths)
	if d := nx.Counters().Sub(before); d.Evals != 1 || d.MemoMisses != 1 || d.MemoDropped != 1 || d.MemoCarried != 0 {
		t.Fatalf("overlay eval delta = %+v", d)
	}
}

func TestCollectMetricsExposesCounters(t *testing.T) {
	doc := buildDoc()
	ix := index.Build(doc)
	p := twig.MustParse(`Order/POLine/Quantity`)
	n := p.Nodes()
	ix.MatchTwig(doc, p.Root, twig.PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Qty"})

	r := obs.NewRegistry()
	r.Collect(index.CollectMetrics)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"xmatch_index_evals_total", "xmatch_index_memo_hits_total", "xmatch_index_decoded_blocks_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %s:\n%s", want, sb.String())
		}
	}
	if _, err := obs.ParseExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("index metrics fail exposition lint: %v", err)
	}
}
