package engine_test

// The engine × index contract: a dataset-wide positional index is attached
// to the document once, before serving, and every engine worker then reads
// it with zero synchronization. These tests run parallel evaluation over
// an indexed document — meaningful under -race — and require results
// byte-identical to sequential *unindexed* core evaluation, composing the
// engine's parallel==sequential guarantee with the index's
// indexed==joined guarantee.

import (
	"fmt"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/index"
)

func TestDifferentialIndexedParallel(t *testing.T) {
	fix := newDiffFixture(t)
	set := fix.base
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	queries := dataset.Queries()

	// Sequential unindexed reference, computed before the index exists.
	type ref struct{ basic, compact, topk []core.Result }
	refs := make([]ref, len(queries))
	qs := make([]*core.Query, len(queries))
	for i, spec := range queries {
		q, err := core.PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		qs[i] = q
		refs[i] = ref{
			basic:   core.EvaluateBasic(q, set, fix.doc),
			compact: core.Evaluate(q, set, fix.doc, bt),
			topk:    core.EvaluateTopK(q, set, fix.doc, bt, 7),
		}
	}

	index.Attach(fix.doc)
	defer fix.doc.SetAccel(nil)
	for _, w := range workerCounts() {
		e := engine.New(engine.Options{Workers: w})
		for i, spec := range queries {
			label := fmt.Sprintf("%s workers=%d", spec.ID, w)
			assertSameResults(t, label+" basic", refs[i].basic, e.EvaluateBasic(qs[i], set, fix.doc))
			assertSameResults(t, label+" compact", refs[i].compact, e.Evaluate(qs[i], set, fix.doc, bt))
			assertSameResults(t, label+" topk", refs[i].topk, e.EvaluateTopK(qs[i], set, fix.doc, bt, 7))
		}
	}

	// A batch fans every query out concurrently over the shared index.
	reqs := make([]engine.Request, len(queries))
	for i, spec := range queries {
		reqs[i] = engine.Request{Pattern: spec.Text}
	}
	e := engine.New(engine.Options{Workers: 8})
	for i, resp := range e.EvaluateBatch(set, fix.doc, bt, reqs) {
		if resp.Err != nil {
			t.Fatalf("batch %s: %v", queries[i].ID, resp.Err)
		}
		assertSameResults(t, "batch "+queries[i].ID, refs[i].compact, resp.Results)
	}
}
