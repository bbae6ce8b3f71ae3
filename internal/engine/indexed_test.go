package engine_test

// The engine × index contract: a dataset-wide positional index is attached
// to the document once, before serving, and every engine worker then reads
// it with zero synchronization. These tests run parallel evaluation over
// an indexed document — meaningful under -race — and require the oracle's
// answer (Algorithm 3 over an unindexed copy), composing the engine's
// parallel==sequential guarantee with the index's indexed==joined
// guarantee.

import (
	"fmt"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/index"
	"xmatch/internal/oracle"
)

func TestDifferentialIndexedParallel(t *testing.T) {
	fix := newDiffFixture(t)
	o := oracle.New(t)
	set := fix.base
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	index.Attach(fix.doc)
	defer fix.doc.SetAccel(nil)
	queries := dataset.Queries()
	for _, w := range workerCounts() {
		e := engine.New(engine.Options{Workers: w})
		for _, spec := range queries {
			q, err := e.Prepare(spec.Text, set)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			label := fmt.Sprintf("%s workers=%d", spec.ID, w)
			full := o.Results(set, spec.Text, 0, fix.doc)
			assertSameResults(t, label+" basic", full, e.EvaluateBasicAcross(q, set, one(fix.doc)))
			assertSameResults(t, label+" compact", full, e.EvaluateAcross(q, set, one(fix.doc), bt))
			assertSameResults(t, label+" topk", o.Results(set, spec.Text, 7, fix.doc), e.EvaluateTopKAcross(q, set, one(fix.doc), bt, 7))
		}
	}

	// A batch fans every query out concurrently over the shared index.
	reqs := make([]engine.Request, len(queries))
	for i, spec := range queries {
		reqs[i] = engine.Request{Pattern: spec.Text}
	}
	resps := engine.New(engine.Options{Workers: 8}).EvaluateBatchAcross(set, one(fix.doc), bt, reqs)
	assertBatch(t, o, "batch", set, one(fix.doc).Docs, false, reqs, resps)
}
