package engine_test

// Differential tests: for every worker count and batch size the engine must
// return the oracle's answer (internal/oracle: Algorithm 3 over a fresh
// copy of the document) — same mapping order, same match order,
// probabilities within 1e-12 — across randomized mapping sets derived from
// the paper's datasets.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/oracle"
	"xmatch/internal/xmltree"
)

// workerCounts are the pool sizes every differential assertion runs under.
func workerCounts() []int {
	return []int{1, 2, 8, runtime.GOMAXPROCS(0)}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// one is a document as the engine takes it: a collection of one.
func one(doc *xmltree.Document) engine.Shards {
	return engine.Shards{Docs: []*xmltree.Document{doc}}
}

// randomSubSet derives a fresh mapping set by sampling a random subset of a
// base set's mappings (at least 2) and renormalizing probabilities through
// mapping.NewSet. Mappings are deep-copied so the base set's probabilities
// are untouched.
func randomSubSet(t *testing.T, base *mapping.Set, rng *rand.Rand) *mapping.Set {
	t.Helper()
	n := 2 + rng.Intn(base.Len()-1)
	idx := rng.Perm(base.Len())[:n]
	picked := make([]*mapping.Mapping, n)
	for i, mi := range idx {
		src := base.Mappings[mi]
		picked[i] = &mapping.Mapping{
			Pairs: append([]mapping.Pair(nil), src.Pairs...),
			Score: src.Score,
		}
	}
	set, err := mapping.NewSet(base.Source, base.Target, picked)
	if err != nil {
		t.Fatalf("randomSubSet: %v", err)
	}
	return set
}

// assertSameResults requires a and b to be byte-identical answers:
// same mappings in the same order, same matches in the same order (compared
// by canonical key), probabilities within 1e-12.
func assertSameResults(t *testing.T, label string, want, got []core.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.MappingIndex != g.MappingIndex {
			t.Fatalf("%s: result %d has mapping %d, want %d", label, i, g.MappingIndex, w.MappingIndex)
		}
		if math.Abs(w.Prob-g.Prob) > 1e-12 {
			t.Fatalf("%s: result %d prob %v, want %v", label, i, g.Prob, w.Prob)
		}
		if len(w.Matches) != len(g.Matches) {
			t.Fatalf("%s: result %d has %d matches, want %d", label, i, len(g.Matches), len(w.Matches))
		}
		for j := range w.Matches {
			if w.Matches[j].Key() != g.Matches[j].Key() {
				t.Fatalf("%s: result %d match %d is %q, want %q",
					label, i, j, g.Matches[j].Key(), w.Matches[j].Key())
			}
		}
	}
}

// diffFixture is the shared workload: dataset D7 (whose target schema the
// Table III queries are posed against), a generated order document, and a
// base mapping set to subsample.
type diffFixture struct {
	d    *dataset.Dataset
	doc  *xmltree.Document
	base *mapping.Set
}

func newDiffFixture(t *testing.T) *diffFixture {
	t.Helper()
	d, err := dataset.Load("D7")
	if err != nil {
		t.Fatal(err)
	}
	base, err := mapgen.TopH(d.Matching, 120, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	return &diffFixture{d: d, doc: d.OrderDocument(1200, 7), base: base}
}

func TestDifferentialBasic(t *testing.T) {
	fix := newDiffFixture(t)
	o := oracle.New(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4; trial++ {
		set := randomSubSet(t, fix.base, rng)
		for _, spec := range dataset.Queries() {
			q, err := core.PrepareQuery(spec.Text, set)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			want := o.Results(set, spec.Text, 0, fix.doc)
			for _, w := range workerCounts() {
				got := engine.New(engine.Options{Workers: w}).EvaluateBasicAcross(q, set, one(fix.doc))
				assertSameResults(t, fmt.Sprintf("trial %d %s workers=%d", trial, spec.ID, w), want, got)
			}
		}
	}
}

func TestDifferentialCompact(t *testing.T) {
	fix := newDiffFixture(t)
	o := oracle.New(t)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 4; trial++ {
		set := randomSubSet(t, fix.base, rng)
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range dataset.Queries() {
			q, err := core.PrepareQuery(spec.Text, set)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			want := o.Results(set, spec.Text, 0, fix.doc)
			for _, w := range workerCounts() {
				got := engine.New(engine.Options{Workers: w}).EvaluateAcross(q, set, one(fix.doc), bt)
				assertSameResults(t, fmt.Sprintf("trial %d %s workers=%d", trial, spec.ID, w), want, got)
			}
		}
	}
}

func TestDifferentialTopK(t *testing.T) {
	fix := newDiffFixture(t)
	o := oracle.New(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		set := randomSubSet(t, fix.base, rng)
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{1, 2, set.Len() / 2, set.Len(), set.Len() + 10}
		for _, spec := range dataset.Queries()[:5] {
			q, err := core.PrepareQuery(spec.Text, set)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			for _, k := range ks {
				want := o.Results(set, spec.Text, k, fix.doc)
				for _, w := range workerCounts() {
					got := engine.New(engine.Options{Workers: w}).EvaluateTopKAcross(q, set, one(fix.doc), bt, k)
					assertSameResults(t, fmt.Sprintf("trial %d %s k=%d workers=%d", trial, spec.ID, k, w), want, got)
				}
			}
		}
	}
}

// assertBatch checks a batch's responses against the oracle: each echoes
// its request, carries no error, and answers it (K ignored without a
// block tree, where every request is basic).
func assertBatch(t *testing.T, o *oracle.Oracle, label string, set *mapping.Set, docs []*xmltree.Document, basic bool, reqs []engine.Request, resps []engine.Response) {
	t.Helper()
	if len(resps) != len(reqs) {
		t.Fatalf("%s: %d responses to %d requests", label, len(resps), len(reqs))
	}
	for i, resp := range resps {
		if resp.Err != nil {
			t.Fatalf("%s req %d: %v", label, i, resp.Err)
		}
		if resp.Pattern != reqs[i].Pattern || resp.K != reqs[i].K {
			t.Fatalf("%s req %d: response echoes %q/%d", label, i, resp.Pattern, resp.K)
		}
		k := reqs[i].K
		if basic {
			k = 0
		}
		assertSameResults(t, fmt.Sprintf("%s req %d", label, i), o.Results(set, reqs[i].Pattern, k, docs...), resp.Results)
	}
}

func TestDifferentialBatch(t *testing.T) {
	fix := newDiffFixture(t)
	o := oracle.New(t)
	rng := rand.New(rand.NewSource(4))
	set := randomSubSet(t, fix.base, rng)
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := dataset.Queries()
	for _, batchSize := range []int{1, 3, 7, 25} {
		reqs := make([]engine.Request, batchSize)
		for i := range reqs {
			spec := specs[rng.Intn(len(specs))]
			reqs[i] = engine.Request{Pattern: spec.Text, K: rng.Intn(3) * 5} // K in {0, 5, 10}
		}
		for _, w := range workerCounts() {
			resps := engine.New(engine.Options{Workers: w}).EvaluateBatchAcross(set, one(fix.doc), bt, reqs)
			assertBatch(t, o, fmt.Sprintf("batch=%d workers=%d", batchSize, w), set, []*xmltree.Document{fix.doc}, false, reqs, resps)
		}
	}
}

// TestDifferentialBatchBasic covers the nil-block-tree path: every request
// falls back to basic evaluation over all mappings.
func TestDifferentialBatchBasic(t *testing.T) {
	fix := newDiffFixture(t)
	set := randomSubSet(t, fix.base, newRng(5))
	reqs := make([]engine.Request, 4)
	for i, spec := range dataset.Queries()[:4] {
		reqs[i] = engine.Request{Pattern: spec.Text, K: i}
	}
	e := engine.New(engine.Options{Workers: runtime.GOMAXPROCS(0)})
	resps := e.EvaluateBatchAcross(set, one(fix.doc), nil, reqs)
	assertBatch(t, oracle.New(t), "basic batch", set, []*xmltree.Document{fix.doc}, true, reqs, resps)
}
