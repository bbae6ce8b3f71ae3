package core

// Tests of the compiled evaluation plan: that running it is Algorithm 3's
// answer exactly — same mappings, same order, same matches in the same
// order — and that a plan, compiled once and hung off the prepared query,
// serves every document, snapshot, block tree and goroutine that query
// meets.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/schema"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// orderedKeys flattens results into a comparable form that keeps mapping
// order and match order.
func orderedKeys(rs []Result) []string {
	out := make([]string, 0, len(rs))
	for _, r := range rs {
		s := fmt.Sprintf("m%d p=%v", r.MappingIndex, r.Prob)
		for _, m := range r.Matches {
			s += " " + m.Key()
		}
		out = append(out, s)
	}
	return out
}

// topKOfBasic is the oracle of the top-k PTQ: Algorithm 3's answer cut
// down to the k most probable of its mappings (ties by index), which are
// all the relevant ones.
func topKOfBasic(basic []Result, k int) []Result {
	byRank := append([]Result(nil), basic...)
	sort.SliceStable(byRank, func(i, j int) bool { return byRank[i].Prob > byRank[j].Prob })
	if k < len(byRank) {
		byRank = byRank[:k]
	}
	sort.Slice(byRank, func(i, j int) bool { return byRank[i].MappingIndex < byRank[j].MappingIndex })
	return byRank
}

// assertPlanEqualsBasic compares the plan-driven evaluators with
// Algorithm 3 for one query, at full k and at the given cut-offs, and
// returns the plan's full answer.
func assertPlanEqualsBasic(t *testing.T, label string, q *Query, set *mapping.Set, doc *xmltree.Document, bt *BlockTree, ks ...int) []Result {
	t.Helper()
	basic := EvaluateBasic(q, set, doc)
	plan := Evaluate(q, set, doc, bt)
	if got, want := orderedKeys(plan), orderedKeys(basic); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: plan-driven Evaluate differs from Algorithm 3\nplan:  %v\nbasic: %v", label, got, want)
	}
	for _, k := range ks {
		got, want := orderedKeys(EvaluateTopK(q, set, doc, bt, k)), orderedKeys(topKOfBasic(basic, k))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d: plan-driven EvaluateTopK differs from Algorithm 3's top k\nplan:  %v\nbasic: %v", label, k, got, want)
		}
	}
	return plan
}

// assertBasicPlanEqualsBasic compares the plan of no block tree with
// Algorithm 3, at full k and at the given cut-offs. The plan has one leaf
// unit per distinct rewrite and nothing else, and over an indexed document
// a second pass returns the first pass's slices.
func assertBasicPlanEqualsBasic(t *testing.T, label string, q *Query, set *mapping.Set, doc *xmltree.Document, ks ...int) {
	t.Helper()
	basic := EvaluateBasic(q, set, doc)
	p := q.Plan(set, nil)
	first := p.Run([]*xmltree.Document{doc}, 0, nil, nil, nil)
	if got, want := orderedKeys(first), orderedKeys(basic); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the basic plan differs from Algorithm 3\nplan:  %v\nbasic: %v", label, got, want)
	}
	if st := p.Stats(); st.JoinUnits != 0 || st.BlockUnits != 0 || st.ResultClasses != st.LeafUnits {
		t.Fatalf("%s: the basic plan is not one leaf unit per rewrite: %+v", label, st)
	}
	for _, k := range ks {
		got, want := orderedKeys(p.Run([]*xmltree.Document{doc}, k, nil, nil, nil)), orderedKeys(topKOfBasic(basic, k))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s k=%d: the basic plan differs from Algorithm 3's top k\nplan:  %v\nbasic: %v", label, k, got, want)
		}
	}
	if doc.Accel() == nil || len(q.Embeddings) > 1 {
		return
	}
	for i, r := range p.Run([]*xmltree.Document{doc}, 0, nil, nil, nil) {
		if sliceIdent(r.Matches) != sliceIdent(first[i].Matches) {
			t.Fatalf("%s: a hot basic pass re-evaluated mapping %d", label, r.MappingIndex)
		}
	}
}

// repeatedLabelSchema is randomSchema with element names drawn from a
// small pool, so that patterns have several embeddings.
func repeatedLabelSchema(rng *rand.Rand, name string, size int) *schema.Schema {
	b := schema.NewBuilder(name, name+"Root")
	elems := []*schema.Element{b.Root}
	for len(elems) < size {
		parent := elems[rng.Intn(len(elems))]
		label := fmt.Sprintf("%s_n%d", name, rng.Intn(size/3+1))
		taken := parent.Level >= 5
		for _, c := range parent.Children {
			taken = taken || c.Name == label
		}
		if !taken {
			elems = append(elems, parent.AddChild(label))
		}
	}
	return b.Freeze()
}

func TestPlanEqualsAlgorithm3(t *testing.T) {
	rng := rand.New(rand.NewSource(1503))
	fixtures := 300
	if testing.Short() {
		fixtures = 60
	}
	results, multi, decomposed, shared := 0, 0, 0, 0
	for trial := 0; trial < fixtures; trial++ {
		src := randomSchema(rng, "S", 20+rng.Intn(20))
		var tgt *schema.Schema
		if trial%3 == 0 {
			tgt = repeatedLabelSchema(rng, "T", 10+rng.Intn(12))
		} else {
			tgt = randomSchema(rng, "T", 10+rng.Intn(12))
		}
		set, err := mapgen.TopH(randomMatching(rng, src, tgt, 0.8), 5+rng.Intn(25), mapgen.Partition)
		if err != nil {
			t.Fatal(err)
		}
		doc := instantiate(rng, src)
		if trial%2 == 0 {
			index.Attach(doc)
		}
		pat := randomQuery(rng, tgt)
		q, err := PrepareQuery(pat.String(), set)
		if err != nil {
			continue
		}
		if len(q.Embeddings) > 1 {
			multi++
		}
		assertBasicPlanEqualsBasic(t, fmt.Sprintf("trial %d %s", trial, pat), q, set, doc, 1, 1+rng.Intn(set.Len()))
		for _, opts := range []Options{{Tau: 0.05}, {Tau: 0.2}, {Tau: 0.5}, {Tau: 0.2, MaxB: 1 + rng.Intn(4)}} {
			bt, err := Build(set, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d %+v %s", trial, opts, pat)
			first := assertPlanEqualsBasic(t, label, q, set, doc, bt, 1, 2, 1+rng.Intn(set.Len()), set.Len()+1)
			results += len(first)
			if trial%2 == 0 && len(q.Embeddings) == 1 {
				// A hot pass over the indexed document is answered from the
				// epoch's memo: the very slices the first pass produced.
				for i, r := range Evaluate(q, set, doc, bt) {
					if sliceIdent(r.Matches) != sliceIdent(first[i].Matches) {
						t.Fatalf("%s: hot pass re-evaluated mapping %d", label, r.MappingIndex)
					}
					if len(r.Matches) > 0 {
						shared++
					}
				}
			}
			for _, ep := range q.Plan(set, bt).Embeddings {
				decomposed += len(ep.joins)
			}
		}
	}
	if results < 1000 || multi < 10 || decomposed < 50 || shared < 100 {
		t.Fatalf("fixtures too weak: %d results, %d multi-embedding queries, %d join units, %d hot non-empty answers", results, multi, decomposed, shared)
	}
}

func TestPlanEqualsAlgorithm3TableIII(t *testing.T) {
	d, err := dataset.Load("D7")
	if err != nil {
		t.Fatal(err)
	}
	doc := d.OrderDocument(1200, 7)
	index.Attach(doc)
	sizes := []int{30, 100, 500}
	if testing.Short() {
		sizes = []int{30, 100}
	}
	for _, m := range sizes {
		set, err := mapgen.TopH(d.Matching, m, mapgen.Partition)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := Build(set, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range dataset.Queries() {
			q, err := PrepareQuery(spec.Text, set)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("|M|=%d %s", m, spec.ID)
			assertPlanEqualsBasic(t, label, q, set, doc, bt, 1, 5, 100)
			assertBasicPlanEqualsBasic(t, label, q, set, doc, 5)
		}
	}
}

// d7Fixture is the Table III workload at |M| = 50 over an indexed live
// document.
func d7Fixture(t *testing.T) (*dataset.Dataset, *mapping.Set, *delta.Handle) {
	t.Helper()
	d, err := dataset.Load("D7")
	if err != nil {
		t.Fatal(err)
	}
	set, err := mapgen.TopH(d.Matching, 50, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	return d, set, delta.Open(d.OrderDocument(900, 7))
}

// TestPlanOutlivesDocuments: one prepared query — one plan, compiled on
// the first call — answers a second, unrelated document and the snapshots
// of a live document before and after a logged mutation, each exactly as
// Algorithm 3 does.
func TestPlanOutlivesDocuments(t *testing.T) {
	d, set, h := d7Fixture(t)
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	other := d.OrderDocument(400, 11)
	for _, spec := range dataset.Queries() {
		q, err := PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatal(err)
		}
		before := h.Snapshot()
		assertPlanEqualsBasic(t, spec.ID+" first document", q, set, before.Doc, bt, 3)
		plan := q.plan.Load()
		assertPlanEqualsBasic(t, spec.ID+" second document", q, set, other, bt, 3)

		// Retext one node the query binds (or any text leaf) and evaluate
		// both snapshots: the old one must still read the old text.
		target := before.Doc.Nodes()[len(before.Doc.Nodes())-1]
		if full := Evaluate(q, set, before.Doc, bt); len(full) > 0 && len(full[0].Matches) > 0 {
			m := full[0].Matches[0]
			target = m[len(m)-1].D
		}
		logged := 0
		after, err := h.ApplyLogged([]delta.Edit{{Op: delta.OpSetText, Start: target.Start, Text: "plan-lifetime"}},
			func(uint64, []delta.Edit) error { logged++; return nil })
		if err != nil || logged != 1 {
			t.Fatalf("%s: ApplyLogged: %v (logged %d)", spec.ID, err, logged)
		}
		assertPlanEqualsBasic(t, spec.ID+" snapshot after the edit", q, set, after.Doc, bt, 3)
		assertPlanEqualsBasic(t, spec.ID+" snapshot before the edit", q, set, before.Doc, bt, 3)
		if q.plan.Load() != plan {
			t.Fatalf("%s: the plan was recompiled for another document", spec.ID)
		}
	}
}

// TestPlanPerBlockTree: a query prepared once and evaluated against two
// block trees of the same set (different τ, hence different c-blocks) gets
// each tree's plan, also when the trees alternate.
func TestPlanPerBlockTree(t *testing.T) {
	_, set, h := d7Fixture(t)
	doc := h.Snapshot().Doc
	coarse, err := Build(set, Options{Tau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Build(set, Options{Tau: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for _, spec := range dataset.Queries() {
		q, err := PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			for _, bt := range []*BlockTree{coarse, fine} {
				assertPlanEqualsBasic(t, fmt.Sprintf("%s tau=%v", spec.ID, bt.Opts.Tau), q, set, doc, bt, 4)
				if p := q.plan.Load(); p.bt != bt {
					t.Fatalf("%s: evaluated tau=%v with the plan of tau=%v", spec.ID, bt.Opts.Tau, p.bt.Opts.Tau)
				}
			}
		}
		if q.Plan(set, coarse).Stats() != q.Plan(set, fine).Stats() {
			differ = true
		}
	}
	if !differ {
		t.Fatal("the two block trees compile to plans of the same size for every query; the test pins nothing")
	}
}

// TestPlanConcurrentFirstUse: eight goroutines race the compiling call of
// every Table III query, and the first lookups and stores of its units in
// the epoch's memo (run with -race), and all read Algorithm 3's answer;
// then the memo answers the query without a miss.
func TestPlanConcurrentFirstUse(t *testing.T) {
	_, set, h := d7Fixture(t)
	snap := h.Snapshot()
	doc := snap.Doc
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range dataset.Queries() {
		q, err := PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatal(err)
		}
		want := orderedKeys(EvaluateBasic(q, set, doc))
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				got := Evaluate(q, set, doc, bt)
				if g%2 == 1 {
					got = EvaluateTopK(q, set, doc, bt, set.Len())
				}
				if !reflect.DeepEqual(orderedKeys(got), want) {
					t.Errorf("%s goroutine %d: racing first use gave a different answer", spec.ID, g)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		before := snap.Index.Counters()
		Evaluate(q, set, doc, bt)
		if d := snap.Index.Counters().Sub(before); d.UnitMisses != 0 || d.Evals != 0 || d.UnitHits == 0 {
			t.Fatalf("%s: after the race a hot evaluation made %d unit lookups, %d of them misses, and %d matcher calls", spec.ID, d.UnitHits+d.UnitMisses, d.UnitMisses, d.Evals)
		}
	}
}

// recordingMemo is an index that counts the unit outputs stored in it and
// calls matched, when set, after each matcher call.
type recordingMemo struct {
	*index.Index
	stored  int
	matched func()
}

func (r *recordingMemo) MatchTwig(doc *xmltree.Document, qn *twig.Node, paths twig.PathBinding) []twig.Match {
	ms := r.Index.MatchTwig(doc, qn, paths)
	if r.matched != nil {
		r.matched()
	}
	return ms
}

func (r *recordingMemo) StoreUnit(qn *twig.Node, key string, ms []twig.Match) {
	r.stored++
	r.Index.StoreUnit(qn, key, ms)
}

// TestPlanRunStops: a stop channel closed before or during Run ends it at the
// next unit; the output keeps its shape (callers index it before they
// learn of the cancellation) but is partial, and nothing incomplete reaches
// the memo. An unstopped Run stores its units, and the next is answered by
// lookups alone, with the same slices.
func TestPlanRunStops(t *testing.T) {
	d, set, _ := d7Fixture(t)
	doc := d.OrderDocument(900, 7)
	memo := &recordingMemo{Index: index.Build(doc)}
	doc.SetAccel(memo)
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, spec := range dataset.Queries() {
		q, err := PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatal(err)
		}
		for _, ep := range q.Plan(set, bt).Embeddings {
			memo.PurgeMemo()
			memo.stored = 0
			units := len(ep.leaves) + len(ep.joins)
			before := memo.Counters()
			stop := make(chan struct{})
			close(stop)
			out := make([][]twig.Match, units)
			ep.Run(out, doc, 0, stop)
			for u, ms := range out {
				if ms != nil {
					t.Fatalf("%s: unit %d ran after stop", spec.ID, u)
				}
			}
			if c := memo.Counters().Sub(before); c.Evals+c.UnitHits+c.UnitMisses != 0 || memo.stored != 0 {
				t.Fatalf("%s: a Run stopped before it began touched the memo: %+v, %d stored", spec.ID, c, memo.stored)
			}
			// Stop after the first matcher call: nothing later may run, and of
			// what ran only the complete leaf reaches the memo, through its
			// own matcher call; no join is stored.
			before = memo.Counters()
			stop = make(chan struct{})
			memo.matched = func() {
				if !stopped(stop) {
					close(stop)
				}
			}
			out = make([][]twig.Match, units)
			ep.Run(out, doc, 0, stop)
			memo.matched = nil
			filled := 0
			for _, ms := range out {
				if ms != nil {
					filled++
				}
			}
			if filled > 1 {
				t.Fatalf("%s: %d units ran, though Run stopped at its first matcher call", spec.ID, filled)
			}
			if c := memo.Counters().Sub(before); c.Evals > 1 || memo.stored != 0 {
				t.Fatalf("%s: a Run stopped after its first leaf made %d matcher calls and stored %d units", spec.ID, c.Evals, memo.stored)
			}
			full := make([][]twig.Match, units)
			ep.Run(full, doc, 0, nil)
			stored := memo.stored
			before = memo.Counters()
			hot := make([][]twig.Match, units)
			ep.Run(hot, doc, 0, nil)
			c := memo.Counters().Sub(before)
			if c.Evals != 0 || c.UnitMisses != 0 || memo.stored != stored || c.UnitHits > uint64(len(ep.classes)) {
				t.Fatalf("%s: a hot Run made %d matcher calls, %d lookups (%d misses) and %d stores for %d classes",
					spec.ID, c.Evals, c.UnitHits+c.UnitMisses, c.UnitMisses, memo.stored-stored, len(ep.classes))
			}
			for _, cl := range ep.classes {
				if sliceIdent(hot[cl.unit]) != sliceIdent(full[cl.unit]) {
					t.Fatalf("%s: unit %d was not answered from the memo", spec.ID, cl.unit)
				}
			}
			ran++
		}
	}
	if ran == 0 {
		t.Fatal("no plan ran")
	}
}

// countingMatcher is a Matcher that counts its calls.
type countingMatcher struct{ calls int }

func (c *countingMatcher) MatchTwig(doc *xmltree.Document, qn *twig.Node, paths twig.PathBinding) []twig.Match {
	c.calls++
	return twig.MatchByPaths(doc, qn, paths)
}

// TestPlanTopKSkipsUnits: evaluating a document costs one matcher call per
// leaf unit; a top-k evaluation makes only the calls its k best mappings
// depend on, and k covering every relevant mapping is the plain PTQ — the
// same calls, no selection.
func TestPlanTopKSkipsUnits(t *testing.T) {
	d, set, _ := d7Fixture(t)
	doc := d.OrderDocument(900, 7)
	counter := &countingMatcher{}
	doc.SetAccel(counter)
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	calls := func(eval func()) int {
		counter.calls = 0
		eval()
		return counter.calls
	}
	skipped := false
	for _, spec := range dataset.Queries() {
		q, err := PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatal(err)
		}
		p := q.Plan(set, bt)
		all := calls(func() { Evaluate(q, set, doc, bt) })
		if st := p.Stats(); all > st.LeafUnits || all == 0 {
			t.Fatalf("%s: the plain PTQ made %d matcher calls, the plan has %d leaf units", spec.ID, all, st.LeafUnits)
		}
		if got := calls(func() { EvaluateTopK(q, set, doc, bt, p.relevant) }); got != all {
			t.Fatalf("%s: k = |relevant| made %d matcher calls, the plain PTQ %d", spec.ID, got, all)
		}
		top1 := calls(func() { EvaluateTopK(q, set, doc, bt, 1) })
		if top1 > all || top1 == 0 {
			t.Fatalf("%s: top-1 made %d matcher calls, the plain PTQ %d", spec.ID, top1, all)
		}
		skipped = skipped || top1 < all
	}
	if !skipped {
		t.Fatal("top-1 never skipped a unit; the test pins nothing")
	}
}
