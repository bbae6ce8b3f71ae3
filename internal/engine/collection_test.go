package engine_test

// Cross-shard differential tests: evaluating a collection's members with
// the Across evaluators must return the oracle's answer over their
// concatenation (internal/oracle assembles fresh copies of the members
// with xmltree.Corpus) — same mappings, same match order, same
// probabilities — for every shard count, worker count, and query mode.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/oracle"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// collFixture holds one corpus layout: the sharded members.
type collFixture struct {
	members []*xmltree.Document
	base    *mapping.Set
}

func newCollFixture(t *testing.T, shards, totalNodes int) *collFixture {
	t.Helper()
	d, err := dataset.Load("D7")
	if err != nil {
		t.Fatal(err)
	}
	base, err := mapgen.TopH(d.Matching, 80, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	return &collFixture{members: d.OrderCorpus(shards, totalNodes, 7), base: base}
}

func collShardCounts() []int { return []int{1, 2, 4} }

func collWorkerCounts() []int { return []int{1, 4} }

func TestCollectionDifferentialBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, shards := range collShardCounts() {
		fix := newCollFixture(t, shards, 4800)
		set := randomSubSet(t, fix.base, rng)
		o := oracle.New(t)
		for _, spec := range dataset.Queries() {
			q, err := core.PrepareQuery(spec.Text, set)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			want := o.Results(set, spec.Text, 0, fix.members...)
			for _, w := range collWorkerCounts() {
				e := engine.New(engine.Options{Workers: w})
				got := e.EvaluateBasicAcross(q, set, engine.Shards{Docs: fix.members})
				assertSameResults(t, fmt.Sprintf("shards=%d %s workers=%d", shards, spec.ID, w), want, got)
			}
		}
	}
}

func TestCollectionDifferentialCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, shards := range collShardCounts() {
		fix := newCollFixture(t, shards, 4800)
		set := randomSubSet(t, fix.base, rng)
		o := oracle.New(t)
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range dataset.Queries() {
			q, err := core.PrepareQuery(spec.Text, set)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			want := o.Results(set, spec.Text, 0, fix.members...)
			for _, w := range collWorkerCounts() {
				e := engine.New(engine.Options{Workers: w})
				got := e.EvaluateAcross(q, set, engine.Shards{Docs: fix.members}, bt)
				assertSameResults(t, fmt.Sprintf("shards=%d %s workers=%d", shards, spec.ID, w), want, got)
			}
		}
	}
}

func TestCollectionDifferentialTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, shards := range collShardCounts() {
		fix := newCollFixture(t, shards, 4800)
		set := randomSubSet(t, fix.base, rng)
		o := oracle.New(t)
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{1, set.Len() / 2, set.Len() + 5}
		for _, spec := range dataset.Queries()[:5] {
			q, err := core.PrepareQuery(spec.Text, set)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			for _, k := range ks {
				want := o.Results(set, spec.Text, k, fix.members...)
				for _, w := range collWorkerCounts() {
					e := engine.New(engine.Options{Workers: w})
					got := e.EvaluateTopKAcross(q, set, engine.Shards{Docs: fix.members}, bt, k)
					assertSameResults(t, fmt.Sprintf("shards=%d %s k=%d workers=%d", shards, spec.ID, k, w), want, got)
				}
			}
		}
	}
}

func TestCollectionDifferentialBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	specs := dataset.Queries()
	for _, shards := range collShardCounts() {
		fix := newCollFixture(t, shards, 4800)
		set := randomSubSet(t, fix.base, rng)
		o := oracle.New(t)
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]engine.Request, 9)
		for i := range reqs {
			spec := specs[rng.Intn(len(specs))]
			reqs[i] = engine.Request{Pattern: spec.Text, K: rng.Intn(3) * 4} // K in {0, 4, 8}
		}
		for _, w := range collWorkerCounts() {
			resps := engine.New(engine.Options{Workers: w}).EvaluateBatchAcross(set, engine.Shards{Docs: fix.members}, bt, reqs)
			assertBatch(t, o, fmt.Sprintf("shards=%d workers=%d", shards, w), set, fix.members, false, reqs, resps)
		}
	}
}

// TestCollectionObserver: the per-shard observer fires for every shard —
// including under the single-shard delegation — with non-negative timings,
// and must tolerate concurrent invocation (run under -race).
func TestCollectionObserver(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, shards := range []int{1, 3} {
		fix := newCollFixture(t, shards, 2400)
		set := randomSubSet(t, fix.base, rng)
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		q, err := core.PrepareQuery(dataset.Queries()[0].Text, set)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		perShard := make([]int64, shards)
		var calls atomic.Int64
		obs := func(s int, took time.Duration) {
			if took < 0 {
				t.Errorf("negative duration on shard %d", s)
			}
			calls.Add(1)
			mu.Lock()
			perShard[s]++
			mu.Unlock()
		}
		e := engine.New(engine.Options{Workers: 4})
		e.EvaluateAcross(q, set, engine.Shards{Docs: fix.members, Observe: obs}, bt)
		if calls.Load() == 0 {
			t.Fatalf("shards=%d: observer never fired", shards)
		}
		for s, n := range perShard {
			if n == 0 {
				t.Fatalf("shards=%d: shard %d never observed", shards, s)
			}
		}
	}
}

// TestCollectionTopKEdgeCases: the top-k evaluators agree on the edges
// whatever the shard count. k <= 0 selects nothing and returns nil — for
// an empty collection too — and a k covering every relevant mapping is
// the plain PTQ.
func TestCollectionTopKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, shards := range []int{0, 1, 4} {
		var sh engine.Shards
		var set *mapping.Set
		if shards == 0 {
			set = randomSubSet(t, newCollFixture(t, 1, 1200).base, rng)
		} else {
			fix := newCollFixture(t, shards, 2400)
			set = randomSubSet(t, fix.base, rng)
			sh.Docs = fix.members
		}
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range dataset.Queries()[:4] {
			q, err := core.PrepareQuery(spec.Text, set)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			relevant := q.Plan(set, bt).Stats().RelevantMappings
			for _, w := range collWorkerCounts() {
				e := engine.New(engine.Options{Workers: w})
				label := fmt.Sprintf("shards=%d %s workers=%d", shards, spec.ID, w)
				for _, k := range []int{0, -3} {
					if got := e.EvaluateTopKAcross(q, set, sh, bt, k); got != nil {
						t.Fatalf("%s k=%d: %d results (nil=%v), want nil", label, k, len(got), got == nil)
					}
				}
				full := e.EvaluateAcross(q, set, sh, bt)
				if full == nil {
					t.Fatalf("%s: the plain PTQ returned nil, want an empty answer", label)
				}
				if shards > 0 && len(full) != relevant {
					t.Fatalf("%s: %d results, %d relevant mappings", label, len(full), relevant)
				}
				for _, k := range []int{relevant, relevant + 1, 1 << 40} {
					if k == 0 {
						continue // no relevant mapping: k = |relevant| is the k <= 0 case
					}
					got := e.EvaluateTopKAcross(q, set, sh, bt, k)
					if got == nil {
						t.Fatalf("%s k=%d: nil, want the plain PTQ's answer", label, k)
					}
					assertSameResults(t, fmt.Sprintf("%s k=%d", label, k), full, got)
				}
			}
		}
	}
}

// TestCollectionClassesShareSlices: the gather merges each result class
// once, so the distinct match slices of a sharded answer number no more
// than the plan's classes — the response renderer and AggregateByNode
// work once per distinct slice, not once per mapping.
func TestCollectionClassesShareSlices(t *testing.T) {
	fix := newCollFixture(t, 4, 4800)
	bt, err := core.Build(fix.base, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	shared := false
	for _, spec := range dataset.Queries() {
		q, err := core.PrepareQuery(spec.Text, fix.base)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		got := engine.New(engine.Options{Workers: 4}).EvaluateAcross(q, fix.base, engine.Shards{Docs: fix.members}, bt)
		distinct := map[*twig.Match]bool{}
		nonEmpty := 0
		for _, r := range got {
			if len(r.Matches) > 0 {
				distinct[&r.Matches[0]] = true
				nonEmpty++
			}
		}
		classes := q.Plan(fix.base, bt).Stats().ResultClasses
		if len(distinct) > classes {
			t.Fatalf("%s: %d distinct match slices from %d result classes", spec.ID, len(distinct), classes)
		}
		shared = shared || len(distinct) < nonEmpty
	}
	if !shared {
		t.Fatal("no two mappings shared a slice; fixture too weak")
	}
}

// TestCollectionConcurrentFirstPlan: eight goroutines race a cold engine —
// first Prepare, first plan compile — over a sharded collection (run with
// -race) and all get the oracle's answer.
func TestCollectionConcurrentFirstPlan(t *testing.T) {
	fix := newCollFixture(t, 4, 4800)
	bt, err := core.Build(fix.base, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.New(t)
	for _, spec := range dataset.Queries() {
		want := o.Results(fix.base, spec.Text, 0, fix.members...)
		e := engine.New(engine.Options{Workers: 4})
		var wg sync.WaitGroup
		start := make(chan struct{})
		results := make([][]core.Result, 8)
		for g := range results {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				q, err := e.Prepare(spec.Text, fix.base)
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = e.EvaluateAcross(q, fix.base, engine.Shards{Docs: fix.members}, bt)
			}(g)
		}
		close(start)
		wg.Wait()
		for g, got := range results {
			assertSameResults(t, fmt.Sprintf("%s goroutine %d", spec.ID, g), want, got)
		}
	}
}
