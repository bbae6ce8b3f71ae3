package engine_test

// Engine behavior tests: prepared-query cache accounting and eviction,
// concurrent evaluation sharing one cache (run these under -race),
// and the sequential fallback at workers <= 0.

import (
	"fmt"
	"sync"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/oracle"
)

func TestPrepareCacheAccounting(t *testing.T) {
	fix := newDiffFixture(t)
	e := engine.New(engine.Options{Workers: 2, CacheCapacity: 8})
	specs := dataset.Queries()[:3]

	for _, spec := range specs {
		if _, err := e.Prepare(spec.Text, fix.base); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Hits != 0 || st.Misses != 3 || st.Entries != 3 {
		t.Fatalf("after cold prepares: %+v", st)
	}

	q1, err := e.Prepare(specs[0].Text, fix.base)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Prepare(specs[0].Text, fix.base)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("repeated Prepare returned distinct queries")
	}
	st = e.CacheStats()
	if st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("after warm prepares: %+v", st)
	}

	// The same pattern against a different mapping set is a different key.
	other := randomSubSet(t, fix.base, newRng(11))
	q3, err := e.Prepare(specs[0].Text, other)
	if err != nil {
		t.Fatal(err)
	}
	if q3 == q1 {
		t.Fatal("same pattern on a different set shared a cache entry")
	}
	st = e.CacheStats()
	if st.Misses != 4 || st.Entries != 4 {
		t.Fatalf("after cross-set prepare: %+v", st)
	}

	// Failed preparations are not cached and count as misses every time.
	if _, err := e.Prepare("Order/", fix.base); err == nil {
		t.Fatal("invalid pattern prepared")
	}
	if _, err := e.Prepare("Order/", fix.base); err == nil {
		t.Fatal("invalid pattern prepared")
	}
	st = e.CacheStats()
	if st.Misses != 6 || st.Entries != 4 {
		t.Fatalf("after failed prepares: %+v", st)
	}
}

func TestPrepareCacheEviction(t *testing.T) {
	fix := newDiffFixture(t)
	e := engine.New(engine.Options{Workers: 1, CacheCapacity: 2})
	specs := dataset.Queries()[:3]
	for _, spec := range specs {
		if _, err := e.Prepare(spec.Text, fix.base); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v", st)
	}
	// specs[0] was evicted (LRU); preparing it again misses, and evicts
	// specs[1] in turn.
	if _, err := e.Prepare(specs[0].Text, fix.base); err != nil {
		t.Fatal(err)
	}
	st = e.CacheStats()
	if st.Hits != 0 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("after re-prepare of evicted: %+v", st)
	}
	// specs[2] stayed resident.
	if _, err := e.Prepare(specs[2].Text, fix.base); err != nil {
		t.Fatal(err)
	}
	if st = e.CacheStats(); st.Hits != 1 {
		t.Fatalf("expected a hit on resident entry: %+v", st)
	}
}

func TestPrepareCacheDisabled(t *testing.T) {
	fix := newDiffFixture(t)
	e := engine.New(engine.Options{CacheCapacity: -1})
	spec := dataset.Queries()[0]
	for i := 0; i < 3; i++ {
		if _, err := e.Prepare(spec.Text, fix.base); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Hits != 0 || st.Misses != 3 || st.Entries != 0 {
		t.Fatalf("disabled cache: %+v", st)
	}
}

// TestConcurrentEvaluateSharedCache exercises one engine — one worker pool,
// one prepared-query cache — from many goroutines at once; it is primarily a
// -race target, but also checks every concurrent answer against the
// oracle and the cache counters afterwards.
func TestConcurrentEvaluateSharedCache(t *testing.T) {
	fix := newDiffFixture(t)
	o := oracle.New(t)
	rng := newRng(6)
	set := randomSubSet(t, fix.base, rng)
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := dataset.Queries()[:4]
	want := make([][]core.Result, len(specs))
	for i, spec := range specs {
		want[i] = o.Results(set, spec.Text, 0, fix.doc)
	}

	e := engine.New(engine.Options{Workers: 4, CacheCapacity: 16})
	const callers = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, callers*rounds)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				si := (c + r) % len(specs)
				q, err := e.Prepare(specs[si].Text, set)
				if err != nil {
					errs <- err
					return
				}
				got := e.EvaluateAcross(q, set, one(fix.doc), bt)
				if len(got) != len(want[si]) {
					errs <- fmt.Errorf("caller %d round %d: %d results, want %d", c, r, len(got), len(want[si]))
					return
				}
				for i := range got {
					if got[i].MappingIndex != want[si][i].MappingIndex || len(got[i].Matches) != len(want[si][i].Matches) {
						errs <- fmt.Errorf("caller %d round %d: result %d diverges", c, r, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := e.CacheStats()
	if st.Hits+st.Misses != callers*rounds {
		t.Fatalf("hits+misses = %d, want %d (%+v)", st.Hits+st.Misses, callers*rounds, st)
	}
	if st.Entries > len(specs) {
		t.Fatalf("%d entries for %d distinct patterns (%+v)", st.Entries, len(specs), st)
	}
	if st.Misses < uint64(len(specs)) {
		t.Fatalf("fewer misses than distinct patterns: %+v", st)
	}
}

// TestConcurrentBatches runs overlapping batches on one engine,
// another -race target exercising batch fan-out against the bounded pool.
func TestConcurrentBatches(t *testing.T) {
	fix := newDiffFixture(t)
	set := randomSubSet(t, fix.base, newRng(7))
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := dataset.Queries()
	reqs := make([]engine.Request, len(specs))
	for i, spec := range specs {
		reqs[i] = engine.Request{Pattern: spec.Text, K: (i % 2) * 3}
	}
	e := engine.New(engine.Options{Workers: 3})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, resp := range e.EvaluateBatchAcross(set, one(fix.doc), bt, reqs) {
				if resp.Err != nil {
					t.Error(resp.Err)
				}
			}
		}()
	}
	wg.Wait()
}

func TestWorkersFallbackSequential(t *testing.T) {
	fix := newDiffFixture(t)
	set := randomSubSet(t, fix.base, newRng(8))
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := dataset.Queries()[3]
	q, err := core.PrepareQuery(spec.Text, set)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.New(t).Results(set, spec.Text, 0, fix.doc)
	for _, w := range []int{0, -1, -8} {
		e := engine.New(engine.Options{Workers: w})
		if e.Workers() != 1 {
			t.Fatalf("Workers(%d) reports %d, want 1", w, e.Workers())
		}
		assertSameResults(t, fmt.Sprintf("basic workers=%d", w), want, e.EvaluateBasicAcross(q, set, one(fix.doc)))
		assertSameResults(t, fmt.Sprintf("tree workers=%d", w), want, e.EvaluateAcross(q, set, one(fix.doc), bt))
		if got := e.EvaluateTopKAcross(q, set, one(fix.doc), bt, 0); got != nil {
			t.Fatalf("top-0 workers=%d returned %d results", w, len(got))
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	fix := newDiffFixture(t)
	e := engine.New(engine.DefaultOptions())
	if resps := e.EvaluateBatchAcross(fix.base, one(fix.doc), nil, nil); len(resps) != 0 {
		t.Fatalf("empty batch returned %d responses", len(resps))
	}
}

func TestBatchPropagatesErrors(t *testing.T) {
	fix := newDiffFixture(t)
	e := engine.New(engine.DefaultOptions())
	resps := e.EvaluateBatchAcross(fix.base, one(fix.doc), nil, []engine.Request{
		{Pattern: dataset.Queries()[0].Text},
		{Pattern: "///not a query"},
	})
	if resps[0].Err != nil {
		t.Fatalf("valid request errored: %v", resps[0].Err)
	}
	if resps[1].Err == nil {
		t.Fatal("invalid request did not error")
	}
}
