package engine_test

// Tests for Engine.Sub, the per-request view the serving layer evaluates
// on, and for the engine's one pool: a view must return byte-identical
// results and share the parent's prepared-query cache, and however many
// views call at once, the pool never runs more than its slots.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/engine"
	"xmatch/internal/oracle"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

func TestSubDifferential(t *testing.T) {
	fix := newDiffFixture(t)
	o := oracle.New(t)
	set := fix.base
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parent := engine.New(engine.Options{Workers: 8})
	for _, spec := range dataset.Queries()[:4] {
		q, err := core.PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		want, wantTop := o.Results(set, spec.Text, 0, fix.doc), o.Results(set, spec.Text, 3, fix.doc)
		for _, n := range []int{1, 2, 3, 8, 0, -1, 100} {
			sub := parent.Sub(n)
			assertSameResults(t, fmt.Sprintf("%s sub=%d", spec.ID, n),
				want, sub.EvaluateAcross(q, set, one(fix.doc), bt))
			assertSameResults(t, fmt.Sprintf("%s sub=%d topk", spec.ID, n),
				wantTop, sub.EvaluateTopKAcross(q, set, one(fix.doc), bt, 3))
		}
	}
}

func TestSubIdentityCases(t *testing.T) {
	parent := engine.New(engine.Options{Workers: 4})
	for _, n := range []int{0, -3, 4, 9} {
		if sub := parent.Sub(n); sub != parent {
			t.Errorf("Sub(%d) did not return the parent engine", n)
		}
	}
	if w := parent.Sub(2).Workers(); w != 2 {
		t.Errorf("Sub(2).Workers() = %d, want 2", w)
	}
	if w := parent.Sub(1).Workers(); w != 1 {
		t.Errorf("Sub(1).Workers() = %d, want 1", w)
	}
}

// TestSubSharesCache: preparing through a Sub must populate the parent's
// cache and vice versa.
func TestSubSharesCache(t *testing.T) {
	fix := newDiffFixture(t)
	parent := engine.New(engine.Options{Workers: 4})
	sub := parent.Sub(2)
	pattern := dataset.Queries()[0].Text
	if _, err := sub.Prepare(pattern, fix.base); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Prepare(pattern, fix.base); err != nil {
		t.Fatal(err)
	}
	st := parent.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats after sub+parent prepare: %+v, want 1 hit / 1 miss", st)
	}
}

// TestSubConcurrentBatches runs many concurrent batches, each through its
// own small Sub view, against one shared parent pool — the serving
// pattern — and checks every response against the oracle's answer. Run
// with -race this also exercises the pool's admission path.
func TestSubConcurrentBatches(t *testing.T) {
	fix := newDiffFixture(t)
	o := oracle.New(t)
	set := fix.base
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := dataset.Queries()
	want := make([][]core.Result, len(specs))
	for i, spec := range specs {
		want[i] = o.Results(set, spec.Text, 0, fix.doc)
	}
	parent := engine.New(engine.Options{Workers: 8})
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sub := parent.Sub(1 + c%3)
			reqs := make([]engine.Request, len(specs))
			for i, spec := range specs {
				reqs[i] = engine.Request{Pattern: spec.Text}
			}
			for i, resp := range sub.EvaluateBatchAcross(set, one(fix.doc), bt, reqs) {
				if resp.Err != nil {
					t.Errorf("client %d query %d: %v", c, i, resp.Err)
					continue
				}
				assertSameResults(t, fmt.Sprintf("client %d query %d", c, i), want[i], resp.Results)
			}
		}(c)
	}
	wg.Wait()
}

// inflightMatcher is a counting accelerator: it records the most matcher
// calls running at once over every document it is attached to.
type inflightMatcher struct{ now, peak atomic.Int64 }

func (m *inflightMatcher) MatchTwig(doc *xmltree.Document, qn *twig.Node, paths twig.PathBinding) []twig.Match {
	n := m.now.Add(1)
	defer m.now.Add(-1)
	for p := m.peak.Load(); n > p && !m.peak.CompareAndSwap(p, n); p = m.peak.Load() {
	}
	time.Sleep(20 * time.Microsecond) // hold the call open so that overlaps show
	return twig.MatchByPaths(doc, qn, paths)
}

// TestPoolBound: concurrent batches, each through a Sub(2) view of a
// 4-worker engine and each member scattered over 8 shards, never run more
// matcher calls at once than the calling goroutines plus the engine's 3
// pool slots — a view caps how one call splits, every spawn takes a slot
// from the one pool — and leave no slot taken.
func TestPoolBound(t *testing.T) {
	const workers, callers = 4, 2
	fix := newCollFixture(t, 8, 4000)
	m := &inflightMatcher{}
	for _, doc := range fix.members {
		doc.SetAccel(m)
	}
	set := fix.base
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]engine.Request, len(dataset.Queries()))
	for i, spec := range dataset.Queries() {
		reqs[i] = engine.Request{Pattern: spec.Text, K: (i % 2) * 5}
	}
	root := engine.New(engine.Options{Workers: workers})
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tree := range []*core.BlockTree{bt, nil, bt} {
				for _, r := range root.Sub(2).EvaluateBatchAcross(set, engine.Shards{Docs: fix.members}, tree, reqs) {
					if r.Err != nil {
						t.Error(r.Err)
					}
				}
			}
		}()
	}
	wg.Wait()
	peak := m.peak.Load()
	t.Logf("at most %d matcher calls ran at once", peak)
	if peak > callers+workers-1 {
		t.Fatalf("%d matcher calls ran at once; %d callers and %d pool slots allow %d", peak, callers, workers-1, callers+workers-1)
	}
	if busy := root.Busy(); busy != 0 {
		t.Fatalf("%d pool slots still taken after every batch returned", busy)
	}
}
