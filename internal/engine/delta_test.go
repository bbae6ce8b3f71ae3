package engine_test

// Live-document differentials: the PR-1/PR-3 guarantee — parallel equals
// sequential equals joined-matcher evaluation, byte-for-byte on the wire —
// extended across document mutation. After every randomized edit batch,
// basic, compact, top-k, and aggregate answers must agree between the
// incrementally-maintained index, a full index.Build rebuild over the same
// snapshot, and the unindexed joined matcher, under both sequential core
// evaluation and the parallel engine (run with -race in CI). A separate
// stress test races writers against readers on pinned snapshots.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/xmltree"
)

// deltaFixture builds a small live dataset: mapping set, block tree,
// document behind a delta handle, and source-side paths to mutate.
type deltaFixture struct {
	set  *mapping.Set
	tree *core.BlockTree
	h    *delta.Handle
	pats []string
}

func newDeltaFixture(t testing.TB, docSeed int64) *deltaFixture {
	t.Helper()
	d := dataset.MustLoad("D1")
	set, err := mapgen.TopH(d.Matching, 10, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	doc := d.OrderDocument(300, docSeed)
	var pats []string
	for _, e := range set.Target.Elements() {
		if !e.IsLeaf() {
			continue
		}
		p := ""
		for _, c := range e.Path {
			if c == '.' {
				p += "/"
			} else {
				p += string(c)
			}
		}
		if _, err := core.PrepareQuery(p, set); err == nil {
			pats = append(pats, p)
			if len(pats) == 3 {
				break
			}
		}
	}
	if len(pats) == 0 {
		t.Fatal("no resolvable leaf patterns")
	}
	return &deltaFixture{set: set, tree: bt, h: delta.Open(doc), pats: pats}
}

// randomBatch builds 1-3 edits against the snapshot's document.
func randomBatch(rng *rand.Rand, doc *xmltree.Document) []delta.Edit {
	ns := doc.Nodes()
	k := 1 + rng.Intn(3)
	edits := make([]delta.Edit, 0, k)
	for i := 0; i < k; i++ {
		n := ns[rng.Intn(len(ns))]
		switch rng.Intn(4) {
		case 0:
			edits = append(edits, delta.Edit{Op: delta.OpInsert, Start: n.Start, Pos: -1,
				XML: fmt.Sprintf("<Extra><V>x%d</V></Extra>", rng.Intn(9))})
		case 1:
			if n != doc.Root {
				edits = append(edits, delta.Edit{Op: delta.OpDelete, Start: n.Start})
				continue
			}
			fallthrough
		case 2:
			edits = append(edits, delta.Edit{Op: delta.OpSetText, Start: n.Start, Text: fmt.Sprintf("v%d", rng.Intn(9))})
		default:
			edits = append(edits, delta.Edit{Op: delta.OpSetText, Start: n.Start, Text: ""})
		}
	}
	return edits
}

// answers renders one evaluation's full wire form (results + aggregated
// answers), the byte-identity currency of the differential.
func answers(t testing.TB, q *core.Query, results []core.Result) string {
	t.Helper()
	res, err := json.Marshal(core.ToWire(results))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := json.Marshal(core.AnswersToWire(core.AggregateLeaf(q, results)))
	if err != nil {
		t.Fatal(err)
	}
	return string(res) + "|" + string(ans)
}

func TestEngineDeltaDifferential(t *testing.T) {
	f := newDeltaFixture(t, 11)
	eng := engine.New(engine.Options{Workers: 4})
	rng := rand.New(rand.NewSource(4))

	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for round := 0; round < rounds; round++ {
		cur := f.h.Snapshot()
		snap, err := f.h.Apply(randomBatch(rng, cur.Doc))
		if err != nil {
			continue // batch invalidated itself (delete then edit); fine
		}
		doc := snap.Doc

		for _, pattern := range f.pats {
			q, err := core.PrepareQuery(pattern, f.set)
			if err != nil {
				t.Fatal(err)
			}
			type mode struct {
				name string
				seq  func() []core.Result
				par  func() []core.Result
			}
			modes := []mode{
				{"basic",
					func() []core.Result { return core.EvaluateBasic(q, f.set, doc) },
					func() []core.Result { return eng.EvaluateBasic(q, f.set, doc) }},
				{"compact",
					func() []core.Result { return core.Evaluate(q, f.set, doc, f.tree) },
					func() []core.Result { return eng.Evaluate(q, f.set, doc, f.tree) }},
				{"topk",
					func() []core.Result { return core.EvaluateTopK(q, f.set, doc, f.tree, 3) },
					func() []core.Result { return eng.EvaluateTopK(q, f.set, doc, f.tree, 3) }},
			}
			for _, m := range modes {
				// Incrementally-maintained index (the live accelerator).
				incSeq := answers(t, q, m.seq())
				incPar := answers(t, q, m.par())
				// Full rebuild over the same snapshot document.
				index.Build(doc).Install()
				rebSeq := answers(t, q, m.seq())
				rebPar := answers(t, q, m.par())
				// Joined matcher (no accelerator at all).
				doc.SetAccel(nil)
				joined := answers(t, q, m.seq())
				snap.Index.Install() // restore the live index
				if incSeq != incPar {
					t.Fatalf("round %d %s %s: parallel diverged from sequential", round, pattern, m.name)
				}
				if incSeq != rebSeq || incPar != rebPar {
					t.Fatalf("round %d %s %s: incremental index diverged from full rebuild", round, pattern, m.name)
				}
				if incSeq != joined {
					t.Fatalf("round %d %s %s: indexed evaluation diverged from the joined matcher", round, pattern, m.name)
				}
			}
		}
	}
}

// TestEngineDeltaRace races one writer applying batches against parallel
// readers that pin a snapshot per "request" and assert parallel ==
// sequential on their pinned pair — the engine-side contract the server's
// per-request pinning relies on. Meaningful under -race: it proves the
// copy-on-write snapshots keep reader goroutines entirely off the
// writer's working set.
func TestEngineDeltaRace(t *testing.T) {
	f := newDeltaFixture(t, 13)
	eng := engine.New(engine.Options{Workers: 4})
	rng := rand.New(rand.NewSource(5))

	var readers sync.WaitGroup
	errc := make(chan error, 4)
	readersDone := make(chan struct{})

	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() { // readers: pinned "requests", each evaluated both ways
			defer readers.Done()
			q, err := core.PrepareQuery(f.pats[0], f.set)
			if err != nil {
				errc <- err
				return
			}
			// At least 25 requests, and more (bounded) until the writer has
			// landed an epoch: memo-hot requests can otherwise all finish
			// before the writer's first batch does.
			for r := 0; r < 25 || (r < 5000 && f.h.Snapshot().Epoch == 0); r++ {
				snap := f.h.Snapshot() // pin per request
				seq := answers(t, q, core.Evaluate(q, f.set, snap.Doc, f.tree))
				par := answers(t, q, eng.Evaluate(q, f.set, snap.Doc, f.tree))
				if seq != par {
					errc <- fmt.Errorf("parallel diverged from sequential on pinned snapshot epoch %d", snap.Epoch)
					return
				}
			}
		}()
	}
	go func() { readers.Wait(); close(readersDone) }()

	// Writer: churn epochs for as long as the readers are in flight, so
	// every reader request overlaps live mutations.
	for {
		select {
		case <-readersDone:
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if f.h.Snapshot().Epoch == 0 {
				t.Fatal("writer never advanced an epoch; the race exercised nothing")
			}
			return
		default:
			cur := f.h.Snapshot()
			_, _ = f.h.Apply(randomBatch(rng, cur.Doc))
		}
	}
}
