package engine_test

// Live-document differentials: the engine's answers, byte-for-byte on the
// wire, equal the oracle's (internal/oracle: Algorithm 3 over a fresh,
// unindexed copy of the snapshot) across document mutation. After every
// randomized edit batch, basic, compact, top-k, and aggregate answers over
// the incrementally-maintained index — its carried memo included — must
// equal the oracle's over the same snapshot (run with -race in CI). A
// separate stress test races writers against readers on pinned snapshots.

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
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/oracle"
	"xmatch/internal/xmltree"
)

// deltaFixture builds a small live dataset: mapping set, block tree,
// document behind a delta handle, and the patterns to ask. D1's target
// leaves outside Auftrag/Position have no relevant mapping among the ten,
// so the patterns are Position leaves: every answer binds matches.
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
	pats := []string{"Auftrag/Position/PositionsNummer", "Auftrag/Position/ArtikelNummer", "Auftrag/Position/Menge"}
	return &deltaFixture{set: set, tree: bt, h: delta.Open(d.OrderDocument(300, docSeed)), pats: pats}
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
func answers(q *core.Query, results []core.Result) string {
	return wire(core.ToWire(results), core.AnswersToWire(core.AggregateLeaf(q, results)))
}

func wire(results []core.WireResult, answers []core.WireAnswer) string {
	res, err := json.Marshal(results)
	if err != nil {
		panic(err)
	}
	ans, err := json.Marshal(answers)
	if err != nil {
		panic(err)
	}
	return string(res) + "|" + string(ans)
}

func TestEngineDeltaDifferential(t *testing.T) {
	f := newDeltaFixture(t, 11)
	o := oracle.New(t)
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
		sh := one(snap.Doc)
		for _, pattern := range f.pats {
			q, err := eng.Prepare(pattern, f.set)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []struct {
				name string
				k    int
				got  []core.Result
			}{
				{"basic", 0, eng.EvaluateBasicAcross(q, f.set, sh)},
				{"compact", 0, eng.EvaluateAcross(q, f.set, sh, f.tree)},
				{"topk", 3, eng.EvaluateTopKAcross(q, f.set, sh, f.tree, 3)},
			} {
				if answers(q, m.got) != wire(o.Wire(f.set, pattern, m.k, snap.Doc)) {
					t.Fatalf("round %d %s %s: the engine diverged from the oracle", round, pattern, m.name)
				}
			}
		}
	}
}

// TestEngineDeltaRace races one writer applying batches against parallel
// readers that pin a snapshot per "request" and assert the engine's answer
// is the oracle's on their pinned snapshot — the engine-side contract the server's
// per-request pinning relies on. Meaningful under -race: it proves the
// copy-on-write snapshots keep reader goroutines entirely off the
// writer's working set.
func TestEngineDeltaRace(t *testing.T) {
	f := newDeltaFixture(t, 13)
	o := oracle.New(t)
	eng := engine.New(engine.Options{Workers: 4})
	rng := rand.New(rand.NewSource(5))

	var readers sync.WaitGroup
	errc := make(chan error, 4)
	readersDone := make(chan struct{})

	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() { // readers: pinned "requests", each evaluated both ways
			defer readers.Done()
			q, err := eng.Prepare(f.pats[0], f.set)
			if err != nil {
				errc <- err
				return
			}
			// At least 25 requests, and more (bounded) until the writer has
			// landed an epoch: memo-hot requests can otherwise all finish
			// before the writer's first batch does.
			for r := 0; r < 25 || (r < 5000 && f.h.Snapshot().Epoch == 0); r++ {
				snap := f.h.Snapshot() // pin per request
				got := answers(q, eng.EvaluateAcross(q, f.set, one(snap.Doc), f.tree))
				if got != wire(o.Wire(f.set, f.pats[0], 0, snap.Doc)) {
					errc <- fmt.Errorf("the engine diverged from the oracle on pinned snapshot epoch %d", snap.Epoch)
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
