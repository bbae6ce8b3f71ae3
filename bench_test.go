// Benchmarks mirroring every table and figure of the paper's evaluation
// (Section VI), plus ablations of the design choices called out in
// DESIGN.md. cmd/experiments produces the full tables; these benchmarks
// track the cost of each experiment's kernel under `go test -bench`.
package xmatch_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/engine"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/server"
	"xmatch/internal/store"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// fixtures are shared across benchmarks and built once.
var (
	fixOnce   sync.Once
	fixD7     *dataset.Dataset
	fixSets   map[int]*mapping.Set // |M| -> set (D7)
	fixDoc    *xmltree.Document
	fixDocIdx *xmltree.Document // same generation, positional index attached
	fixTree   *core.BlockTree
)

func setup(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixD7 = dataset.MustLoad("D7")
		fixSets = map[int]*mapping.Set{}
		for _, m := range []int{30, 100, 200, 500} {
			set, err := mapgen.TopH(fixD7.Matching, m, mapgen.Partition)
			if err != nil {
				panic(err)
			}
			fixSets[m] = set
		}
		fixDoc = fixD7.OrderDocument(3473, 42)
		// A separate instance for the indexed benchmarks, so attaching the
		// index cannot change what the unindexed benchmarks measure.
		fixDocIdx = fixD7.OrderDocument(3473, 42)
		index.Attach(fixDocIdx)
		bt, err := core.Build(fixSets[100], core.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fixTree = bt
	})
}

// BenchmarkTable2ORatio measures the mapping-overlap statistic of Table II
// (average pairwise o-ratio over |M|=100 mappings of D7).
func BenchmarkTable2ORatio(b *testing.B) {
	setup(b)
	set := fixSets[100]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = set.AverageORatio()
	}
}

// BenchmarkFig9aCompression measures block-tree construction plus mapping
// compression at the default τ (Figure 9(a) kernel).
func BenchmarkFig9aCompression(b *testing.B) {
	setup(b)
	set := fixSets[100]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		_ = bt.Compress().CompressionRatio()
	}
}

// BenchmarkFig9bBlocksVsTau measures construction across the τ sweep of
// Figure 9(b).
func BenchmarkFig9bBlocksVsTau(b *testing.B) {
	setup(b)
	set := fixSets[100]
	for _, tau := range []float64{0.02, 0.2, 0.9} {
		b.Run(fmt.Sprintf("tau=%.2f", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(set, core.Options{Tau: tau}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9cStats measures the c-block size-distribution computation of
// Figure 9(c).
func BenchmarkFig9cStats(b *testing.B) {
	setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fixTree.Stats()
	}
}

// BenchmarkFig9dConstruct measures block-tree construction per dataset
// (Figure 9(d), |M|=100).
func BenchmarkFig9dConstruct(b *testing.B) {
	for _, id := range dataset.IDs() {
		d := dataset.MustLoad(id)
		set, err := mapgen.TopH(d.Matching, 100, mapgen.Partition)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(set, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9eMaxB measures construction under the MAX_B cap sweep of
// Figure 9(e).
func BenchmarkFig9eMaxB(b *testing.B) {
	setup(b)
	set := fixSets[100]
	for _, maxB := range []int{20, 100, 300} {
		b.Run(fmt.Sprintf("maxB=%d", maxB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(set, core.Options{Tau: 0.2, MaxB: maxB}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9fQuery measures the Table III queries under both PTQ
// algorithms at |M|=100 (Figure 9(f)).
func BenchmarkFig9fQuery(b *testing.B) {
	setup(b)
	set := fixSets[100]
	for _, query := range dataset.Queries() {
		q, err := core.PrepareQuery(query.Text, set)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(query.ID+"/basic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.EvaluateBasic(q, set, fixDoc)
			}
		})
		b.Run(query.ID+"/blocktree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.Evaluate(q, set, fixDoc, fixTree)
			}
		})
	}
}

// BenchmarkFig10aQuery500 measures a representative query at |M|=500
// (Figure 10(a)).
func BenchmarkFig10aQuery500(b *testing.B) {
	setup(b)
	set := fixSets[500]
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("basic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.EvaluateBasic(q, set, fixDoc)
		}
	})
	b.Run("blocktree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.Evaluate(q, set, fixDoc, bt)
		}
	})
}

// BenchmarkFig10bTau measures Q10 under block trees built at different τ
// (Figure 10(b)).
func BenchmarkFig10bTau(b *testing.B) {
	setup(b)
	set := fixSets[100]
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	for _, tau := range []float64{0.02, 0.22, 0.65} {
		bt, err := core.Build(set, core.Options{Tau: tau})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tau=%.2f", tau), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.Evaluate(q, set, fixDoc, bt)
			}
		})
	}
}

// BenchmarkFig10cM measures Q10 across mapping-set sizes (Figure 10(c)).
func BenchmarkFig10cM(b *testing.B) {
	setup(b)
	for _, m := range []int{30, 100, 200} {
		set := fixSets[m]
		bt, err := core.Build(set, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("M=%d/basic", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.EvaluateBasic(q, set, fixDoc)
			}
		})
		b.Run(fmt.Sprintf("M=%d/blocktree", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.Evaluate(q, set, fixDoc, bt)
			}
		})
	}
}

// BenchmarkFig10dTopK measures top-k PTQ across k (Figure 10(d)).
func BenchmarkFig10dTopK(b *testing.B) {
	setup(b)
	set := fixSets[100]
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = core.EvaluateTopK(q, set, fixDoc, fixTree, k)
			}
		})
	}
}

// BenchmarkFig10eGenerate compares top-h mapping generation, murty vs
// partition, on a small and a large dataset (Figure 10(e); h reduced to 10
// to keep the murty baseline affordable under -bench).
func BenchmarkFig10eGenerate(b *testing.B) {
	for _, id := range []string{"D1", "D7"} {
		d := dataset.MustLoad(id)
		for _, method := range []mapgen.Method{mapgen.Murty, mapgen.Partition} {
			b.Run(fmt.Sprintf("%s/%s", id, method), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mapgen.TopH(d.Matching, 10, method); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10fH sweeps h on D1 for both generators (Figure 10(f)).
func BenchmarkFig10fH(b *testing.B) {
	d := dataset.MustLoad("D1")
	for _, h := range []int{100, 500, 1000} {
		for _, method := range []mapgen.Method{mapgen.Murty, mapgen.Partition} {
			b.Run(fmt.Sprintf("h=%d/%s", h, method), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mapgen.TopH(d.Matching, h, method); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationIDSetVsMap compares the bitset mapping-ID sets used in
// blocks against a map-based alternative for the intersection workload that
// dominates Algorithm 2 (DESIGN.md ablation): both build the intersection,
// as acc.Intersect(cb.M) does, and take its size.
func BenchmarkAblationIDSetVsMap(b *testing.B) {
	const n = 500
	a1 := mapping.NewIDSet(n)
	a2 := mapping.NewIDSet(n)
	m1 := map[int]bool{}
	m2 := map[int]bool{}
	for i := 0; i < n; i += 2 {
		a1.Add(i)
		m1[i] = true
	}
	for i := 0; i < n; i += 3 {
		a2.Add(i)
		m2[i] = true
	}
	b.Run("bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a1.Intersect(a2).Len()
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inter := make(map[int]bool, len(m1))
			for k := range m1 {
				if m2[k] {
					inter[k] = true
				}
			}
			_ = len(inter)
		}
	})
}

// BenchmarkAblationFilterThenSort isolates the top-k PTQ optimization of
// Section IV-C: filtering and truncating the mapping set before evaluation
// versus evaluating everything and truncating afterwards.
func BenchmarkAblationFilterThenSort(b *testing.B) {
	setup(b)
	set := fixSets[100]
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("topk-prefilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.EvaluateTopK(q, set, fixDoc, fixTree, 10)
		}
	})
	b.Run("evaluate-then-truncate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := core.Evaluate(q, set, fixDoc, fixTree)
			if len(res) > 10 {
				res = res[:10]
			}
			_ = res
		}
	})
}

// BenchmarkAblationLemma2 measures block-tree construction with and without
// the Lemma 2 child-pruning short-circuit (identical output, different
// work; see core.Options).
func BenchmarkAblationLemma2(b *testing.B) {
	setup(b)
	set := fixSets[100]
	b.Run("with-pruning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(set, core.Options{Tau: 0.2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-pruning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(set, core.Options{Tau: 0.2, NoLemma2Pruning: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIntersectionPruning measures Algorithm 2's incremental
// intersection pruning against full combination enumeration.
func BenchmarkAblationIntersectionPruning(b *testing.B) {
	setup(b)
	set := fixSets[100]
	b.Run("with-pruning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(set, core.Options{Tau: 0.5}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-pruning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(set, core.Options{Tau: 0.5, NoIntersectionPruning: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// PTQ benchmarks on the largest generated mapping set (|M|=500), each
// evaluating one document on the calling goroutine. The engine runs a
// single document through the same plan as core, so no engine twin is
// timed beside core's evaluators.

// BenchmarkPTQBasic measures basic mode as the engine serves it: the plan
// over no c-blocks, one matcher call per distinct rewrite (core.EvaluateBasic
// is Algorithm 3 itself, one call per mapping: the oracle).
func BenchmarkPTQBasic(b *testing.B) {
	benchmarkPTQBasic(b, false)
}

func benchmarkPTQBasic(b *testing.B, indexed bool) {
	setup(b)
	doc, set := fixDoc, fixSets[500]
	if indexed {
		doc = fixDocIdx
	}
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = eng.EvaluateBasicAcross(q, set, engine.Shards{Docs: []*xmltree.Document{doc}})
		}
	})
}

// BenchmarkPTQCompact measures core.Evaluate, Algorithm 4 (block-tree
// evaluation).
func BenchmarkPTQCompact(b *testing.B) {
	setup(b)
	set := fixSets[500]
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.Evaluate(q, set, fixDoc, bt)
		}
	})
}

// BenchmarkPTQTopK measures core.EvaluateTopK at k = |M|/10.
func BenchmarkPTQTopK(b *testing.B) {
	setup(b)
	set := fixSets[500]
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	const k = 50
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.EvaluateTopK(q, set, fixDoc, bt, k)
		}
	})
}

// BenchmarkPTQ*Indexed mirror the PTQ benchmarks with the positional index
// attached to the document: the holistic matcher and the result memo.

func BenchmarkPTQBasicIndexed(b *testing.B) {
	benchmarkPTQBasic(b, true)
}

func BenchmarkPTQCompactIndexed(b *testing.B) {
	setup(b)
	set := fixSets[500]
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.Evaluate(q, set, fixDocIdx, bt)
		}
	})
	// cold empties the result memo before every op: the plan's units are
	// all misses, every matcher call and join runs — the first request for
	// a pattern, or the first after a compaction.
	b.Run("cold", func(b *testing.B) {
		ix := index.For(fixDocIdx)
		for i := 0; i < b.N; i++ {
			ix.PurgeMemo()
			_ = core.Evaluate(q, set, fixDocIdx, bt)
		}
	})
}

func BenchmarkPTQTopKIndexed(b *testing.B) {
	setup(b)
	set := fixSets[500]
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	const k = 50
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = core.EvaluateTopK(q, set, fixDocIdx, bt, k)
		}
	})
}

// BenchmarkAnswerBuild measures what a warmed Table III request spends on
// its answer once evaluation is done — AggregateLeaf into a reused
// AnswerScratch, then AppendResultsJSON and AppendAnswersJSON into one
// reused buffer, the aggregate and encode stages of /v1/query — over the
// served collection (D7, |M| = 100, the indexed 3,473-node document), top-5
// and compact.
func BenchmarkAnswerBuild(b *testing.B) {
	setup(b)
	set := fixSets[100]
	heads := core.NewResultHeads(set)
	type answer struct {
		q       *core.Query
		results []core.Result
	}
	for _, c := range []struct {
		name string
		k    int
	}{{"topk", 5}, {"compact", 0}} {
		b.Run(c.name, func(b *testing.B) {
			var work []answer
			for _, spec := range dataset.Queries() {
				q, err := core.PrepareQuery(spec.Text, set)
				if err != nil {
					b.Fatal(err)
				}
				results := core.Evaluate(q, set, fixDocIdx, fixTree)
				if c.k > 0 {
					results = core.EvaluateTopK(q, set, fixDocIdx, fixTree, c.k)
				}
				work = append(work, answer{q, results})
			}
			var buf []byte
			var agg core.AnswerScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := work[i%len(work)]
				answers := agg.Leaf(w.q, w.results)
				buf = core.AppendResultsJSON(buf[:0], w.results, heads)
				buf = core.AppendAnswersJSON(buf, answers)
				agg.Clear()
			}
		})
	}
}

// BenchmarkPTQBatch measures the batched multi-query API over the full
// Table III workload: cold (fresh engine, every pattern parsed) vs warm
// (prepared-query cache hits).
func BenchmarkPTQBatch(b *testing.B) {
	setup(b)
	set := fixSets[100]
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]engine.Request, len(dataset.Queries()))
	for i, spec := range dataset.Queries() {
		reqs[i] = engine.Request{Pattern: spec.Text}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.New(engine.Options{Workers: runtime.GOMAXPROCS(0)})
			_ = eng.EvaluateBatchAcross(set, engine.Shards{Docs: []*xmltree.Document{fixDoc}}, bt, reqs)
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := engine.New(engine.Options{Workers: runtime.GOMAXPROCS(0)})
		_ = eng.EvaluateBatchAcross(set, engine.Shards{Docs: []*xmltree.Document{fixDoc}}, bt, reqs) // populate the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = eng.EvaluateBatchAcross(set, engine.Shards{Docs: []*xmltree.Document{fixDoc}}, bt, reqs)
		}
	})
}

// BenchmarkPlanCompile measures the cold compile of the evaluation plans
// of the whole Table III workload at |M|=100 (one op = ten plans) — the
// per-query cost core.Plan moved out of the request and into the first
// evaluation. A prepared query keeps the plan of the block tree it met
// last, so alternating two equal trees recompiles on every call.
func BenchmarkPlanCompile(b *testing.B) {
	setup(b)
	set := fixSets[100]
	other, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	trees := [2]*core.BlockTree{fixTree, other}
	var queries []*core.Query
	for _, spec := range dataset.Queries() {
		q, err := core.PrepareQuery(spec.Text, set)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if q.Plan(set, trees[i%2]) == nil {
				b.Fatal("no plan")
			}
		}
	}
}

// BenchmarkPTQCollection* sweep shard counts over the ~1M-node generated
// Order corpus: the same total corpus partitioned into 1, 2, 4, and 8
// member documents, evaluated through the engine's scatter-gather path
// (the exact evaluators behind the server's /v1/query). The gathered
// wire output stays byte-identical across the sweep (the cross-shard
// differential suite proves it), so the sub-benchmarks read directly as
// query throughput versus shard count. The plain variant runs the basic
// evaluator over unindexed members — every op pays the full per-mapping
// matcher, so the sweep tracks how the per-shard sub-engines convert
// shard count into wall-clock parallelism (on a single-core host it
// reads as the scatter's cost-neutrality instead: partitioning the
// heavy evaluation must not lose throughput). The Indexed variant
// attaches the positional index to every member and measures the
// steady-state serving path (the compiled plan + per-shard result memo +
// one gather per result class), where per-op work is small and the sweep
// prices the per-shard overhead: one matcher call per leaf unit per shard.

const collectionBenchNodes = 1_000_000

var collectionBenchShardCounts = []int{1, 2, 4, 8}

func BenchmarkPTQCollection(b *testing.B) {
	setup(b)
	set := fixSets[100]
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range collectionBenchShardCounts {
		sh := engine.Shards{Docs: fixD7.OrderCorpus(shards, collectionBenchNodes, 42)}
		eng := engine.New(engine.Options{Workers: runtime.GOMAXPROCS(0)})
		runtime.GC() // clear corpus-generation garbage out of the timed region
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = eng.EvaluateBasicAcross(q, set, sh)
			}
		})
	}
}

func BenchmarkPTQCollectionIndexed(b *testing.B) {
	setup(b)
	set := fixSets[100]
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	q, err := core.PrepareQuery(dataset.Queries()[9].Text, set)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range collectionBenchShardCounts {
		docs := fixD7.OrderCorpus(shards, collectionBenchNodes, 42)
		for _, doc := range docs {
			index.Attach(doc)
		}
		sh := engine.Shards{Docs: docs}
		eng := engine.New(engine.Options{Workers: runtime.GOMAXPROCS(0)})
		_ = eng.EvaluateAcross(q, set, sh, bt) // warm the per-shard memos
		runtime.GC()
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = eng.EvaluateAcross(q, set, sh, bt)
			}
		})
	}
}

// BenchmarkPostingsDecode measures full postings materialization — every
// path list of the Order document decoded into fresh slices — the raw cost
// the lazily-decoding matcher avoids paying per evaluation.
func BenchmarkPostingsDecode(b *testing.B) {
	setup(b)
	ix := index.Build(fixD7.OrderDocument(3473, 42))
	paths := ix.Paths()
	b.Run("compressed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range paths {
				_ = ix.Postings(p)
			}
		}
	})
}

// BenchmarkAblationTwigEngine measures the direct twig evaluator on a
// selective query.
func BenchmarkAblationTwigEngine(b *testing.B) {
	setup(b)
	set := fixSets[100]
	q, err := core.PrepareQuery(dataset.Queries()[7].Text, set) // Q8, deep predicates
	if err != nil {
		b.Fatal(err)
	}
	emb := q.Embeddings[0]
	m := set.Mappings[0]
	binding := twig.PathBinding{}
	ok := true
	var walk func(n *twig.Node)
	walk = func(n *twig.Node) {
		s, found := m.SourceFor(emb[n.Index])
		if !found {
			ok = false
			return
		}
		binding[n] = set.Source.ByID(s).Path
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(q.Pattern.Root)
	if !ok {
		b.Skip("best mapping does not cover Q8")
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = twig.MatchByPaths(fixDoc, q.Pattern.Root, binding)
		}
	})
}

// deepTwigFixture builds the deep-twig matcher workload: a document whose
// shape punishes per-subtree materialization. Every branch carries a full
// B/C/D chain (a deep sub-match the joined evaluator materializes
// unconditionally), but only one branch in forty also carries the E child
// required to complete a match — exactly the dangling-intermediate pattern
// holistic twig joins were invented to prune. The value-predicate variant
// additionally binds D to a rare text, turning the joined evaluator's
// candidate scan into a value-index lookup.
func deepTwigFixture(withValue bool) (*xmltree.Document, *twig.Node, twig.PathBinding) {
	root := xmltree.NewRoot("R")
	for i := 0; i < 400; i++ {
		a := root.AddChild("A")
		c := a.AddChild("B").AddChild("C")
		c.AddChild("D").AddText(fmt.Sprintf("v%d", i%100))
		if i%40 == 0 {
			a.AddChild("E").AddText("e")
		}
	}
	doc := xmltree.New(root)
	pat := twig.MustParse("A[./B/C/D][./E]")
	if withValue {
		pat = twig.MustParse(`A[./B/C/D="v0"][./E]`)
	}
	n := pat.Nodes() // A, B, C, D, E
	binding := twig.PathBinding{
		n[0]: "R.A", n[1]: "R.A.B", n[2]: "R.A.B.C", n[3]: "R.A.B.C.D", n[4]: "R.A.E",
	}
	return doc, pat.Root, binding
}

// BenchmarkTwigMatchJoined and BenchmarkTwigMatchHolistic pair the joined
// evaluator (per-subtree materialization + interval joins) against the
// holistic indexed matcher on the deep-twig workload; the trajectory file
// BENCH_3.json records the gap. The holistic matcher memoizes repeated
// (pattern, binding) evaluations, so the holistic benchmark cycles
// through distinct clones of the pattern — every iteration is a full
// evaluation, measuring the matcher rather than the memo — and a separate
// /memo sub-benchmark tracks the repeat-evaluation hit path the PTQ
// workload actually rides.
func BenchmarkTwigMatchJoined(b *testing.B) {
	for _, withValue := range []bool{false, true} {
		name := map[bool]string{false: "structural", true: "value"}[withValue]
		doc, qn, binding := deepTwigFixture(withValue)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = twig.MatchByPaths(doc, qn, binding)
			}
		})
	}
}

func BenchmarkTwigMatchHolistic(b *testing.B) {
	for _, withValue := range []bool{false, true} {
		name := map[bool]string{false: "structural", true: "value"}[withValue]
		doc, _, _ := deepTwigFixture(withValue)
		ix := index.Build(doc)
		// Distinct pattern clones with identical text: distinct pattern
		// identity defeats the result memo (identical keys share a memo
		// shard, and the clone count is twice the entries a shard holds,
		// so cycling them keeps resetting it), while identical paths keep
		// the workload constant.
		const clones = 2 * 4096
		roots := make([]*twig.Node, clones)
		bindings := make([]twig.PathBinding, clones)
		for i := range roots {
			_, qn, binding := deepTwigFixtureBinding(withValue, doc)
			roots[i], bindings[i] = qn, binding
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ix.MatchTwig(doc, roots[i%clones], bindings[i%clones])
			}
		})
		b.Run(name+"-memo", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = ix.MatchTwig(doc, roots[0], bindings[0])
			}
		})
	}
}

// deepTwigFixtureBinding parses a fresh pattern instance and binds it to
// the given document — the per-clone unit of the holistic benchmark.
func deepTwigFixtureBinding(withValue bool, doc *xmltree.Document) (*xmltree.Document, *twig.Node, twig.PathBinding) {
	pat := twig.MustParse("A[./B/C/D][./E]")
	if withValue {
		pat = twig.MustParse(`A[./B/C/D="v0"][./E]`)
	}
	n := pat.Nodes()
	binding := twig.PathBinding{
		n[0]: "R.A", n[1]: "R.A.B", n[2]: "R.A.B.C", n[3]: "R.A.B.C.D", n[4]: "R.A.E",
	}
	return doc, pat.Root, binding
}

// BenchmarkDeltaApply vs BenchmarkIndexRebuild: the cost of absorbing a
// small edit batch through the live mutation subsystem (copy-on-write
// revision + index splice) against the cost the pre-delta architecture
// paid — a full positional-index rebuild. The CI bench gate watches the
// pair: incremental maintenance must stay well ahead of the rebuild (the
// PR-4 acceptance floor is 5x). The two sub-benchmarks differ in document
// size by 14x and must not differ in cost by anything like that — a write
// costs its edit, not its document.
func BenchmarkDeltaApply(b *testing.B) {
	setup(b)
	// order-3473: two settexts on Quantity leaves of the large Order
	// document, addressed by start number — the stable node identity the
	// wire exposes (WireBinding.Start) and the form a mutation-heavy
	// client uses. SetText clones keep their numbers, so the starts stay
	// valid across iterations.
	b.Run("order-3473", func(b *testing.B) {
		doc := fixD7.OrderDocument(3473, 43)
		h := delta.Open(doc)
		qty := doc.Paths()[0]
		for _, p := range doc.Paths() {
			if strings.HasSuffix(p, ".Quantity") {
				qty = p
				break
			}
		}
		var starts []int
		for _, n := range doc.NodesByPath(qty) {
			starts = append(starts, n.Start)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, err := h.Apply([]delta.Edit{
				{Op: delta.OpSetText, Start: starts[i%len(starts)], Text: fmt.Sprintf("%d", i%50)},
				{Op: delta.OpSetText, Start: starts[(i+7)%len(starts)], Text: fmt.Sprintf("%d", (i+9)%50)},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	// shard-50000: bench/'s edit shape on one corpus_rw-sized shard.
	b.Run("shard-50000", func(b *testing.B) {
		doc := fixD7.OrderDocument(50000, 43)
		h := delta.Open(doc)
		edits := leafSetTexts(doc, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edits[i%len(edits)]
			e.Text = fmt.Sprintf("s%d", i)
			if _, err := h.Apply([]delta.Edit{e}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// leafSetTexts generates n one-edit settext targets in the shape bench/
// sends: a text-leaf path chosen uniformly, then one of its nodes by
// ordinal — path+ordinal addressing, the wire's stable form. Choosing the
// path first keeps the rare header leaves in play beside the far more
// numerous line-item leaves.
func leafSetTexts(doc *xmltree.Document, n int) []delta.Edit {
	counts := map[string]int{}
	for _, nd := range doc.Nodes() {
		if len(nd.Children) == 0 && nd.Text != "" {
			counts[nd.Path]++
		}
	}
	var paths []string
	for _, p := range doc.Paths() {
		if counts[p] > 0 {
			paths = append(paths, p)
		}
	}
	rng := rand.New(rand.NewSource(18))
	edits := make([]delta.Edit, n)
	for i := range edits {
		p := paths[rng.Intn(len(paths))]
		edits[i] = delta.Edit{Op: delta.OpSetText, Path: p, Ordinal: rng.Intn(counts[p])}
	}
	return edits
}

func BenchmarkIndexRebuild(b *testing.B) {
	setup(b)
	doc := fixD7.OrderDocument(3473, 43)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = index.Build(doc)
	}
}

// BenchmarkReplicaReplay is the follower's per-record steady-state cost:
// decode one shipped edit-log response (envelope + frame, the wire format
// of /v1/replicate/stream) and apply its record through the same delta
// path the primary took. This is the floor on replication throughput — a
// follower that can't replay faster than the primary mutates falls behind
// without bound.
func BenchmarkReplicaReplay(b *testing.B) {
	setup(b)
	doc := fixD7.OrderDocument(3473, 43)
	var starts []int
	for _, p := range doc.Paths() {
		if strings.HasSuffix(p, ".Quantity") {
			for _, n := range doc.NodesByPath(p) {
				starts = append(starts, n.Start)
			}
			break
		}
	}
	// Pre-encode a cycle of single-record stream responses, exactly as the
	// primary frames them: an edit log based one epoch below the record.
	const cycle = 128
	blobs := make([][]byte, cycle)
	for i := 0; i < cycle; i++ {
		var buf bytes.Buffer
		if err := store.CreateEditLogAt(&buf, uint64(i)); err != nil {
			b.Fatal(err)
		}
		frame, err := store.EncodeEditRecord(store.EditRecord{
			Epoch: uint64(i) + 1,
			Edits: []delta.Edit{{Op: delta.OpSetText, Start: starts[i%len(starts)], Text: fmt.Sprintf("%d", i%50)}},
		})
		if err != nil {
			b.Fatal(err)
		}
		buf.Write(frame)
		blobs[i] = buf.Bytes()
	}
	replica := delta.Open(fixD7.OrderDocument(3473, 43))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg, err := store.LoadEditLog(bytes.NewReader(blobs[i%cycle]))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := replica.Apply(lg.Records[0].Edits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint prices both halves of compaction: save is what the
// primary pays to truncate a shard's log, under the shard's write lock
// (and bounds how often checkpointing is worth triggering); load is what a
// lagging follower pays to bootstrap — reassembling the document with its
// exact numbering and building its index. save/load run on the large
// Order document; shard-save/shard-load on one member of the 200,000-node
// four-shard corpus, the size a serving shard has.
func BenchmarkCheckpoint(b *testing.B) {
	setup(b)
	benchCheckpoint(b, "", fixD7.OrderDocument(3473, 43))
	benchCheckpoint(b, "shard-", fixD7.OrderCorpus(4, 200000, 43)[1])
}

func benchCheckpoint(b *testing.B, prefix string, doc *xmltree.Document) {
	snap := delta.Open(doc).Snapshot()
	var ref bytes.Buffer
	if err := store.SaveCheckpoint(&ref, snap.Doc, snap.Epoch); err != nil {
		b.Fatal(err)
	}
	b.Run(prefix+"save", func(b *testing.B) {
		var buf bytes.Buffer
		b.SetBytes(int64(ref.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := store.SaveCheckpoint(&buf, snap.Doc, snap.Epoch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(prefix+"load", func(b *testing.B) {
		blob := ref.Bytes()
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.LoadCheckpoint(bytes.NewReader(blob)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDocumentHeap records what a served corpus's documents hold: the
// live heap of the four members of the 200,000-node Order corpus
// corpus_point serves, per element node (B/node; recorded, not gated).
// Each iteration builds the corpus afresh.
func BenchmarkDocumentHeap(b *testing.B) {
	setup(b)
	b.Run("order-200k", func(b *testing.B) {
		var ms runtime.MemStats
		live := func() uint64 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		var perNode float64
		for i := 0; i < b.N; i++ {
			before := live()
			members := fixD7.OrderCorpus(4, 200000, 43)
			nodes := 0
			for _, m := range members {
				nodes += m.Len()
			}
			perNode = float64(live()-before) / float64(nodes)
			runtime.KeepAlive(members)
		}
		b.ReportMetric(perNode, "B/node")
	})
}

// BenchmarkFingerprint prices the per-request workload-fingerprint hash —
// computed on every /v1/query after evaluation, so it must stay deep in
// the noise floor of even the cheapest indexed query. The cycle covers
// the Table III queries across the mode/k matrix, exercising the
// canonical-pattern + mode + k framing.
func BenchmarkFingerprint(b *testing.B) {
	queries := dataset.Queries()
	modes := []struct {
		mode string
		k    int
	}{{"basic", 0}, {"compact", 0}, {"topk", 5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		m := modes[i%len(modes)]
		if engine.FingerprintPattern("orders", q.Text, m.mode, m.k) == 0 {
			b.Fatal("zero fingerprint")
		}
	}
}

// BenchmarkWorkloadCapture prices one capture-log append — the write a
// sampled query pays inside the capture mutex. The record mirrors what
// handleQuery logs for a Table III topk query; SetBytes reports the
// framed record size so the trajectory tracks bytes-per-request too.
func BenchmarkWorkloadCapture(b *testing.B) {
	var buf bytes.Buffer
	if err := store.CreateWorkload(&buf, 1); err != nil {
		b.Fatal(err)
	}
	rec := store.WorkloadRecord{
		Fingerprint: 0x9e3779b97f4a7c15,
		Dataset:     "orders",
		Pattern:     "PO/Line/Quantity",
		Mode:        "topk",
		K:           5,
		Epoch:       42,
		LatencyUs:   1375,
		Digest:      0xcafef00ddeadbeef,
	}
	n, err := store.AppendWorkloadRecord(&buf, rec)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf.Len() > 1<<20 {
			buf.Reset()
		}
		if _, err := store.AppendWorkloadRecord(&buf, rec); err != nil {
			b.Fatal(err)
		}
	}
}

// discardWriter is an http.ResponseWriter that keeps the status and drops
// the body, so a handler benchmark measures the handler and not a recorder.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// handlerLoop sends requests through a handler the way bench/harness.go
// does: one request template per path and one resettable body, so an
// iteration pays for the handler and a shallow request copy, not for
// httptest.NewRequest's parse of a request line through a fresh 4 KB
// bufio.Reader.
type handlerLoop struct {
	h    http.Handler
	tmpl *http.Request
	body loopBody
	w    discardWriter
}

// loopBody is a reusable request body.
type loopBody struct{ bytes.Reader }

func (*loopBody) Close() error { return nil }

func newHandlerLoop(b *testing.B, h http.Handler, path string) *handlerLoop {
	tmpl, err := http.NewRequest(http.MethodPost, path, nil)
	if err != nil {
		b.Fatal(err)
	}
	return &handlerLoop{h: h, tmpl: tmpl, w: discardWriter{header: http.Header{}}}
}

// serve sends one body and fails the benchmark unless it is answered 200.
func (l *handlerLoop) serve(b *testing.B, body []byte) {
	if code := l.send(body); code != http.StatusOK {
		b.Fatalf("status %d", code)
	}
}

// send sends one body and returns the status.
func (l *handlerLoop) send(body []byte) int {
	l.w.code = 0
	l.body.Reset(body)
	r := *l.tmpl // the handler derives its own copies; the template stays clean
	r.Body = &l.body
	r.ContentLength = int64(len(body))
	l.h.ServeHTTP(&l.w, &r)
	return l.w.code
}

// BenchmarkServeQuery measures one /v1/query through the real handler —
// decode, admission, prepare (cached), evaluate, aggregate, render, account,
// write — cycling over the Table III twigs on the 3,473-node document with
// |M|=100: compact (bodies of hundreds of KB, where rendering dominates)
// and top-k with k=5 (small bodies, where the fixed per-request cost does).
// compact-cpu1 is compact on a single P, where a sync.Pool always hands
// back what the last request put: the difference between the two in B/op
// is what the pooled response buffer costs when the caller migrates.
func BenchmarkServeQuery(b *testing.B) {
	man := &store.Catalog{Entries: []store.CatalogEntry{
		{Name: "D7", Dataset: "D7", Mappings: 100, DocNodes: 3473, DocSeed: 42, Tau: 0.2},
	}}
	srv, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalog(man, ".", engine.Options{CacheCapacity: engine.DefaultCacheCapacity})
	}, server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, mode string
		k, procs   int
	}{{"compact", "compact", 0, 0}, {"compact-cpu1", "compact", 0, 1}, {"topk", "topk", 5, 0}} {
		b.Run(c.name, func(b *testing.B) {
			if c.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.procs))
			}
			var bodies [][]byte
			for _, q := range dataset.Queries() {
				body, err := json.Marshal(server.QueryRequest{Dataset: "D7", Pattern: q.Text, Mode: c.mode, K: c.k})
				if err != nil {
					b.Fatal(err)
				}
				bodies = append(bodies, body)
			}
			loop := newHandlerLoop(b, srv, "/v1/query")
			for _, body := range bodies {
				loop.serve(b, body) // fill the prepared-query cache and the matcher memo
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loop.serve(b, bodies[i%len(bodies)])
			}
		})
	}
}

// BenchmarkCatalogBuild measures a cold catalog build, what bench's setup_s
// times: the dataset, Algorithm 5's top-h at |M| = 100, the block tree, the
// generated members and their indexes. It runs bench's two manifests: D7
// over 3,473 nodes in one shard (t3) and over 200,000 nodes in four
// (corpus).
func BenchmarkCatalogBuild(b *testing.B) {
	for _, c := range []struct {
		name          string
		nodes, shards int
	}{{"t3", 3473, 1}, {"corpus", 200000, 4}} {
		b.Run(c.name, func(b *testing.B) {
			man := &store.Catalog{Entries: []store.CatalogEntry{
				{Name: "D7", Dataset: "D7", Mappings: 100, DocNodes: c.nodes, DocSeed: 42, Shards: c.shards, Tau: 0.2},
			}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := server.BuildCatalog(man, ".", engine.Options{CacheCapacity: engine.DefaultCacheCapacity}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeMutate measures one /v1/admin/mutate through the real
// handler — decode, validate, resolve, copy-on-write commit, index splice,
// durable edit-log append (fsync off: the device's time is not the
// program's), publish, encode — on bench/'s corpus_rw collection: 200,000
// nodes in 4 shards, one settext per request, round-robin over the shards.
// The request body is marshalled inside the loop: every write carries a
// new text.
func BenchmarkServeMutate(b *testing.B) {
	const shards = 4
	man := &store.Catalog{Entries: []store.CatalogEntry{{
		Name: "D7", Dataset: "D7", Mappings: 100, DocNodes: 200000, DocSeed: 42, Shards: shards, Tau: 0.2,
		EditLogPath: "D7.editlog",
	}}}
	dir := b.TempDir()
	srv, err := server.New(func() (*server.Catalog, error) {
		return server.BuildCatalogOpts(man, dir, engine.Options{CacheCapacity: engine.DefaultCacheCapacity}, server.CatalogOptions{NoFsync: true})
	}, server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	var edits [shards][]delta.Edit
	for s, snap := range srv.Catalog().Get("D7").Snapshots() {
		edits[s] = leafSetTexts(snap.Doc, 1024)
	}
	loop := newHandlerLoop(b, srv, "/v1/admin/mutate")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % shards
		e := edits[s][i/shards%len(edits[s])]
		e.Text = fmt.Sprintf("s%d", i)
		body, err := json.Marshal(server.MutateRequest{Dataset: "D7", Shard: s, Edits: []delta.Edit{e}})
		if err != nil {
			b.Fatal(err)
		}
		loop.serve(b, body)
	}
}

// BenchmarkSyncedMutate measures the write path xmatchd runs by default:
// one /v1/admin/mutate with fsync on, through the real handler, on one
// 3,473-node D7 shard, one settext per request. writers=8 sends from
// eight goroutines at once, which queue on the shard's write lock, one
// fsync each. It is recorded, not gated: the fsync is the disk's time.
func BenchmarkSyncedMutate(b *testing.B) {
	man := &store.Catalog{Entries: []store.CatalogEntry{{
		Name: "D7", Dataset: "D7", Mappings: 100, DocNodes: 3473, DocSeed: 42, Tau: 0.2,
		EditLogPath: "D7.editlog",
	}}}
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			dir := b.TempDir()
			srv, err := server.New(func() (*server.Catalog, error) {
				return server.BuildCatalog(man, dir, engine.Options{CacheCapacity: engine.DefaultCacheCapacity})
			}, server.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			edits := leafSetTexts(srv.Catalog().Get("D7").Snapshots()[0].Doc, 1024)
			loops := make([]*handlerLoop, writers)
			for w := range loops {
				loops[w] = newHandlerLoop(b, srv, "/v1/admin/mutate")
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for _, loop := range loops {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
						e := edits[i%len(edits)]
						e.Text = fmt.Sprintf("s%d", i)
						body, err := json.Marshal(server.MutateRequest{Dataset: "D7", Edits: []delta.Edit{e}})
						if err != nil {
							b.Error(err)
							return
						}
						if code := loop.send(body); code != http.StatusOK {
							b.Errorf("status %d", code)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
