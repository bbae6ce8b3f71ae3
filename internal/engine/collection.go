package engine

import (
	"time"

	"xmatch/internal/core"
	"xmatch/internal/mapping"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// Shards is an ordered list of member documents evaluated as one logical
// corpus by the Across evaluators, plus an optional per-shard timing
// observer. The members must carry disjoint ascending interval ranges
// (xmltree.NewAt / dataset.OrderCorpus), which is what makes the gathered
// output byte-identical to evaluating their concatenation
// (xmltree.Corpus) as a single document: per (embedding, mapping), each
// member's matches are key-ordered and the members' key ranges are
// disjoint and ascending, so core.ResultMerger.AddStreams interleaves
// them into exactly the concatenated corpus's match order.
type Shards struct {
	// Docs are the member documents in collection order. Each may carry
	// its own attached index; an evaluation uses whatever accelerator the
	// snapshot it was handed carries, per member.
	Docs []*xmltree.Document
	// Observe, when non-nil, is called once per per-shard evaluation unit
	// — one (embedding, shard) scatter for single queries, one (request,
	// embedding, shard) for batches — with that unit's wall time. It must
	// be safe for concurrent use; shards evaluate in parallel.
	Observe func(shard int, took time.Duration)
}

func (sh Shards) observe(shard int, took time.Duration) {
	if sh.Observe != nil {
		sh.Observe(shard, took)
	}
}

// EvaluateBasicAcross answers the basic PTQ (Algorithm 3) over a sharded
// collection. Algorithm 3 is the plan over a tree with no c-blocks
// (core.Query.Plan with a nil tree): each relevant mapping's whole-query
// rewrite is one leaf unit, mappings with the same rewrite share it, and
// the shard outputs are gathered once per rewrite. Results are identical
// to core.EvaluateBasic over the concatenated corpus.
func (e *Engine) EvaluateBasicAcross(q *core.Query, set *mapping.Set, sh Shards) []core.Result {
	return e.runPlan(q, set, sh, nil, 0)
}

// EvaluateAcross answers the block-tree PTQ (Algorithm 4) over a sharded
// collection by running the query's compiled plan (core.Plan) on every
// member: per embedding, each shard matches the plan's leaf units and
// joins them, the shards side by side on the engine's pool, and the shard
// outputs are gathered once per result class, not per mapping. What a
// unit computes depends on the query, the mapping set and the block tree
// only, so the output is the same for every worker and shard count by
// construction.
func (e *Engine) EvaluateAcross(q *core.Query, set *mapping.Set, sh Shards, bt *core.BlockTree) []core.Result {
	return e.runPlan(q, set, sh, bt, 0)
}

// EvaluateTopKAcross answers the top-k PTQ over a sharded collection. The
// mapping selection is compiled into the plan (it depends only on the
// query and the set, never on a document), so every shard skips the same
// units. k <= 0 selects nothing, whatever the shard count.
func (e *Engine) EvaluateTopKAcross(q *core.Query, set *mapping.Set, sh Shards, bt *core.BlockTree, k int) []core.Result {
	if k <= 0 {
		return nil
	}
	return e.runPlan(q, set, sh, bt, k)
}

// runPlan is the engine's one evaluation path: the plan of the block tree,
// or Algorithm 3's for a nil tree, with k = 0 for the plain PTQ. A
// collection of one runs on the calling goroutine, without the closure
// spread takes; several members are spread over the engine's pool. A
// canceled view returns partial results, which callers discard.
func (e *Engine) runPlan(q *core.Query, set *mapping.Set, sh Shards, bt *core.BlockTree, k int) []core.Result {
	results := core.NewResultMerger(set)
	if len(sh.Docs) == 0 {
		return results.Finish()
	}
	for _, ep := range q.Plan(set, bt).Embeddings {
		if e.canceled() {
			break
		}
		perShard := results.UnitOutputs(ep, len(sh.Docs))
		if len(sh.Docs) == 1 {
			e.runShard(perShard[0], ep, sh, 0, k)
		} else {
			e.spread(len(sh.Docs), func(s int) {
				if !e.canceled() {
					e.runShard(perShard[s], ep, sh, s, k)
				}
			})
		}
		if e.canceled() {
			// A canceled scatter may have skipped shards entirely, leaving
			// nil per-shard outputs; the results are discarded anyway.
			break
		}
		results.AddClasses(ep, k, perShard)
	}
	return results.Finish()
}

// runShard runs one embedding's plan over member s into out and reports
// the unit's wall time.
func (e *Engine) runShard(out [][]twig.Match, ep *core.EmbeddingPlan, sh Shards, s, k int) {
	start := time.Now()
	ep.Run(out, sh.Docs[s], k, e.done)
	sh.observe(s, time.Since(start))
}

// EvaluateBatchAcross answers many queries over one sharded collection,
// the requests and each request's shards spread over the engine's one
// pool (inline fallback — no deadlock, no overcommit). Requests are
// prepared through the cache; a nil block tree makes every request basic
// (K ignored).
func (e *Engine) EvaluateBatchAcross(set *mapping.Set, sh Shards, bt *core.BlockTree, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	e.spread(len(reqs), func(i int) { out[i] = e.answerAcross(set, sh, bt, reqs[i]) })
	return out
}

func (e *Engine) answerAcross(set *mapping.Set, sh Shards, bt *core.BlockTree, req Request) Response {
	if e.canceled() {
		return Response{Request: req, Err: ErrCanceled}
	}
	q, err := e.Prepare(req.Pattern, set)
	if err != nil {
		return Response{Request: req, Err: err}
	}
	k := req.K
	if bt == nil {
		k = 0
	}
	return Response{Request: req, Query: q, Results: e.runPlan(q, set, sh, bt, k)}
}
