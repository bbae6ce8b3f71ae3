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

// shardSubs derives one sub-engine per shard: each holds roughly an equal
// share of the engine's worker budget for its own nested parallelism, and
// every slot it takes still counts against the engine's budget (Sub chains
// admission gates), so scattering over many shards cannot exceed the
// engine's — and hence the request's — total.
func (e *Engine) shardSubs(n int) []*Engine {
	per := e.workers / n
	if per < 1 {
		per = 1
	}
	subs := make([]*Engine, n)
	for i := range subs {
		subs[i] = e.Sub(per)
	}
	return subs
}

// EvaluateBasicAcross answers the basic PTQ (Algorithm 3) over a sharded
// collection: per embedding, every (shard, mapping) pair is evaluated
// independently under the per-shard sub-budgets — each shard's relevant
// mappings split into contiguous chunks over its workers — and the shard
// streams are gathered per mapping in collection order. Results are
// identical to core.EvaluateBasic over the concatenated corpus.
func (e *Engine) EvaluateBasicAcross(q *core.Query, set *mapping.Set, sh Shards) []core.Result {
	results := core.NewResultMerger(set)
	if len(sh.Docs) == 0 {
		return results.Finish()
	}
	subs := e.shardSubs(len(sh.Docs))
	for _, emb := range q.Embeddings {
		if e.canceled() {
			break
		}
		relevant := core.FilterMappings(set, emb)
		perShard := make([][][]twig.Match, len(sh.Docs))
		e.parallelRanges(len(sh.Docs), len(sh.Docs), func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				if e.canceled() {
					return
				}
				start := time.Now()
				perShard[s] = subs[s].basicMatches(q, emb, relevant, set, sh.Docs[s])
				sh.observe(s, time.Since(start))
			}
		})
		if e.canceled() {
			// A canceled scatter may have skipped shards entirely, leaving
			// nil per-shard slices; the output is discarded anyway.
			break
		}
		streams := make([][]twig.Match, len(sh.Docs))
		one := make([]int, 1)
		for i, mi := range relevant {
			for s := range perShard {
				streams[s] = perShard[s][i]
			}
			one[0] = mi
			results.AddStreams(one, streams)
		}
	}
	return results.Finish()
}

// basicMatches evaluates one embedding's relevant mappings over one shard,
// chunked across the (sub-)engine's workers; per-mapping tasks are small,
// so it over-chunks 4x for balance.
func (e *Engine) basicMatches(q *core.Query, emb twig.Embedding, relevant []int, set *mapping.Set, doc *xmltree.Document) [][]twig.Match {
	matches := make([][]twig.Match, len(relevant))
	e.parallelRanges(len(relevant), 4*e.workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if e.canceled() {
				return
			}
			matches[i] = core.EvaluateBasicMapping(q, emb, relevant[i], set, doc)
		}
	})
	return matches
}

// EvaluateAcross answers the block-tree PTQ (Algorithm 4) over a sharded
// collection by running the query's compiled plan (core.Plan) on every
// member: per embedding, each shard matches the plan's leaf units — spread
// over its sub-budget's workers — and joins them, and the shard outputs
// are gathered once per result class, not per mapping. What a unit
// computes depends on the query, the mapping set and the block tree only,
// so the output is the same for every worker and shard count by
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

// runPlan is the one block-tree evaluation path: k = 0 for the plain PTQ.
// A collection of one has nothing to scatter, so its plan runs on the
// calling goroutine under the engine's own budget; several members are
// evaluated side by side under per-shard sub-budgets. A canceled view
// returns partial results, which callers discard.
func (e *Engine) runPlan(q *core.Query, set *mapping.Set, sh Shards, bt *core.BlockTree, k int) []core.Result {
	results := core.NewResultMerger(set)
	if len(sh.Docs) == 0 {
		return results.Finish()
	}
	var subs []*Engine
	if len(sh.Docs) > 1 {
		subs = e.shardSubs(len(sh.Docs))
	}
	for _, ep := range q.Plan(set, bt).Embeddings {
		if e.canceled() {
			break
		}
		perShard := results.UnitOutputs(ep, len(sh.Docs))
		if subs == nil {
			e.runShard(perShard[0], ep, sh, 0, k)
		} else {
			e.scatter(perShard, ep, sh, subs, k)
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

// scatter runs one embedding's plan over every member at once, member s
// under subs[s] into perShard[s].
func (e *Engine) scatter(perShard [][][]twig.Match, ep *core.EmbeddingPlan, sh Shards, subs []*Engine, k int) {
	e.parallelRanges(len(sh.Docs), len(sh.Docs), func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			if e.canceled() {
				return
			}
			subs[s].runShard(perShard[s], ep, sh, s, k)
		}
	})
}

// runShard runs one embedding's plan over member s into out, its matcher
// calls spread over e's workers, and reports the unit's wall time.
func (e *Engine) runShard(out [][]twig.Match, ep *core.EmbeddingPlan, sh Shards, s, k int) {
	var each func(n int, fn func(i int))
	if e.workers > 1 {
		each = e.each
	}
	start := time.Now()
	ep.Run(out, sh.Docs[s], k, e.done, each)
	sh.observe(s, time.Since(start))
}

// EvaluateBatchAcross answers many queries over one sharded collection,
// the requests concurrently under the engine's worker budget and each
// scattered across the shards under the same budget (nested admission,
// inline fallback — no deadlock, no overcommit). Requests are prepared
// through the cache; a nil block tree makes every request basic (K ignored).
func (e *Engine) EvaluateBatchAcross(set *mapping.Set, sh Shards, bt *core.BlockTree, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	e.parallelRanges(len(reqs), len(reqs), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = e.answerAcross(set, sh, bt, reqs[i])
		}
	})
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
	var results []core.Result
	switch {
	case bt == nil:
		results = e.EvaluateBasicAcross(q, set, sh)
	case req.K > 0:
		results = e.EvaluateTopKAcross(q, set, sh, bt, req.K)
	default:
		results = e.EvaluateAcross(q, set, sh, bt)
	}
	return Response{Request: req, Query: q, Results: results}
}
