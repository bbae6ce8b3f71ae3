package engine

import (
	"time"

	"xmatch/internal/core"
	"xmatch/internal/mapping"
	"xmatch/internal/xmltree"
)

// Shards is a collection: an ordered list of member documents evaluated
// as one logical corpus, plus an optional per-shard timing observer. A
// single document is a collection of one. The members must carry disjoint
// ascending interval ranges (xmltree.NewAt / dataset.OrderCorpus), which
// is what makes the gathered output byte-identical to evaluating their
// concatenation (xmltree.Corpus) as a single document: per (embedding,
// mapping), each member's matches are key-ordered and the members' key
// ranges are disjoint and ascending, so core.Plan.Run's gather
// concatenates them into exactly the concatenated corpus's match order.
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

// EvaluateBasicAcross answers the basic PTQ (Algorithm 3) over a
// collection. Algorithm 3 is the plan over a tree with no c-blocks
// (core.Query.Plan with a nil tree): each relevant mapping's whole-query
// rewrite is one leaf unit, mappings with the same rewrite share it, and
// the shard outputs are gathered once per rewrite. Results are identical
// to core.EvaluateBasic over the concatenated corpus.
func (e *Engine) EvaluateBasicAcross(q *core.Query, set *mapping.Set, sh Shards) []core.Result {
	return q.Plan(set, nil).Run(sh.Docs, 0, e, sh.Observe, e.done)
}

// EvaluateAcross answers the block-tree PTQ (Algorithm 4) over a
// collection by running the query's compiled plan (core.Plan) on every
// member: per embedding, each shard matches the plan's leaf units and
// joins them, the shards side by side on the engine's pool, and the shard
// outputs are gathered once per result class, not per mapping. What a
// unit computes depends on the query, the mapping set and the block tree
// only, so the output is the same for every worker and shard count by
// construction.
func (e *Engine) EvaluateAcross(q *core.Query, set *mapping.Set, sh Shards, bt *core.BlockTree) []core.Result {
	return q.Plan(set, bt).Run(sh.Docs, 0, e, sh.Observe, e.done)
}

// EvaluateTopKAcross answers the top-k PTQ over a collection. The mapping
// selection is compiled into the plan (it depends only on the query and
// the set, never on a document), so every shard skips the same units.
// k <= 0 selects nothing, whatever the shard count.
func (e *Engine) EvaluateTopKAcross(q *core.Query, set *mapping.Set, sh Shards, bt *core.BlockTree, k int) []core.Result {
	if k <= 0 {
		return nil
	}
	return q.Plan(set, bt).Run(sh.Docs, k, e, sh.Observe, e.done)
}

// EvaluateBatchAcross answers many queries over one collection, the
// requests and each request's shards spread over the engine's one pool
// (inline fallback — no deadlock, no overcommit). Requests are prepared
// through the cache; a nil block tree makes every request basic (K
// ignored). A request the view's cancellation reached before its plan
// returned answers ErrCanceled.
func (e *Engine) EvaluateBatchAcross(set *mapping.Set, sh Shards, bt *core.BlockTree, reqs []Request) []Response {
	out := make([]Response, len(reqs))
	e.Spread(len(reqs), func(i int) { out[i] = e.answerAcross(set, sh, bt, reqs[i]) })
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
	results := q.Plan(set, bt).Run(sh.Docs, k, e, sh.Observe, e.done)
	if e.canceled() { // the plan may have stopped partway
		return Response{Request: req, Err: ErrCanceled}
	}
	return Response{Request: req, Query: q, Results: results}
}
