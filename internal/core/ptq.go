package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"xmatch/internal/mapping"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// Query is a probabilistic twig query prepared for evaluation: the parsed
// pattern together with its embeddings into the target schema. Preparing a
// query resolves labels and axes once; per-mapping evaluation then only
// rewrites target elements to source paths.
type Query struct {
	Pattern *twig.Pattern
	// Embeddings are the pattern's embeddings into the target schema
	// (one per way the pattern fits the schema; typically one).
	Embeddings []twig.Embedding

	set *mapping.Set // the mapping set the query was prepared against
}

// PrepareQuery parses the pattern text and resolves it against the target
// schema of the mapping set. It errors if the pattern does not embed into
// the target schema at all.
func PrepareQuery(pattern string, set *mapping.Set) (*Query, error) {
	p, err := twig.Parse(pattern)
	if err != nil {
		return nil, err
	}
	embs, err := twig.ResolveOne(p, set.Target)
	if err != nil {
		return nil, err
	}
	return &Query{Pattern: p, Embeddings: embs, set: set}, nil
}

// Result is one element of a PTQ answer: the matches of the query through
// one possible mapping, with that mapping's probability (Definition 4).
type Result struct {
	// MappingIndex identifies the mapping mi within the set.
	MappingIndex int
	// Prob is pi, the probability the mapping (and hence this answer)
	// is correct.
	Prob float64
	// Matches is Ri, the set of matches of the query on the document
	// through mapping mi. It may be empty for a relevant mapping whose
	// rewritten query finds no document nodes.
	Matches []twig.Match
}

// EvaluateBasic answers the PTQ with Algorithm 3 (query_basic): it filters
// irrelevant mappings — those lacking a correspondence for some query node —
// then, for every remaining mapping independently, rewrites the query to
// source-schema paths and matches it against the document. Results are
// ordered by mapping index.
func EvaluateBasic(q *Query, set *mapping.Set, doc *xmltree.Document) []Result {
	results := NewResultMerger(set)
	for _, emb := range q.Embeddings {
		relevant := FilterMappings(set, emb)
		for _, mi := range relevant {
			results.Add(mi, EvaluateBasicMapping(q, emb, mi, set, doc))
		}
	}
	return results.Finish()
}

// EvaluateBasicMapping is the per-mapping unit of work of Algorithm 3: it
// rewrites the embedded query through mapping mi into source-schema paths and
// matches it against the document. It returns nil when the rewritten paths
// cannot nest (the mapping yields no matches). Mappings are evaluated
// completely independently, which makes this the natural grain for parallel
// basic PTQ answering (internal/engine).
func EvaluateBasicMapping(q *Query, emb twig.Embedding, mi int, set *mapping.Set, doc *xmltree.Document) []twig.Match {
	binding, ok := rewriteFull(q, emb, set.Mappings[mi])
	if !ok {
		return nil
	}
	return matchPattern(doc, q.Pattern.Root, binding)
}

// Evaluate answers the PTQ with Algorithm 4 (twig_query_tree): query
// subtrees whose root path appears in the block tree's hash table are
// evaluated once per c-block and the result replicated across all mappings
// sharing the block; elsewhere the query is decomposed into its root and
// child subqueries, which are evaluated recursively and recombined with
// structural joins.
func Evaluate(q *Query, set *mapping.Set, doc *xmltree.Document, bt *BlockTree) []Result {
	results := NewResultMerger(set)
	for _, emb := range q.Embeddings {
		relevant := FilterMappings(set, emb)
		if len(relevant) == 0 {
			continue
		}
		for mi, matches := range EvaluateSubset(q, emb, set, doc, bt, relevant) {
			results.Add(mi, matches)
		}
	}
	return results.Finish()
}

// EvaluateSubset runs Algorithm 4 for one embedding restricted to the given
// subset of relevant mapping indices, returning matches per mapping index.
// Because every mapping's matches depend only on the mapping itself and on
// the c-blocks containing it — never on the other relevant mappings — the
// per-mapping output is identical whether the relevant set is evaluated in
// one call or partitioned across several. That independence is what lets
// internal/engine split the relevant mappings into chunks and evaluate the
// chunks concurrently, each with its own memoization cache.
func EvaluateSubset(q *Query, emb twig.Embedding, set *mapping.Set, doc *xmltree.Document, bt *BlockTree, relevant []int) map[int][]twig.Match {
	return EvaluateSubsetStop(q, emb, set, doc, bt, relevant, nil)
}

// EvaluateSubsetStop is EvaluateSubset with a cooperative cancellation
// flag: the per-mapping evaluation loops poll stop between units of work
// and bail out with whatever they have computed so far. A caller that arms
// stop must treat the output as partial once the flag is set — the serving
// layer discards it and answers with a timeout instead. A nil stop is
// never polled, so the uncancellable path pays one nil check per mapping.
func EvaluateSubsetStop(q *Query, emb twig.Embedding, set *mapping.Set, doc *xmltree.Document, bt *BlockTree, relevant []int, stop *atomic.Bool) map[int][]twig.Match {
	if len(relevant) == 0 {
		return nil
	}
	relevantSet := mapping.NewIDSet(set.Len())
	for _, mi := range relevant {
		relevantSet.Add(mi)
	}
	return evalTree(q, emb, q.Pattern.Root, set, doc, bt, relevant, relevantSet, &evalCache{matches: map[string][]twig.Match{}, stop: stop})
}

// EvaluateTopK answers the top-k PTQ (Definition 5): only the k relevant
// mappings with the highest probabilities are evaluated, which is correct
// because every answer tuple derives from exactly one mapping and tuple
// probabilities equal mapping probabilities (Section IV-C).
func EvaluateTopK(q *Query, set *mapping.Set, doc *xmltree.Document, bt *BlockTree, k int) []Result {
	if k <= 0 {
		return nil
	}
	keepSet, all := TopKMappings(q, set, k)
	if all {
		// Every relevant mapping is kept: the top-k PTQ degenerates to
		// the plain PTQ.
		return Evaluate(q, set, doc, bt)
	}
	results := NewResultMerger(set)
	for _, emb := range q.Embeddings {
		var relevant []int
		for _, mi := range FilterMappings(set, emb) {
			if keepSet[mi] {
				relevant = append(relevant, mi)
			}
		}
		for mi, matches := range EvaluateSubset(q, emb, set, doc, bt, relevant) {
			results.Add(mi, matches)
		}
	}
	return results.Finish()
}

// TopKMappings computes the mapping selection of the top-k PTQ: the union of
// relevant mappings across the query's embeddings, truncated to the k most
// probable (ties broken by mapping index). When k covers every relevant
// mapping it returns all=true and a nil set — the caller should fall back to
// the plain PTQ.
func TopKMappings(q *Query, set *mapping.Set, k int) (keepSet map[int]bool, all bool) {
	relevantUnion := map[int]bool{}
	for _, emb := range q.Embeddings {
		for _, mi := range FilterMappings(set, emb) {
			relevantUnion[mi] = true
		}
	}
	keep := make([]int, 0, len(relevantUnion))
	for mi := range relevantUnion {
		keep = append(keep, mi)
	}
	if k >= len(keep) {
		return nil, true
	}
	sort.Slice(keep, func(i, j int) bool {
		a, b := set.Mappings[keep[i]], set.Mappings[keep[j]]
		if a.Prob != b.Prob {
			return a.Prob > b.Prob
		}
		return keep[i] < keep[j]
	})
	keep = keep[:k]
	keepSet = map[int]bool{}
	for _, mi := range keep {
		keepSet[mi] = true
	}
	return keepSet, false
}

// FilterMappings returns the indices of the mappings relevant to the
// embedded query: those with a correspondence for every query node's target
// element (function filter_mappings of Algorithm 3).
func FilterMappings(set *mapping.Set, emb twig.Embedding) []int {
	var out []int
	for mi, m := range set.Mappings {
		if m.Covers(emb) {
			out = append(out, mi)
		}
	}
	return out
}

// rewriteFull rewrites the whole embedded query through a mapping into a
// source-path binding. It returns ok=false when the mapped source elements
// cannot nest (a child's source path does not extend its parent's source
// path), in which case the mapping yields no matches.
func rewriteFull(q *Query, emb twig.Embedding, m *mapping.Mapping) (twig.PathBinding, bool) {
	binding := make(twig.PathBinding, q.Pattern.Size())
	for _, qn := range q.Pattern.Nodes() {
		s, ok := m.SourceFor(emb[qn.Index])
		if !ok {
			return nil, false // cannot happen after filtering; defensive
		}
		binding[qn] = q.set.Source.ByID(s).Path
	}
	if !bindingNests(q.Pattern.Root, binding) {
		return nil, false
	}
	return binding, true
}

// bindingNests verifies the rewrite-time structural consistency: for every
// pattern edge the child's source path must strictly extend the parent's,
// otherwise no document node pair can satisfy the containment join.
func bindingNests(qn *twig.Node, binding twig.PathBinding) bool {
	for _, c := range qn.Children {
		pp, cp := binding[qn], binding[c]
		if len(cp) <= len(pp) || cp[:len(pp)] != pp || cp[len(pp)] != '.' {
			return false
		}
		if !bindingNests(c, binding) {
			return false
		}
	}
	return true
}

// evalCache memoizes pure single-node and subtree evaluations within one
// query evaluation: mappings that translate a subquery to the identical
// source-path binding necessarily produce the identical matches, so the
// matching runs once per distinct binding. The join structure of
// Algorithm 4 — and hence the sharing driven by c-blocks — is unaffected.
type evalCache struct {
	matches map[string][]twig.Match
	// stop, when non-nil, is polled between per-mapping evaluation units;
	// once set, evalTree returns partial output immediately (the caller
	// discards it — see EvaluateSubsetStop).
	stop *atomic.Bool
}

// stopped reports whether the evaluation's caller requested cancellation.
func (c *evalCache) stopped() bool { return c.stop != nil && c.stop.Load() }

func (c *evalCache) get(key string) ([]twig.Match, bool) {
	m, ok := c.matches[key]
	return m, ok
}

func (c *evalCache) put(key string, m []twig.Match) { c.matches[key] = m }

// evalTree evaluates the query subtree rooted at qn for every relevant
// mapping, returning matches per mapping index. It implements
// twig_query_tree and query_subtree of Algorithm 4.
func evalTree(q *Query, emb twig.Embedding, qn *twig.Node, set *mapping.Set,
	doc *xmltree.Document, bt *BlockTree, relevant []int, relevantSet *mapping.IDSet,
	cache *evalCache) map[int][]twig.Match {

	elemID := emb[qn.Index]
	path := set.Target.ByID(elemID).Path
	out := make(map[int][]twig.Match, len(relevant))

	if t := bt.FindNode(path); t == elemID && len(bt.Blocks[t]) > 0 {
		// query_subtree: evaluate once per c-block, replicate across the
		// block's relevant mappings.
		covered := mapping.NewIDSet(set.Len())
		for _, b := range bt.Blocks[t] {
			if cache.stopped() {
				return out
			}
			share := b.M.Intersect(relevantSet)
			if share.IsEmpty() {
				continue
			}
			matches := matchSubtreeWithBlock(q, emb, qn, b, set, doc)
			for _, mi := range share.IDs() {
				out[mi] = matches
			}
			covered.UnionWith(share)
		}
		// Mappings not covered by any block are evaluated directly.
		rest := relevantSet.Clone().SubtractWith(covered)
		for _, mi := range rest.IDs() {
			if cache.stopped() {
				return out
			}
			out[mi] = cachedSubtreeEval(q, emb, qn, mi, set, doc, cache)
		}
		return out
	}

	if len(qn.Children) == 0 || !subtreeHasBlocks(qn, emb, set, bt) {
		// Single-node subquery — or a subtree with no c-block anchored at
		// or below any of its nodes. Decomposition exists to reach block
		// sharing deeper in the query; with none available, the
		// decomposed structural joins compute exactly the per-mapping
		// subtree matches that one direct (memoized) matcher evaluation
		// returns, so skip straight to it. This also routes the whole
		// subtree through the document's accelerator when one is
		// attached, where repeated bindings are answered from the
		// matcher-level result memo instead of being re-joined per
		// mapping.
		for _, mi := range relevant {
			if cache.stopped() {
				return out
			}
			out[mi] = cachedSubtreeEval(q, emb, qn, mi, set, doc, cache)
		}
		return out
	}

	// Decompose: root-only query q0, then one subquery per child, then
	// per-mapping structural joins (split_query + stack_join).
	root0 := &twig.Node{Label: qn.Label, Axis: qn.Axis, Value: qn.Value, HasValue: qn.HasValue, Index: qn.Index}
	r0 := make(map[int][]twig.Match, len(relevant))
	for _, mi := range relevant {
		if cache.stopped() {
			return r0
		}
		m := set.Mappings[mi]
		s, _ := m.SourceFor(elemID)
		key := string(appendNodeKey(make([]byte, 0, 16), 'n', qn.Index, s))
		if matches, ok := cache.get(key); ok {
			r0[mi] = matches
			continue
		}
		binding := twig.PathBinding{root0: set.Source.ByID(s).Path}
		matches := matchPattern(doc, root0, binding)
		// Re-key matches to the original query node.
		rekeyed := make([]twig.Match, len(matches))
		for i, mt := range matches {
			rekeyed[i] = twig.Match{{Q: qn, D: mt.Get(root0)}}
		}
		cache.put(key, rekeyed)
		r0[mi] = rekeyed
	}
	joined := r0
	for _, c := range qn.Children {
		if cache.stopped() {
			return joined
		}
		rc := evalTree(q, emb, c, set, doc, bt, relevant, relevantSet, cache)
		next := make(map[int][]twig.Match, len(relevant))
		// Mappings whose operand lists are the same slices (the subtree
		// caches hand one slice to every mapping with the same rewrite)
		// necessarily join to the same result, so each distinct operand
		// pair is joined once and shared — the join-level counterpart of
		// the c-block sharing this decomposition could not reach.
		joins := make(map[joinOperands][]twig.Match, len(relevant))
		for _, mi := range relevant {
			key := joinOperands{outer: sliceIdent(joined[mi]), inner: sliceIdent(rc[mi])}
			m, ok := joins[key]
			if !ok {
				m = twig.StructuralJoin(joined[mi], qn, rc[mi], c)
				joins[key] = m
			}
			next[mi] = m
		}
		joined = next
	}
	return joined
}

// ident is a match slice's identity: its first element's address and its
// length. Two slices with equal identity hold the same matches.
type ident struct {
	p *twig.Match
	n int
}

// joinOperands keys one structural join's operand pair by identity.
type joinOperands struct {
	outer, inner ident
}

func sliceIdent(s []twig.Match) ident {
	if len(s) == 0 {
		return ident{}
	}
	return ident{p: &s[0], n: len(s)}
}

// subtreeHasBlocks reports whether any node of the query subtree rooted
// at qn (the root included) anchors at least one c-block — i.e. whether
// decomposing below qn can reach any cross-mapping sharing at all.
func subtreeHasBlocks(qn *twig.Node, emb twig.Embedding, set *mapping.Set, bt *BlockTree) bool {
	t := emb[qn.Index]
	if bt.FindNode(set.Target.ByID(t).Path) == t && len(bt.Blocks[t]) > 0 {
		return true
	}
	for _, c := range qn.Children {
		if subtreeHasBlocks(c, emb, set, bt) {
			return true
		}
	}
	return false
}

// cachedSubtreeEval evaluates the query subtree for one mapping, memoized
// by the mapping's source choices over the subtree. The memo key is built
// with strconv appends into one preallocated buffer — this runs once per
// (mapping, subtree) on the hot path, and fmt-formatted keys dominated its
// allocation profile (see BenchmarkMatchKey for the pattern).
func cachedSubtreeEval(q *Query, emb twig.Embedding, qn *twig.Node, mi int,
	set *mapping.Set, doc *xmltree.Document, cache *evalCache) []twig.Match {

	m := set.Mappings[mi]
	kb := appendNodeKey(make([]byte, 0, 8+8*q.Pattern.Size()), 's', qn.Index, -1)
	var sig func(n *twig.Node) bool
	sig = func(n *twig.Node) bool {
		s, ok := m.SourceFor(emb[n.Index])
		if !ok {
			return false
		}
		kb = append(kb, ':')
		kb = strconv.AppendInt(kb, int64(s), 10)
		for _, c := range n.Children {
			if !sig(c) {
				return false
			}
		}
		return true
	}
	if !sig(qn) {
		return nil
	}
	key := string(kb)
	if matches, ok := cache.get(key); ok {
		return matches
	}
	matches := matchSubtreeWithMapping(q, emb, qn, m, set, doc)
	cache.put(key, matches)
	return matches
}

// appendNodeKey appends a memo-key prefix: a tag byte and the subtree
// root's pattern index, plus one source element ID when s >= 0.
func appendNodeKey(buf []byte, tag byte, index, s int) []byte {
	buf = append(buf, tag)
	buf = strconv.AppendInt(buf, int64(index), 10)
	if s >= 0 {
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(s), 10)
	}
	return buf
}

// matchSubtreeWithBlock evaluates the query subtree once using a block's
// correspondence set as the (single) mapping: b.C covers the anchor's whole
// target subtree, hence every query node below qn.
func matchSubtreeWithBlock(q *Query, emb twig.Embedding, qn *twig.Node, b *Block,
	set *mapping.Set, doc *xmltree.Document) []twig.Match {

	binding := make(twig.PathBinding)
	var collect func(n *twig.Node) bool
	collect = func(n *twig.Node) bool {
		s, ok := b.sourceFor(emb[n.Index])
		if !ok {
			return false // defensive: c-blocks cover the full subtree
		}
		binding[n] = set.Source.ByID(s).Path
		for _, c := range n.Children {
			if !collect(c) {
				return false
			}
		}
		return true
	}
	if !collect(qn) || !bindingNests(qn, binding) {
		return nil
	}
	return matchPattern(doc, qn, binding)
}

// matchSubtreeWithMapping evaluates the query subtree for one mapping.
func matchSubtreeWithMapping(q *Query, emb twig.Embedding, qn *twig.Node, m *mapping.Mapping,
	set *mapping.Set, doc *xmltree.Document) []twig.Match {

	binding := make(twig.PathBinding)
	var collect func(n *twig.Node) bool
	collect = func(n *twig.Node) bool {
		s, ok := m.SourceFor(emb[n.Index])
		if !ok {
			return false
		}
		binding[n] = set.Source.ByID(s).Path
		for _, c := range n.Children {
			if !collect(c) {
				return false
			}
		}
		return true
	}
	if !collect(qn) || !bindingNests(qn, binding) {
		return nil
	}
	return matchPattern(doc, qn, binding)
}

// ResultMerger accumulates per-mapping matches across embeddings,
// deduplicating matches by canonical key. Adding nil matches still registers
// the mapping, so relevant mappings with empty answers appear in the final
// results. It is not safe for concurrent use; parallel callers must merge
// their per-chunk outputs through a single ResultMerger in a deterministic
// order (per mapping, chunk outputs are disjoint, so only the relative order
// of embeddings matters for match ordering).
//
// Duplicates can only arrive from a *second* Add for the same mapping (one
// evaluation never repeats a match), so the match-key dedup set is built
// lazily at that point. Single-embedding queries — the common case — never
// key a single match, which takes Match.Key and its map off the hot path
// entirely. The first Add's slice is retained as-is (appends copy on
// growth), so matcher-layer caches may hand the same slice to every
// mapping safely.
type ResultMerger struct {
	set     *mapping.Set
	matches map[int][]twig.Match
	seen    map[int]map[string]bool // built on the second Add for a mapping

	// AddStreams identity memo: heavily overlapping mappings hand the
	// merger the same memo-shared shard streams over and over, and the
	// merge is a pure function of the streams, so an AddStreams whose
	// stream tuple is pointer-identical to an earlier call's reuses that
	// call's merged slice instead of re-concatenating — the multi-shard
	// analogue of the matcher memo handing one slice to many mappings.
	// Every tuple of the merge is remembered, not only the last, so the
	// sharing does not depend on identical tuples arriving back to back.
	// Tuples are bucketed by their first stream's identity.
	merged map[ident][]mergedStreams
}

// mergedStreams is one remembered AddStreams call: the identity of every
// stream of the tuple and the slice they merged to.
type mergedStreams struct {
	streams []ident
	merged  []twig.Match
}

// NewResultMerger returns an empty merger for the mapping set.
func NewResultMerger(set *mapping.Set) *ResultMerger {
	return &ResultMerger{
		set:     set,
		matches: make(map[int][]twig.Match),
		seen:    make(map[int]map[string]bool),
	}
}

// Add records the matches of mapping mi, dropping duplicates of matches
// already recorded for mi.
func (r *ResultMerger) Add(mi int, matches []twig.Match) {
	existing, ok := r.matches[mi]
	if !ok {
		r.matches[mi] = matches
		return
	}
	if len(matches) == 0 {
		return
	}
	seen := r.seen[mi]
	if seen == nil {
		seen = make(map[string]bool, len(existing))
		for _, m := range existing {
			seen[m.Key()] = true
		}
		r.seen[mi] = seen
		// The stored slice may be shared (matcher caches hand one slice to
		// many mappings); clone before the first append so growth never
		// writes into shared backing capacity.
		existing = append(make([]twig.Match, 0, len(existing)+len(matches)), existing...)
	}
	for _, m := range matches {
		k := m.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		existing = append(existing, m)
	}
	r.matches[mi] = existing
}

// AddStreams records one mapping's matches gathered from several
// key-ordered result streams — in sharded evaluation, one stream per
// member document — interleaving them deterministically before the usual
// Add. Each stream must be ordered by Match.Key(), which is the matcher
// output order (bindings in pattern preorder, keyed by start number); the
// interleave is the unique key-sorted merge, with a match whose key
// already appeared earlier in the merge dropped. Shards carry disjoint
// ascending interval ranges, so for them the merge degenerates to plain
// concatenation in stream order — exactly the match order evaluating the
// concatenated corpus as one document produces, which is what keeps
// sharded wire output byte-identical (see internal/engine's Across
// evaluators and the cross-shard differential suites). Calling it with
// every stream empty still registers the mapping, like Add(mi, nil).
func (r *ResultMerger) AddStreams(mi int, streams [][]twig.Match) {
	nonEmpty, last := 0, -1
	for i, s := range streams {
		if len(s) > 0 {
			nonEmpty, last = nonEmpty+1, i
		}
	}
	switch nonEmpty {
	case 0:
		r.Add(mi, nil)
		return
	case 1:
		r.Add(mi, streams[last])
		return
	}
	if merged, ok := r.recallStreams(streams); ok {
		r.Add(mi, merged)
		return
	}
	total := 0
	ordered := true
	prevLast := ""
	for _, s := range streams {
		if len(s) == 0 {
			continue
		}
		total += len(s)
		if ordered {
			if prevLast != "" && s[0].Key() <= prevLast {
				ordered = false
			} else {
				prevLast = s[len(s)-1].Key()
			}
		}
	}
	if ordered {
		// Disjoint ascending key ranges — the shard case: concatenate.
		merged := make([]twig.Match, 0, total)
		for _, s := range streams {
			merged = append(merged, s...)
		}
		r.rememberStreams(streams, merged)
		r.Add(mi, merged)
		return
	}
	// General interleave: repeated head selection over the streams (their
	// count is the shard count, small), deduplicating adjacent equal keys
	// — the merge emits in key order, so duplicates are always adjacent.
	idx := make([]int, len(streams))
	keys := make([]string, len(streams))
	for i, s := range streams {
		if len(s) > 0 {
			keys[i] = s[0].Key()
		}
	}
	merged := make([]twig.Match, 0, total)
	lastKey, first := "", true
	for {
		best := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			if best < 0 || keys[i] < keys[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		m, k := streams[best][idx[best]], keys[best]
		idx[best]++
		if idx[best] < len(streams[best]) {
			keys[best] = streams[best][idx[best]].Key()
		}
		if first || k != lastKey {
			merged = append(merged, m)
			lastKey, first = k, false
		}
	}
	r.rememberStreams(streams, merged)
	r.Add(mi, merged)
}

// recallStreams returns the merged slice of an earlier AddStreams call
// whose tuple was pointer-identical to streams: same count, and each
// stream the same (base, length) window.
func (r *ResultMerger) recallStreams(streams [][]twig.Match) ([]twig.Match, bool) {
next:
	for _, t := range r.merged[sliceIdent(streams[0])] {
		if len(t.streams) != len(streams) {
			continue
		}
		for i, s := range streams {
			if sliceIdent(s) != t.streams[i] {
				continue next
			}
		}
		return t.merged, true
	}
	return nil, false
}

// rememberStreams records the stream tuple's identities (the caller
// typically reuses the streams slice itself across mappings, so nothing of
// it is retained) and its merged output for recallStreams.
func (r *ResultMerger) rememberStreams(streams [][]twig.Match, merged []twig.Match) {
	ids := make([]ident, len(streams))
	for i, s := range streams {
		ids[i] = sliceIdent(s)
	}
	if r.merged == nil {
		r.merged = make(map[ident][]mergedStreams)
	}
	r.merged[ids[0]] = append(r.merged[ids[0]], mergedStreams{streams: ids, merged: merged})
}

// Finish returns the accumulated results ordered by mapping index.
func (r *ResultMerger) Finish() []Result {
	ids := make([]int, 0, len(r.matches))
	for mi := range r.matches {
		ids = append(ids, mi)
	}
	sort.Ints(ids)
	out := make([]Result, len(ids))
	for i, mi := range ids {
		out[i] = Result{MappingIndex: mi, Prob: r.set.Mappings[mi].Prob, Matches: r.matches[mi]}
	}
	return out
}

// Answer is an aggregated PTQ answer: the text values bound to one query
// node, with the total probability of the mappings producing them — the
// presentation of the paper's introduction example
// {("Cathy", 0.3), ("Bob", 0.3), ("Alice", 0.2)}.
type Answer struct {
	Values []string
	Prob   float64
}

// AggregateByNode groups results by the multiset of text values their
// matches bind to the given query node and sums the probabilities of
// mappings yielding identical value sets. Answers are ordered by
// non-increasing probability, ties broken by value.
//
// Results that carry the same Matches slice (the evaluators share one slice
// across every mapping with the same rewrite) bind the same values, so the
// value set is computed once per distinct slice; probabilities are still
// summed in result order.
func AggregateByNode(results []Result, qn *twig.Node) []Answer {
	type group struct {
		Answer
		tie string // the order's tie-break, rendered once
	}
	byKey := map[string]*group{}
	bySlice := map[ident]*group{}
	var groups []*group // in order of first appearance
	for _, r := range results {
		id := sliceIdent(r.Matches)
		g, fresh := bySlice[id], false
		if g == nil {
			valSet := map[string]bool{}
			for _, m := range r.Matches {
				if d := m.Get(qn); d != nil {
					valSet[d.Text] = true
				}
			}
			vals := make([]string, 0, len(valSet))
			for v := range valSet {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			key := strings.Join(vals, "\x00")
			if g = byKey[key]; g == nil {
				g, fresh = &group{Answer: Answer{Values: vals, Prob: r.Prob}, tie: fmt.Sprint(vals)}, true
				byKey[key] = g
				groups = append(groups, g)
			}
			bySlice[id] = g
		}
		if !fresh {
			g.Prob += r.Prob
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].Prob != groups[j].Prob {
			return groups[i].Prob > groups[j].Prob
		}
		return groups[i].tie < groups[j].tie
	})
	out := make([]Answer, len(groups))
	for i, g := range groups {
		out[i] = g.Answer
	}
	return out
}
