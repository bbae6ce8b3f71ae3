package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// Canonical is Pattern.String(), rendered once at preparation: the
	// text workload fingerprints and capture records key a query by, so
	// that requests differing only in spelling share an identity.
	Canonical string
	// Embeddings are the pattern's embeddings into the target schema
	// (one per way the pattern fits the schema; typically one).
	Embeddings []twig.Embedding

	set *mapping.Set // the mapping set the query was prepared against

	// plan caches the compiled evaluation plan of the block tree the query
	// last met, basic the plan of no block tree (Algorithm 3); see Plan.
	plan, basic atomic.Pointer[Plan]
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
	return &Query{Pattern: p, Canonical: p.String(), Embeddings: embs, set: set}, nil
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
// ordered by mapping index. It is the sequential oracle of the plan over
// no block tree (Plan(set, nil)), which internal/engine serves basic mode
// with.
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
// cannot nest (the mapping yields no matches).
func EvaluateBasicMapping(q *Query, emb twig.Embedding, mi int, set *mapping.Set, doc *xmltree.Document) []twig.Match {
	binding, ok := rewriteFull(q, emb, set.Mappings[mi])
	if !ok {
		return nil
	}
	return matchPattern(doc, q.Pattern.Root, binding)
}

// Evaluate answers the PTQ with Algorithm 4 (twig_query_tree): query
// subtrees whose root path appears in the block tree's hash table are
// evaluated once per c-block and the result shared by all mappings in the
// block; elsewhere the query is decomposed into its root and child
// subqueries, which are evaluated recursively and recombined with
// structural joins. The recursion itself is compiled once per (query,
// block tree) into a Plan; this runs the plan over the document.
func Evaluate(q *Query, set *mapping.Set, doc *xmltree.Document, bt *BlockTree) []Result {
	return q.Plan(set, bt).Run([]*xmltree.Document{doc}, 0, nil, nil, nil)
}

// EvaluateTopK answers the top-k PTQ (Definition 5): only the k relevant
// mappings with the highest probabilities (ties broken by mapping index)
// are evaluated, which is correct because every answer tuple derives from
// exactly one mapping and tuple probabilities equal mapping probabilities
// (Section IV-C). A k covering every relevant mapping is the plain PTQ.
func EvaluateTopK(q *Query, set *mapping.Set, doc *xmltree.Document, bt *BlockTree, k int) []Result {
	if k <= 0 {
		return nil
	}
	return q.Plan(set, bt).Run([]*xmltree.Document{doc}, k, nil, nil, nil)
}

// Spreader runs fn(0), ..., fn(n-1), side by side where it can, and
// returns once every call has. internal/engine's pool is one.
type Spreader interface {
	Spread(n int, fn func(i int))
}

// Run evaluates the plan over a collection's member documents, in
// collection order — a document is a collection of one — and returns the
// answer: per embedding, every member runs the embedding's plan
// (EmbeddingPlan.Run) into unit outputs of its own, then each result class
// is gathered across the members once and handed to every mapping of the
// class that ranks within the top k (k <= 0: all of them).
//
// Several members run through sp, or in order on the calling goroutine
// when sp is nil; one member always runs on the calling goroutine.
// observe, when non-nil, is told each member run's wall time, and must be
// safe for concurrent use. stop, when non-nil, is polled between units and
// member runs; once it is closed Run returns early with partial results,
// which the caller must discard.
//
// The members must carry disjoint ascending interval ranges
// (xmltree.NewAt), which makes the answer the one the plan gives over
// their concatenation (xmltree.Corpus): see addStreams.
func (p *Plan) Run(docs []*xmltree.Document, k int, sp Spreader, observe func(member int, took time.Duration), stop <-chan struct{}) []Result {
	r := NewResultMerger(p.set)
	if len(docs) == 0 {
		return r.Finish()
	}
	// The spread closure reads the merger's copy of docs, so the caller's
	// slice does not escape.
	r.docs = append(r.docs[:0], docs...)
	for _, ep := range p.Embeddings {
		if stopped(stop) {
			break
		}
		r.unitOutputs(ep, len(docs))
		if len(docs) == 1 || sp == nil {
			for s := range docs {
				r.runMember(ep, s, k, observe, stop)
			}
		} else {
			sp.Spread(len(docs), func(s int) { r.runMember(ep, s, k, observe, stop) })
		}
		// A stopped run leaves partial outputs, gathered like any other:
		// the caller discards the results.
		r.addClasses(ep, k)
	}
	return r.Finish()
}

// runMember runs one embedding's plan over member s into its unit outputs
// and reports the run's wall time to observe, when non-nil.
func (r *ResultMerger) runMember(ep *EmbeddingPlan, s, k int, observe func(int, time.Duration), stop <-chan struct{}) {
	if stopped(stop) {
		return
	}
	start := time.Now()
	ep.Run(r.units[s], r.docs[s], k, stop)
	if observe != nil {
		observe(s, time.Since(start))
	}
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

// ident is a match slice's identity: its first element's address and its
// length. Two slices with equal identity hold the same matches.
type ident struct {
	p *twig.Match
	n int
}

func sliceIdent(s []twig.Match) ident {
	if len(s) == 0 {
		return ident{}
	}
	return ident{p: &s[0], n: len(s)}
}

// smallTable maps keys to values for the per-request lookups whose key
// count is almost always tiny — the distinct match slices of a result
// list (a plan ends in a handful of result classes) and the answer groups
// they fold into. The first smallTableInline entries sit in an inline
// array searched linearly, which costs no allocation and no hashing; only
// a list with more distinct keys (basic mode over many rewrites) spills
// the rest into a map. The zero value is an empty table.
type smallTable[K comparable, V any] struct {
	keys  [smallTableInline]K
	vals  [smallTableInline]V
	n     int
	spill map[K]V
}

const smallTableInline = 8

func (t *smallTable[K, V]) get(k K) (v V, ok bool) {
	for i := 0; i < t.n; i++ {
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
	v, ok = t.spill[k]
	return v, ok
}

// put adds a key that get did not find.
func (t *smallTable[K, V]) put(k K, v V) {
	if t.n < smallTableInline {
		t.keys[t.n], t.vals[t.n] = k, v
		t.n++
		return
	}
	if t.spill == nil {
		t.spill = make(map[K]V)
	}
	t.spill[k] = v
}

// set stores v under k, replacing k's value if it has one.
func (t *smallTable[K, V]) set(k K, v V) {
	for i := 0; i < t.n; i++ {
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
	t.put(k, v)
}

// ResultMerger accumulates per-mapping matches across embeddings,
// deduplicating matches by canonical key. Adding nil matches still registers
// the mapping, so relevant mappings with empty answers appear in the final
// results. It is not safe for concurrent use; parallel callers gather their
// outputs and feed a single ResultMerger (per mapping only the relative
// order of embeddings matters for match ordering).
//
// Duplicates can only arrive from a *second* Add for the same mapping (one
// evaluation never repeats a match), so the match-key dedup set is built
// lazily at that point. Single-embedding queries — the common case — never
// key a single match, which takes Match.Key and its map off the hot path
// entirely. The first Add's slice is retained as-is (appends copy on
// growth), so every mapping of a result class can be handed the same slice
// safely.
//
// A merger lives from NewResultMerger to Finish: its two |M|-sized tables
// and the plan's unit outputs (unitOutputs) are scratch, so Finish hands
// them to the next evaluation instead of to the garbage collector, and the
// merger must not be touched afterwards.
// The results Finish returns are the caller's for good — unless the caller
// gives them up with ReleaseResults, after which it must not touch them
// either: the next Finish fills the same array.
type ResultMerger struct {
	set *mapping.Set
	// All three are indexed by mapping index.
	matches [][]twig.Match
	added   []bool            // the mapping is part of the answer, possibly with no matches
	seen    []map[string]bool // built on the second Add for a mapping
	n       int               // mappings added
	out     []Result          // an array ReleaseResults handed back, all zero, for Finish to fill
	// units holds a unit-output array per member document, streams a
	// gathered stream per member, docs the members of Plan.Run: nil in
	// every slot between evaluations.
	units   [][][]twig.Match
	streams [][]twig.Match
	docs    []*xmltree.Document
}

// mergerPool recycles finished mergers. A pooled merger's tables are zero
// over their whole capacity, so it pins no match slice.
var mergerPool = sync.Pool{New: func() any { return new(ResultMerger) }}

// NewResultMerger returns an empty merger for the mapping set.
func NewResultMerger(set *mapping.Set) *ResultMerger {
	r := mergerPool.Get().(*ResultMerger)
	r.set = set
	if n := set.Len(); cap(r.matches) < n {
		r.matches, r.added = make([][]twig.Match, n), make([]bool, n)
	} else {
		r.matches, r.added = r.matches[:n], r.added[:n]
	}
	return r
}

// Add records the matches of mapping mi, dropping duplicates of matches
// already recorded for mi.
func (r *ResultMerger) Add(mi int, matches []twig.Match) {
	if !r.added[mi] {
		r.added[mi] = true
		r.n++
		r.matches[mi] = matches
		return
	}
	if len(matches) == 0 {
		return
	}
	if r.seen == nil {
		r.seen = make([]map[string]bool, len(r.matches))
	}
	existing := r.matches[mi]
	seen := r.seen[mi]
	if seen == nil {
		seen = make(map[string]bool, len(existing))
		for _, m := range existing {
			seen[m.Key()] = true
		}
		r.seen[mi] = seen
		// The stored slice may be shared (a result class hands one slice to
		// all its mappings); clone before the first append so growth never
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

// unitOutputs sizes r.units to an array of nil unit-output slots for each
// of the members, for EmbeddingPlan.Run to fill. They are the merger's
// scratch: addClasses gathers and clears them.
func (r *ResultMerger) unitOutputs(ep *EmbeddingPlan, members int) {
	n := len(ep.leaves) + len(ep.joins)
	if cap(r.units) < members {
		r.units, r.streams = make([][][]twig.Match, members), make([][]twig.Match, members)
	}
	r.units, r.streams = r.units[:members], r.streams[:members]
	for s, out := range r.units {
		if cap(out) < n {
			out = make([][]twig.Match, n)
		}
		r.units[s] = out[:n]
	}
}

// addClasses records one embedding's plan output, what EmbeddingPlan.Run
// wrote for each member into r.units. Each result class is gathered across
// the members once and the merged slice handed to every mapping of the
// class that ranks within the top k (k <= 0: all of them); then the arrays
// are cleared.
func (r *ResultMerger) addClasses(ep *EmbeddingPlan, k int) {
	limit := rankLimit(k)
	streams := r.streams
	for i := range ep.classes {
		cl := &ep.classes[i]
		n := cl.kept(limit)
		if n == 0 {
			continue
		}
		for s, out := range r.units {
			streams[s] = out[cl.unit]
		}
		r.addStreams(cl.members[:n], streams)
	}
	clear(streams)
	for _, out := range r.units {
		clear(out)
	}
}

// addStreams records the matches of the mappings mis — which share them —
// gathered from several key-ordered result streams — in sharded
// evaluation, one stream per member document — interleaving them
// deterministically, once, before the usual Add per mapping. Each stream
// must be ordered by Match.Key(), which is the matcher output order
// (bindings in pattern preorder, keyed by start number); the interleave is
// the unique key-sorted merge, with a match whose key already appeared
// earlier in the merge dropped. Shards carry disjoint ascending interval
// ranges, so for them the merge degenerates to plain concatenation in
// stream order — exactly the match order evaluating the concatenated
// corpus as one document produces, which is what keeps sharded wire output
// byte-identical (see Plan.Run and the cross-shard differential suites).
// Calling it with every stream empty still registers the mappings, like
// Add(mi, nil).
func (r *ResultMerger) addStreams(mis []int, streams [][]twig.Match) {
	merged := mergeStreams(streams)
	for _, mi := range mis {
		r.Add(mi, merged)
	}
}

func mergeStreams(streams [][]twig.Match) []twig.Match {
	nonEmpty, last := 0, -1
	for i, s := range streams {
		if len(s) > 0 {
			nonEmpty, last = nonEmpty+1, i
		}
	}
	switch nonEmpty {
	case 0:
		return nil
	case 1:
		return streams[last]
	}
	total := 0
	ordered := true
	var prevLast twig.Match
	for _, s := range streams {
		if len(s) == 0 {
			continue
		}
		total += len(s)
		if ordered {
			if prevLast != nil && s[0].Compare(prevLast) <= 0 {
				ordered = false
			} else {
				prevLast = s[len(s)-1]
			}
		}
	}
	merged := make([]twig.Match, 0, total)
	if ordered {
		// Disjoint ascending key ranges — the shard case: concatenate.
		for _, s := range streams {
			merged = append(merged, s...)
		}
		return merged
	}
	// General interleave: repeated head selection over the streams (their
	// count is the shard count, small), deduplicating adjacent equal keys
	// — the merge emits in key order, so duplicates are always adjacent.
	idx := make([]int, len(streams))
	for {
		best := -1
		for i, s := range streams {
			if idx[i] < len(s) && (best < 0 || s[idx[i]].Compare(streams[best][idx[best]]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return merged
		}
		m := streams[best][idx[best]]
		idx[best]++
		if len(merged) == 0 || m.Compare(merged[len(merged)-1]) != 0 {
			merged = append(merged, m)
		}
	}
}

// Finish returns the accumulated results ordered by mapping index and
// retires the merger.
func (r *ResultMerger) Finish() []Result {
	out := r.out
	r.out = nil
	if out == nil || cap(out) < r.n { // an empty answer is an empty slice, never nil
		out = make([]Result, 0, r.n)
	}
	for mi, ok := range r.added {
		if ok {
			out = append(out, Result{MappingIndex: mi, Prob: r.set.Mappings[mi].Prob, Matches: r.matches[mi]})
			r.matches[mi], r.added[mi] = nil, false // a top-k answer wipes k entries, not |M|
		}
	}
	for _, units := range r.units {
		clear(units)
	}
	clear(r.streams)
	clear(r.docs)
	r.set, r.seen, r.n = nil, nil, 0
	mergerPool.Put(r)
	return out
}

// ReleaseResults gives a results slice Finish returned back for a later
// Finish to fill. Only a caller that is done with every element — the
// response is rendered and written — may call it, and at most once per
// slice; nothing is lost by never calling it. The array is cleared first,
// so a parked one pins no match slice.
func ReleaseResults(rs []Result) {
	if cap(rs) == 0 {
		return
	}
	rs = rs[:cap(rs)]
	clear(rs)
	r := mergerPool.Get().(*ResultMerger)
	if cap(r.out) < len(rs) {
		r.out = rs[:0]
	}
	mergerPool.Put(r)
}

// Answer is an aggregated PTQ answer: the text values bound to one query
// node, with the total probability of the mappings producing them — the
// presentation of the paper's introduction example
// {("Cathy", 0.3), ("Bob", 0.3), ("Alice", 0.2)}.
type Answer struct {
	Values []string
	Prob   float64
}

// AggregateByNode groups results by the set of distinct text values their
// matches bind to the given query node and sums the probabilities of
// mappings yielding identical value sets. Answers are ordered by
// non-increasing probability, ties broken by value.
//
// Results that carry the same Matches slice (the evaluators share one slice
// across every mapping with the same rewrite) bind the same values, so the
// value set is computed once per distinct slice; probabilities are still
// summed in result order. A plan ends in a handful of result classes, so a
// new value set finds its group by a linear search of the answers.
func AggregateByNode(results []Result, qn *twig.Node) []Answer {
	return new(AnswerScratch).byNode(results, qn)
}

// AnswerScratch is what AggregateByNode builds in — the answers, one array
// their value lists are cut from, the sort's tie keys — for a caller that
// reuses it, so a warmed aggregation allocates nothing. Answers built in
// it are valid until it is cleared. The zero value is ready.
type AnswerScratch struct {
	answers []Answer
	values  []string
	order   answerOrder
}

// Clear ends the answers built in s and drops the text they hold, keeping
// the arrays.
func (s *AnswerScratch) Clear() {
	clear(s.answers[:cap(s.answers)])
	clear(s.values[:cap(s.values)])
	s.answers, s.values = s.answers[:0], s.values[:0]
}

// Leaf is AggregateLeaf, building the answers in s.
func (s *AnswerScratch) Leaf(q *Query, results []Result) []Answer {
	nodes := q.Pattern.Nodes()
	return s.byNode(results, nodes[len(nodes)-1])
}

func (s *AnswerScratch) byNode(results []Result, qn *twig.Node) []Answer {
	first, all := len(s.answers), s.answers // this call's groups follow first, in order of first appearance
	values := slices.Grow(s.values, 8)      // their sorted distinct values, back to back; never nil: [] renders
	var bySlice smallTable[ident, int]      // match slice -> group
	for _, r := range results {
		id := sliceIdent(r.Matches)
		gi, ok := bySlice.get(id)
		if !ok {
			start := len(values)
			for _, m := range r.Matches {
				if d := m.Get(qn); d != nil {
					values = append(values, d.Text)
				}
			}
			slices.Sort(values[start:])
			values = values[:start+len(slices.Compact(values[start:]))]
			vals := values[start:len(values):len(values)]
			gi = slices.IndexFunc(all[first:], func(a Answer) bool { return slices.Equal(a.Values, vals) })
			if gi < 0 {
				gi = len(all) - first
				all = append(all, Answer{Values: vals})
			} else {
				values = values[:start]
			}
			bySlice.put(id, gi)
		}
		all[first+gi].Prob += r.Prob
	}
	s.answers, s.values = all, values
	answers := all[first:len(all):len(all)]
	if len(answers) > 1 {
		s.order = answerOrder{answers: answers, ties: s.order.ties[:0]}
		sort.Sort(&s.order)
	}
	return answers
}

// answerOrder sorts answers by non-increasing probability, ties broken by
// the rendered value list — which it renders, once, only for an answer
// that ties with another on probability.
type answerOrder struct {
	answers []Answer
	ties    []string // ties[i] is fmt.Sprint(answers[i].Values) once needed; never "" then
}

func (o *answerOrder) tie(i int) string {
	if len(o.ties) == 0 {
		o.ties = append(o.ties, make([]string, len(o.answers))...)
	}
	if o.ties[i] == "" {
		o.ties[i] = fmt.Sprint(o.answers[i].Values)
	}
	return o.ties[i]
}

func (o *answerOrder) Len() int { return len(o.answers) }

func (o *answerOrder) Less(i, j int) bool {
	if a, b := o.answers[i].Prob, o.answers[j].Prob; a != b {
		return a > b
	}
	return o.tie(i) < o.tie(j)
}

func (o *answerOrder) Swap(i, j int) {
	o.answers[i], o.answers[j] = o.answers[j], o.answers[i]
	if len(o.ties) > 0 {
		o.ties[i], o.ties[j] = o.ties[j], o.ties[i]
	}
}
