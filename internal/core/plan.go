package core

import (
	"math"
	"sort"
	"strconv"

	"xmatch/internal/mapping"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// Plan is Algorithm 4 (twig_query_tree) partially evaluated on its
// document-independent inputs. Which mappings are relevant, which of them
// share a c-block or a rewrite at each query node, and which pairs of
// partial results meet in a structural join are functions of the query,
// the mapping set and the block tree alone, so they are decided once —
// the first time a prepared query meets a block tree — and evaluating a
// document is reduced to the document-dependent remainder: one matcher
// call per distinct rewritten subquery and one structural join per
// distinct operand pair. Mappings then receive the match slice of the
// class they fall in, shared.
//
// A Plan is immutable once compiled and safe for concurrent use by any
// number of evaluations, documents and epochs.
type Plan struct {
	set *mapping.Set
	bt  *BlockTree
	// Embeddings holds one evaluation plan per embedding of the query, in
	// embedding order.
	Embeddings []*EmbeddingPlan
	// relevant is the number of mappings relevant to at least one
	// embedding — the size of the top-k PTQ's candidate list.
	relevant int
}

// EmbeddingPlan is the plan of one embedding: the units of work of the
// twig_query_tree recursion and the partition of the embedding's relevant
// mappings into result classes.
type EmbeddingPlan struct {
	// leaves are the matcher calls, independent of each other; joins are
	// the structural joins, in dependency order. A unit's output slot is
	// its index for a leaf and len(leaves) plus its index for a join.
	leaves []leafUnit
	joins  []joinUnit
	// classes partition the relevant mappings by the unit holding their
	// final matches.
	classes []resultClass
}

// leafUnit is one rewritten subquery handed whole to the matcher: the
// subtree under a query node translated through one c-block's
// correspondences (query_subtree) or through one residual mapping's, or
// the detached root of a decomposed subtree (split_query's q0).
type leafUnit struct {
	qn *twig.Node
	// paths is the source-path binding of qn's subtree; nil when the
	// rewritten paths cannot nest, so the unit matches nothing.
	paths twig.PathBinding
	// rekey is set for a decomposition root: qn is then a childless copy
	// of this pattern node and the matches are re-bound to the original.
	rekey *twig.Node
	// block records that a c-block supplied the binding (EXPLAIN).
	block bool
	// minRank is the best top-k rank among the mappings whose result
	// depends on the unit: a top-k evaluation skips units with minRank >= k.
	minRank int32
	key     string // see EmbeddingPlan.entry
}

// joinUnit is one stack_join of the recursion: the matches of outer, which
// bind parent, joined with the matches of the child subtree in inner.
type joinUnit struct {
	outer, inner  int32
	parent, child *twig.Node
	minRank       int32
	// unit is the join's sentinel pattern node: its memo entry's node.
	unit *twig.Node
	key  string
}

// resultClass is one distinct final result: the unit that produces it and
// the mappings that receive it, ordered by top-k rank so that the members
// a top-k evaluation keeps are a prefix.
type resultClass struct {
	unit    int32
	members []int
	ranks   []int32
}

// allRanks is the rank limit of an evaluation that keeps every relevant
// mapping; no rank reaches it.
const allRanks = math.MaxInt32

// rankLimit turns the k of a top-k PTQ into the exclusive bound on mapping
// ranks; k <= 0 asks for the plain PTQ.
func rankLimit(k int) int32 {
	if k <= 0 || k >= allRanks {
		return allRanks
	}
	return int32(k)
}

// kept returns how many of the class's members rank below limit.
func (c *resultClass) kept(limit int32) int {
	if limit == allRanks {
		return len(c.members)
	}
	return sort.Search(len(c.ranks), func(i int) bool { return c.ranks[i] >= limit })
}

// Plan returns the query's evaluation plan against the mapping set and its
// block tree, compiling it on first use. A nil tree has no c-blocks, so
// its plan is Algorithm 3's: each relevant mapping's whole-query rewrite
// is one leaf unit, shared by the mappings with the same rewrite. The plan
// lives on the prepared query, so whatever owns the query
// (internal/engine's prepared-query cache) bounds the plan's lifetime too.
// A query keeps the plan of no tree beside the plan of the tree it met
// last: alternating trees recompile, they never share.
func (q *Query) Plan(set *mapping.Set, bt *BlockTree) *Plan {
	slot := &q.plan
	if bt == nil {
		slot = &q.basic
	}
	if p := slot.Load(); p != nil && p.bt == bt && p.set == set {
		return p
	}
	// Concurrent first calls each compile; the plans are equal and
	// immutable, so whichever is stored last serves later calls.
	p := compilePlan(q, set, bt)
	slot.Store(p)
	return p
}

// PlanStats summarizes a plan for EXPLAIN, summed over the embeddings.
type PlanStats struct {
	// RelevantMappings is the number of mappings with a correspondence
	// for every query node of some embedding.
	RelevantMappings int `json:"relevantMappings"`
	// LeafUnits is the number of matcher calls one document costs;
	// BlockUnits of them take their rewrite from a c-block.
	LeafUnits  int `json:"leafUnits"`
	BlockUnits int `json:"blockUnits"`
	// JoinUnits is the number of structural joins one document costs.
	JoinUnits int `json:"joinUnits"`
	// ResultClasses is the number of distinct match slices the relevant
	// mappings share.
	ResultClasses int `json:"resultClasses"`
}

// Stats reports the plan's size.
func (p *Plan) Stats() PlanStats {
	st := PlanStats{RelevantMappings: p.relevant}
	for _, ep := range p.Embeddings {
		st.LeafUnits += len(ep.leaves)
		for i := range ep.leaves {
			if ep.leaves[i].block {
				st.BlockUnits++
			}
		}
		st.JoinUnits += len(ep.joins)
		st.ResultClasses += len(ep.classes)
	}
	return st
}

// Run evaluates the embedding's plan over one document into out, which
// holds a nil slot per unit, for Plan.Run to hand to the mappings. k > 0
// restricts the work to the units the k best-ranked mappings depend on.
//
// Over a document whose accelerator is a UnitMemo, Run first looks up the
// units of the classes the request keeps, which is all a hot request does.
// On a miss it runs the needed leaves — a matcher call answers a repeat
// from the same memo — then looks up each needed join in dependency order
// and computes and stores those the memo lacks. Without the seam it
// computes them all.
//
// stop, when non-nil, is polled between units; once it is closed Run
// returns early, stores nothing more, and the output is partial — the
// caller must discard it.
func (ep *EmbeddingPlan) Run(out [][]twig.Match, doc *xmltree.Document, k int, stop <-chan struct{}) {
	limit := rankLimit(k)
	memo, _ := doc.Accel().(UnitMemo)
	if memo != nil && ep.hit(memo, out, limit, stop) {
		return
	}
	for i := range ep.leaves {
		ep.matchLeaf(out, i, doc, limit, stop)
	}
	for j := range ep.joins {
		u, slot := &ep.joins[j], int32(len(ep.leaves)+j)
		if u.minRank >= limit || stopped(stop) || ep.lookup(memo, out, slot) {
			continue
		}
		out[slot] = twig.StructuralJoin(out[u.outer], u.parent, out[u.inner], u.child)
		if memo != nil {
			memo.StoreUnit(u.unit, u.key, out[slot])
		}
	}
}

// hit fills the slots of the classes the request keeps from the memo and
// reports whether it held every one.
func (ep *EmbeddingPlan) hit(memo UnitMemo, out [][]twig.Match, limit int32, stop <-chan struct{}) bool {
	for i := range ep.classes {
		if cl := &ep.classes[i]; cl.ranks[0] < limit && (stopped(stop) || !ep.lookup(memo, out, cl.unit)) {
			return false
		}
	}
	return true
}

// entry returns the memo entry of the unit in an output slot, fixed at
// compile time: a pattern node and the twig.PathBinding key of the leaves
// beneath the unit in pattern preorder, "" for a unit that matches
// nothing. A leaf's node is the one it matches, so its entry is the one
// its matcher call writes; a join's is a sentinel of its own, so no two
// units share an entry. (A decomposition root re-binds its matcher call's
// output for the joins above it; it is never a class's unit.)
func (ep *EmbeddingPlan) entry(slot int32) (*twig.Node, string) {
	if j := int(slot) - len(ep.leaves); j >= 0 {
		return ep.joins[j].unit, ep.joins[j].key
	}
	return ep.leaves[slot].qn, ep.leaves[slot].key
}

// lookup fills a unit's slot from the memo, if there is one, and reports
// whether it could; a unit that matches nothing needs no lookup.
func (ep *EmbeddingPlan) lookup(memo UnitMemo, out [][]twig.Match, slot int32) bool {
	q, key := ep.entry(slot)
	if memo == nil || key == "" {
		return memo != nil
	}
	res, ok := memo.LookupUnit(q, key)
	out[slot] = res
	return ok
}

// matchLeaf runs leaf unit i into its output slot.
func (ep *EmbeddingPlan) matchLeaf(out [][]twig.Match, i int, doc *xmltree.Document, limit int32, stop <-chan struct{}) {
	u := &ep.leaves[i]
	if u.minRank >= limit || u.paths == nil || stopped(stop) {
		return
	}
	matches := matchPattern(doc, u.qn, u.paths)
	if u.rekey != nil {
		// One backing array for all the single-binding matches.
		bindings := make([]twig.Binding, len(matches))
		rekeyed := make([]twig.Match, len(matches))
		for j, m := range matches {
			bindings[j] = twig.Binding{Q: u.rekey, D: m.Get(u.qn)}
			rekeyed[j] = bindings[j : j+1 : j+1]
		}
		matches = rekeyed
	}
	out[i] = matches
}

// stopped polls a stop channel; a nil channel never stops.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// compilePlan builds the plan of every embedding. The top-k rank of a
// mapping — its position among the mappings relevant to any embedding,
// ordered by probability descending, ties by index — is global to the
// query, so the relevant sets are collected first.
func compilePlan(q *Query, set *mapping.Set, bt *BlockTree) *Plan {
	p := &Plan{set: set, bt: bt}
	relevant := make([][]int, len(q.Embeddings))
	seen := make([]bool, set.Len())
	var order []int
	for i, emb := range q.Embeddings {
		relevant[i] = FilterMappings(set, emb)
		for _, mi := range relevant[i] {
			if !seen[mi] {
				seen[mi] = true
				order = append(order, mi)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := set.Mappings[order[i]], set.Mappings[order[j]]
		if a.Prob != b.Prob {
			return a.Prob > b.Prob
		}
		return order[i] < order[j]
	})
	rank := make([]int32, set.Len()) // consulted for relevant mappings only
	for r, mi := range order {
		rank[mi] = int32(r)
	}
	p.relevant = len(order)
	for i, emb := range q.Embeddings {
		c := &planCompiler{
			emb: emb, set: set, bt: bt, relevant: relevant[i],
			ep:     &EmbeddingPlan{},
			leafOf: map[string]int32{},
			joinOf: map[[2]int32]int32{},
		}
		c.finish(c.node(q.Pattern.Root), rank)
		p.Embeddings = append(p.Embeddings, c.ep)
	}
	return p
}

// planCompiler walks one embedding's pattern the way twig_query_tree does,
// recording units instead of evaluating them. While it runs, a unit is
// named by a reference: i >= 0 is leaf i, -(j+1) is join j; finish turns
// references into output slots.
type planCompiler struct {
	emb      twig.Embedding
	set      *mapping.Set
	bt       *BlockTree
	relevant []int // mapping indices, ascending
	ep       *EmbeddingPlan
	leafOf   map[string]int32   // rewrite key -> leaf
	joinOf   map[[2]int32]int32 // operand references -> join reference
}

// anchorsBlocks reports whether the block tree holds c-blocks anchored at
// the query node's target element; no tree holds none.
func (c *planCompiler) anchorsBlocks(qn *twig.Node) bool {
	if c.bt == nil {
		return false
	}
	t := c.emb[qn.Index]
	return c.bt.FindNode(c.set.Target.ByID(t).Path) == t && len(c.bt.Blocks[t]) > 0
}

// subtreeHasBlocks reports whether any node of the query subtree rooted
// at qn (the root included) anchors at least one c-block — i.e. whether
// decomposing below qn can reach any cross-mapping sharing at all.
func (c *planCompiler) subtreeHasBlocks(qn *twig.Node) bool {
	if c.anchorsBlocks(qn) {
		return true
	}
	for _, ch := range qn.Children {
		if c.subtreeHasBlocks(ch) {
			return true
		}
	}
	return false
}

// node compiles the query subtree rooted at qn and returns, per relevant
// mapping, the reference of the unit holding that mapping's matches of the
// subtree. It mirrors twig_query_tree and query_subtree of Algorithm 4.
func (c *planCompiler) node(qn *twig.Node) []int32 {
	const unset = math.MinInt32
	refs := make([]int32, len(c.relevant))
	for pos := range refs {
		refs[pos] = unset
	}
	t := c.emb[qn.Index]

	if c.anchorsBlocks(qn) {
		// query_subtree: one unit per c-block shared by relevant mappings.
		for _, b := range c.bt.Blocks[t] {
			ref := int32(unset)
			for pos, mi := range c.relevant {
				if !b.M.Has(mi) {
					continue
				}
				if ref == unset {
					ref = c.subtreeUnit(qn, b.sourceFor, true)
				}
				refs[pos] = ref
			}
		}
	} else if len(qn.Children) > 0 && c.subtreeHasBlocks(qn) {
		// Decompose (split_query + stack_join): the root alone, then each
		// child subtree joined in. Mappings agreeing on both operands of a
		// join share the join — the join-level counterpart of the c-block
		// sharing the decomposition reaches further down.
		root0 := &twig.Node{Label: qn.Label, Axis: qn.Axis, Value: qn.Value, HasValue: qn.HasValue, Index: qn.Index}
		for pos, mi := range c.relevant {
			s, _ := c.set.Mappings[mi].SourceFor(t)
			key := string(strconv.AppendInt(append(strconv.AppendInt([]byte{'n'}, int64(qn.Index), 10), ':'), int64(s), 10))
			ref, ok := c.leafOf[key]
			if !ok {
				ref = c.addLeaf(key, leafUnit{qn: root0, paths: twig.PathBinding{root0: c.set.Source.ByID(s).Path}, rekey: qn})
			}
			refs[pos] = ref
		}
		for _, ch := range qn.Children {
			inner := c.node(ch)
			for pos := range refs {
				key := [2]int32{refs[pos], inner[pos]}
				ref, ok := c.joinOf[key]
				if !ok {
					c.ep.joins = append(c.ep.joins, joinUnit{outer: key[0], inner: key[1], parent: qn, child: ch})
					ref = -int32(len(c.ep.joins))
					c.joinOf[key] = ref
				}
				refs[pos] = ref
			}
		}
		return refs
	}

	// What is left is rewritten per mapping and matched whole: mappings no
	// c-block at qn covers, a single-node subquery, or a subtree with no
	// c-block anchored at or below any of its nodes — decomposition exists
	// to reach block sharing deeper in the query, and with none available
	// the decomposed joins compute exactly what one matcher call returns.
	// Mappings with the same source choices over the subtree share a unit.
	for pos, mi := range c.relevant {
		if refs[pos] == unset {
			refs[pos] = c.subtreeUnit(qn, c.set.Mappings[mi].SourceFor, false)
		}
	}
	return refs
}

// subtreeUnit returns the leaf matching qn's whole subtree under the
// correspondences sourceFor supplies, creating it on first sight of that
// rewrite.
func (c *planCompiler) subtreeUnit(qn *twig.Node, sourceFor func(t int) (int, bool), block bool) int32 {
	key := strconv.AppendInt([]byte{'s'}, int64(qn.Index), 10)
	paths := twig.PathBinding{}
	var rewrite func(n *twig.Node) bool
	rewrite = func(n *twig.Node) bool {
		s, ok := sourceFor(c.emb[n.Index])
		if !ok {
			return false // defensive: filtering and c-blocks cover the subtree
		}
		key = strconv.AppendInt(append(key, ':'), int64(s), 10)
		paths[n] = c.set.Source.ByID(s).Path
		for _, ch := range n.Children {
			if !rewrite(ch) {
				return false
			}
		}
		return true
	}
	if !rewrite(qn) {
		key, paths = append(key, '!'), nil
	} else if !bindingNests(qn, paths) {
		paths = nil
	}
	ref, ok := c.leafOf[string(key)]
	if !ok {
		ref = c.addLeaf(string(key), leafUnit{qn: qn, paths: paths})
	}
	if block {
		c.ep.leaves[ref].block = true
	}
	return ref
}

func (c *planCompiler) addLeaf(key string, u leafUnit) int32 {
	if u.paths != nil {
		u.key = string(u.paths.AppendKey(nil, u.qn))
	}
	c.ep.leaves = append(c.ep.leaves, u)
	ref := int32(len(c.ep.leaves) - 1)
	c.leafOf[key] = ref
	return ref
}

// finish closes the embedding's plan over the root references: it groups
// the relevant mappings into result classes, orders each class by rank,
// turns unit references into output slots, pushes every class's best rank
// down to the units it depends on, and keys the joins.
func (c *planCompiler) finish(rootRefs []int32, rank []int32) {
	ep := c.ep
	slot := func(ref int32) int32 {
		if ref < 0 {
			return int32(len(ep.leaves)) - ref - 1
		}
		return ref
	}
	classOf := map[int32]int{}
	for pos, mi := range c.relevant {
		unit := slot(rootRefs[pos])
		ci, ok := classOf[unit]
		if !ok {
			ci = len(ep.classes)
			classOf[unit] = ci
			ep.classes = append(ep.classes, resultClass{unit: unit})
		}
		ep.classes[ci].members = append(ep.classes[ci].members, mi)
	}
	minRank := make([]int32, len(ep.leaves)+len(ep.joins))
	for i := range minRank {
		minRank[i] = allRanks
	}
	for ci := range ep.classes {
		cl := &ep.classes[ci]
		sort.Slice(cl.members, func(i, j int) bool { return rank[cl.members[i]] < rank[cl.members[j]] })
		cl.ranks = make([]int32, len(cl.members))
		for i, mi := range cl.members {
			cl.ranks[i] = rank[mi]
		}
		minRank[cl.unit] = cl.ranks[0]
	}
	// Joins were appended after their operands, so one reverse pass
	// reaches every dependency.
	for j := len(ep.joins) - 1; j >= 0; j-- {
		u := &ep.joins[j]
		u.outer, u.inner = slot(u.outer), slot(u.inner)
		u.minRank = minRank[len(ep.leaves)+j]
		minRank[u.outer] = min(minRank[u.outer], u.minRank)
		minRank[u.inner] = min(minRank[u.inner], u.minRank)
	}
	for i := range ep.leaves {
		ep.leaves[i].minRank = minRank[i]
	}
	for j := range ep.joins {
		u := &ep.joins[j]
		_, a := ep.entry(u.outer)
		if _, b := ep.entry(u.inner); a != "" && b != "" {
			u.unit, u.key = &twig.Node{}, a+b
		}
	}
}
