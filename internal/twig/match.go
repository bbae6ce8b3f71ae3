package twig

import (
	"cmp"
	"sort"

	"xmatch/internal/xmltree"
)

// Binding pairs one pattern node with the document node it matched.
type Binding struct {
	Q *Node
	D *xmltree.Node
}

// Match binds pattern nodes to document nodes: a match of a twig query q
// with l nodes in a document d is a set of l document nodes satisfying q's
// labels, predicates and structural relationships. Bindings are kept
// sorted by pattern-node preorder index, which makes merging two matches a
// linear merge instead of a map rebuild.
type Match []Binding

// Get returns the document node bound to qn, or nil.
func (m Match) Get(qn *Node) *xmltree.Node {
	for _, b := range m {
		if b.Q == qn {
			return b.D
		}
	}
	return nil
}

// Merge combines two matches over disjoint pattern-node sets into one,
// preserving the preorder-index ordering. Join-shaped callers merge a
// low-index prefix with a child subtree's higher-index bindings, so the
// merge is almost always a plain concatenation — detected by one index
// comparison before falling back to the element merge.
func (m Match) Merge(o Match) Match {
	out := make(Match, 0, len(m)+len(o))
	if len(m) == 0 || len(o) == 0 || m[len(m)-1].Q.Index <= o[0].Q.Index {
		out = append(out, m...)
		return append(out, o...)
	}
	i, j := 0, 0
	for i < len(m) && j < len(o) {
		if m[i].Q.Index <= o[j].Q.Index {
			out = append(out, m[i])
			i++
		} else {
			out = append(out, o[j])
			j++
		}
	}
	out = append(out, m[i:]...)
	out = append(out, o[j:]...)
	return out
}

// Key returns a canonical identity for the match: the document Start
// numbers of the bound nodes in pattern preorder. Useful for comparing and
// deduplicating result sets. It sits on the result-merge hot path (every
// match of every mapping is keyed for deduplication), so the key is a
// fixed-width binary encoding built in one buffer — one byte of pattern
// index (Parse caps patterns at 64 nodes) and eight big-endian bytes of
// start number per binding, no formatting at all. Keys are opaque: only
// equality and determinism matter to consumers, and fixed-width fields
// make the encoding unambiguous (and lexicographic order equal to
// numeric order, unlike the decimal keys this replaces — important now
// that gap numbering spreads start values out). BenchmarkMatchKey tracks
// the cost against the fmt- and strconv-based predecessors.
func (m Match) Key() string {
	buf := make([]byte, 0, 9*len(m))
	for _, bd := range m {
		s := uint64(bd.D.Start)
		buf = append(buf, byte(bd.Q.Index),
			byte(s>>56), byte(s>>48), byte(s>>40), byte(s>>32),
			byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return string(buf)
}

// Compare orders matches exactly as comparing their keys would —
// strings.Compare(m.Key(), o.Key()): binding by binding, the pattern index
// byte, then the start as uint64, and a prefix first — without building
// either key.
func (m Match) Compare(o Match) int {
	for i := 0; i < len(m) && i < len(o); i++ {
		if c := cmp.Compare(byte(m[i].Q.Index), byte(o[i].Q.Index)); c != 0 {
			return c
		}
		if c := cmp.Compare(uint64(m[i].D.Start), uint64(o[i].D.Start)); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(m), len(o))
}

// PathBinding assigns every node of a pattern subtree the dotted document
// path its bindings must carry. In PTQ evaluation the paths are the
// source-schema paths obtained by rewriting the embedded target query
// through one mapping (or one block's correspondence set).
type PathBinding map[*Node]string

// AppendKey appends the binding's key over the pattern subtree rooted at
// qn: the bound paths in pattern preorder, each NUL-terminated. Dotted
// paths never contain NUL, so the key is unambiguous, and the key of a
// subtree is the concatenation of its parts' keys in preorder — the form
// the index's result memo keys its entries by and parses back.
func (b PathBinding) AppendKey(dst []byte, qn *Node) []byte {
	dst = append(append(dst, b[qn]...), 0)
	for _, c := range qn.Children {
		dst = b.AppendKey(dst, c)
	}
	return dst
}

// MatchByPaths evaluates the pattern subtree rooted at qn over the
// document: each pattern node binds a document node whose path equals
// paths[qn]; every pattern edge requires the child's binding to lie
// strictly inside the parent binding's preorder interval (because rewritten
// source elements preserve ancestry, exact paths plus containment give
// precise semantics — see DESIGN.md); value predicates compare node text.
// Matches are returned ordered by the Start of qn's binding.
func MatchByPaths(doc *xmltree.Document, qn *Node, paths PathBinding) []Match {
	cands := doc.NodesByPath(paths[qn])
	if qn.HasValue {
		filtered := make([]*xmltree.Node, 0, len(cands))
		for _, d := range cands {
			if d.Text == qn.Value {
				filtered = append(filtered, d)
			}
		}
		cands = filtered
	}
	if len(cands) == 0 {
		return nil
	}
	if len(qn.Children) == 0 {
		// One slab of bindings backs every single-binding match, so the
		// whole list costs two allocations; capacities are clipped so a
		// later append can never clobber a neighbour.
		slab := make([]Binding, len(cands))
		out := make([]Match, len(cands))
		for i, d := range cands {
			slab[i] = Binding{Q: qn, D: d}
			out[i] = slab[i : i+1 : i+1]
		}
		return out
	}
	sub := make([][]Match, len(qn.Children))
	for i, c := range qn.Children {
		sub[i] = MatchByPaths(doc, c, paths)
		if len(sub[i]) == 0 {
			return nil
		}
	}
	var out []Match
	for _, d := range cands {
		// For each child, the sub-matches rooted inside d's interval form
		// a contiguous run, because sub-matches are ordered by Start.
		runs := make([][]Match, len(qn.Children))
		ok := true
		for i, c := range qn.Children {
			runs[i] = within(sub[i], c, d)
			if len(runs[i]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		base := Match{{Q: qn, D: d}}
		out = AppendProduct(out, base, runs)
	}
	return out
}

// within returns the contiguous slice of matches whose binding of root lies
// strictly inside d's preorder interval. Matches must be ordered by the
// Start of root's binding, which is always the first binding of a match
// produced by MatchByPaths (root has the smallest preorder index).
func within(matches []Match, root *Node, d *xmltree.Node) []Match {
	lo := sort.Search(len(matches), func(i int) bool {
		return matches[i].Get(root).Start > d.Start
	})
	hi := sort.Search(len(matches), func(i int) bool {
		return matches[i].Get(root).Start > d.End
	})
	return matches[lo:hi]
}

// AppendProduct extends base with every combination of one match per run
// and appends the results to out: runs are combined by a mixed-radix
// counter with the last run varying fastest, each combination's bindings
// merged in pattern-preorder. This enumeration order is part of the
// matcher output contract — the holistic matcher of internal/index shares
// it so its results stay byte-identical to MatchByPaths'.
//
// In PTQ evaluation base binds a parent node and the runs its children's
// subtrees in pattern order, so the merged preorder is almost always a
// plain concatenation; each combination is then built in a single
// exact-size allocation (the per-step Merge chain this replaces dominated
// the evaluation allocation profile), with a generic merge fallback for
// interleaved index ranges.
func AppendProduct(out []Match, base Match, runs [][]Match) []Match {
	total := len(base)
	for _, r := range runs {
		// Every match of one run binds the same pattern subtree, hence the
		// same number of nodes.
		total += len(r[0])
	}
	var comboBuf [8]int
	var combo []int
	if len(runs) <= len(comboBuf) {
		combo = comboBuf[:len(runs)]
	} else {
		combo = make([]int, len(runs))
	}
	for {
		m := make(Match, 0, total)
		m = appendOrdered(m, base)
		for i, r := range runs {
			m = appendOrdered(m, r[combo[i]])
		}
		out = append(out, m)
		// Advance the mixed-radix counter.
		i := len(runs) - 1
		for i >= 0 {
			combo[i]++
			if combo[i] < len(runs[i]) {
				break
			}
			combo[i] = 0
			i--
		}
		if i < 0 {
			return out
		}
	}
}

// appendOrdered extends m with o, preserving the preorder-index sorting:
// a direct append when o starts past m's last index (the common case —
// child subtrees occupy increasing contiguous index ranges), a linear
// merge insertion otherwise.
func appendOrdered(m, o Match) Match {
	if len(o) == 0 {
		return m
	}
	if len(m) == 0 || m[len(m)-1].Q.Index <= o[0].Q.Index {
		return append(m, o...)
	}
	for _, b := range o {
		i := len(m)
		for i > 0 && m[i-1].Q.Index > b.Q.Index {
			i--
		}
		m = append(m, Binding{})
		copy(m[i+1:], m[i:])
		m[i] = b
	}
	return m
}

// StructuralJoin joins outer and inner match lists: for every outer match,
// it pairs it with each inner match whose binding of innerRoot lies inside
// the interval of the outer match's binding of outerNode, merging the
// bindings. Inner matches must be ordered by innerRoot's Start (as produced
// by MatchByPaths); this is the stack_join step of Algorithm 4, realized as
// a binary merge over interval-sorted lists.
func StructuralJoin(outer []Match, outerNode *Node, inner []Match, innerRoot *Node) []Match {
	var out []Match
	for _, om := range outer {
		d := om.Get(outerNode)
		for _, im := range within(inner, innerRoot, d) {
			out = append(out, om.Merge(im))
		}
	}
	return out
}

// NaiveMatchByPaths is a brute-force reference implementation of
// MatchByPaths with identical semantics, used as a test oracle. It
// enumerates every assignment of document nodes to pattern nodes.
func NaiveMatchByPaths(doc *xmltree.Document, qn *Node, paths PathBinding) []Match {
	var nodes []*Node
	var collect func(n *Node)
	collect = func(n *Node) {
		nodes = append(nodes, n)
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(qn)

	parent := make(map[*Node]*Node)
	for _, n := range nodes {
		for _, c := range n.Children {
			parent[c] = n
		}
	}

	var out []Match
	cur := map[*Node]*xmltree.Node{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(nodes) {
			m := make(Match, 0, len(cur))
			for _, n := range nodes {
				m = append(m, Binding{Q: n, D: cur[n]})
			}
			sort.Slice(m, func(a, b int) bool { return m[a].Q.Index < m[b].Q.Index })
			out = append(out, m)
			return
		}
		n := nodes[i]
		for _, d := range doc.NodesByPath(paths[n]) {
			if n.HasValue && d.Text != n.Value {
				continue
			}
			if p, ok := parent[n]; ok {
				if !cur[p].IsAncestorOf(d) {
					continue
				}
			}
			cur[n] = d
			rec(i + 1)
			delete(cur, n)
		}
	}
	rec(0)
	return out
}
