// Package assignment implements sparse maximum-weight bipartite matching
// and ranked enumeration of the h best matchings (Murty's algorithm with
// Pascoal-style forced-edge graph shrinking), the machinery behind top-h
// possible-mapping generation in Cheng, Gong, Cheung (ICDE 2010, Section V).
//
// Unlike the paper's formulation — which augments the bipartite with "image"
// elements so that every mapping becomes a perfect matching — this package
// ranks partial matchings directly: an element left unmatched simply has no
// correspondence. The two formulations enumerate the same mappings with the
// same scores, but the direct one keeps the graph sparse, which is exactly
// the property the paper's partitioning approach exploits.
package assignment

import (
	"container/heap"
	"fmt"
	"sort"
)

// Edge is a weighted edge between left node U and right node V.
type Edge struct {
	U, V int
	// W must be strictly positive: a zero-weight correspondence is
	// equivalent to no correspondence, and strictly positive weights
	// guarantee maximal matchings are never extended by supersets,
	// which Murty's space partition relies on.
	W float64
}

// Graph is a sparse bipartite graph with NU left and NV right nodes.
type Graph struct {
	NU, NV int
	Edges  []Edge

	adj [][]int // adjacency lists by left node: edge indices
}

// NewGraph validates and indexes a bipartite graph.
func NewGraph(nu, nv int, edges []Edge) (*Graph, error) {
	g := &Graph{NU: nu, NV: nv, Edges: append([]Edge(nil), edges...)}
	g.adj = make([][]int, nu)
	seen := make(map[[2]int]bool, len(edges))
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= nu {
			return nil, fmt.Errorf("assignment: edge %d: U=%d out of range [0,%d)", i, e.U, nu)
		}
		if e.V < 0 || e.V >= nv {
			return nil, fmt.Errorf("assignment: edge %d: V=%d out of range [0,%d)", i, e.V, nv)
		}
		if e.W <= 0 {
			return nil, fmt.Errorf("assignment: edge %d: weight %v must be > 0", i, e.W)
		}
		key := [2]int{e.U, e.V}
		if seen[key] {
			return nil, fmt.Errorf("assignment: duplicate edge (%d,%d)", e.U, e.V)
		}
		seen[key] = true
		g.adj[e.U] = append(g.adj[e.U], i)
	}
	return g, nil
}

// MustNewGraph is NewGraph, panicking on error.
func MustNewGraph(nu, nv int, edges []Edge) *Graph {
	g, err := NewGraph(nu, nv, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Solution is a matching: a set of pairwise node-disjoint edges.
type Solution struct {
	// EdgeIDs are indices into Graph.Edges, sorted ascending.
	EdgeIDs []int
	// Score is the sum of the edge weights.
	Score float64
}

// Key returns a canonical string identity for the matching, for
// deduplication in tests.
func (s Solution) Key() string {
	return fmt.Sprint(s.EdgeIDs)
}

// solveConstrained returns a maximum-weight matching of the subgraph with
// the given edges forbidden and the given left/right nodes blocked (nil
// means no constraints), by successive shortest augmenting paths: starting
// from the empty matching, it repeatedly augments along the path with the
// largest weight gain until no augmenting path has positive gain. Each
// intermediate matching is maximum-weight among matchings of its
// cardinality, so the final matching is globally optimal.
func (g *Graph) solveConstrained(forbidden []bool, blocked *blockSets) Solution {
	const inf = 1e18
	nu, nv := g.NU, g.NV
	matchU := make([]int, nu) // edge id or -1
	matchV := make([]int, nv)
	for i := range matchU {
		matchU[i] = -1
	}
	for i := range matchV {
		matchV[i] = -1
	}
	// Shortest-path state over nodes 0..nu-1 (left) and nu..nu+nv-1 (right).
	n := nu + nv
	dist := make([]float64, n)
	prevEdge := make([]int, n)
	inQueue := make([]bool, n)

	blockedU := func(u int) bool { return blocked != nil && blocked.u[u] }
	blockedV := func(v int) bool { return blocked != nil && blocked.v[v] }
	okEdge := func(e int) bool { return forbidden == nil || !forbidden[e] }

	var score float64
	for {
		// SPFA for the most negative-cost (largest-gain) augmenting
		// path from any unmatched, unblocked left node. Costs are -W
		// forward and +W backward; residual graphs of extreme
		// matchings contain no negative cycles.
		for i := 0; i < n; i++ {
			dist[i] = inf
			prevEdge[i] = -1
			inQueue[i] = false
		}
		queue := make([]int, 0, nu)
		for u := 0; u < nu; u++ {
			if matchU[u] == -1 && !blockedU(u) {
				dist[u] = 0
				inQueue[u] = true
				queue = append(queue, u)
			}
		}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			inQueue[x] = false
			if x < nu { // left node: traverse unmatched edges forward
				u := x
				for _, ei := range g.adj[u] {
					if !okEdge(ei) || matchU[u] == ei {
						continue
					}
					e := g.Edges[ei]
					if blockedV(e.V) || matchV[e.V] == ei {
						continue
					}
					nd := dist[u] - e.W
					y := nu + e.V
					if nd < dist[y]-1e-12 {
						dist[y] = nd
						prevEdge[y] = ei
						if !inQueue[y] {
							inQueue[y] = true
							queue = append(queue, y)
						}
					}
				}
			} else { // right node: traverse its matched edge backward
				v := x - nu
				ei := matchV[v]
				if ei == -1 {
					continue
				}
				e := g.Edges[ei]
				nd := dist[x] + e.W
				if nd < dist[e.U]-1e-12 {
					dist[e.U] = nd
					prevEdge[e.U] = ei
					if !inQueue[e.U] {
						inQueue[e.U] = true
						queue = append(queue, e.U)
					}
				}
			}
		}
		// Best augmenting path ends at an unmatched, unblocked right node.
		bestV, bestD := -1, 0.0
		for v := 0; v < nv; v++ {
			if matchV[v] == -1 && !blockedV(v) && dist[nu+v] < bestD-1e-12 {
				bestD = dist[nu+v]
				bestV = v
			}
		}
		if bestV == -1 {
			break // no augmenting path with positive gain
		}
		// Apply the augmentation by walking prevEdge back to the source.
		// The path alternates forward (unmatched) and backward (matched)
		// edges; prevEdge of a right node is the forward edge used to
		// reach it, prevEdge of a left node is its current matched edge.
		v := bestV
		for {
			fwd := prevEdge[nu+v]
			e := g.Edges[fwd]
			back := prevEdge[e.U] // matched edge of e.U, or -1 at the path source
			matchU[e.U] = fwd
			matchV[v] = fwd
			if back == -1 {
				break
			}
			v = g.Edges[back].V
		}
		score -= bestD
	}
	// Collect the matching.
	var ids []int
	for v := 0; v < nv; v++ {
		if matchV[v] != -1 {
			ids = append(ids, matchV[v])
		}
	}
	sort.Ints(ids)
	return Solution{EdgeIDs: ids, Score: score}
}

type blockSets struct {
	u, v []bool
}

// TopH returns the h highest-score matchings of the graph in non-increasing
// score order, using Murty's ranking algorithm: the best matching is found,
// then the solution space is partitioned by branching on each of its edges
// (edge i excluded, edges 1..i-1 forced), each subproblem is solved on the
// shrunken graph (Pascoal's observation that forced edges remove their
// endpoints), and a max-heap drives best-first enumeration.
//
// Child subproblems are evaluated lazily: a child's optimum cannot exceed
// its parent's (its space is a subset), so children enter the heap with the
// parent's score as an optimistic bound and are solved only when they reach
// the top — subproblems that never surface are never solved, which removes
// most of the assignment solves when h is small relative to the branching
// factor.
//
// Fewer than h solutions are returned when the graph has fewer distinct
// matchings (the empty matching, score 0, is a valid matching and always
// enumerable).
func (g *Graph) TopH(h int) []Solution {
	return g.topH(h, true)
}

func (g *Graph) topH(h int, lazy bool) []Solution {
	if h <= 0 {
		return nil
	}
	root := &murtyNode{
		forbidden: make([]bool, len(g.Edges)),
	}
	root.solve(g)
	pq := &murtyHeap{root}
	var out []Solution
	seenEmpty := false
	for pq.Len() > 0 && len(out) < h {
		node := heap.Pop(pq).(*murtyNode)
		if !node.solved {
			// Lazy node: its score is the parent's optimistic bound.
			// Solve now and re-insert with the exact score.
			node.solve(g)
			heap.Push(pq, node)
			continue
		}
		sol := node.fullSolution(g)
		if len(sol.EdgeIDs) == 0 {
			// The empty matching appears once per exhausted branch;
			// emit it at most once.
			if seenEmpty {
				continue
			}
			seenEmpty = true
		}
		out = append(out, sol)
		if len(out) == h {
			break
		}
		// Branch on the free (non-forced) edges of this node's solution.
		for i, ei := range node.sol {
			child := &murtyNode{
				forced:    append(append([]int(nil), node.forced...), node.sol[:i]...),
				forbidden: append([]bool(nil), node.forbidden...),
				score:     node.score, // optimistic bound until solved
			}
			child.forbidden[ei] = true
			if !lazy {
				child.solve(g)
			}
			heap.Push(pq, child)
		}
	}
	return out
}

// murtyNode is a subproblem in Murty's partition of the matching space:
// matchings that contain every forced edge and no forbidden edge.
type murtyNode struct {
	forced    []int  // edge IDs forced into the matching
	forbidden []bool // edge IDs excluded, indexed by edge ID

	sol    []int   // optimal free edges on the shrunken graph
	score  float64 // exact total score once solved, else optimistic bound
	solved bool
}

func (nd *murtyNode) solve(g *Graph) {
	nd.solved = true
	var blocked *blockSets
	var base float64
	if len(nd.forced) > 0 {
		blocked = &blockSets{u: make([]bool, g.NU), v: make([]bool, g.NV)}
		for _, ei := range nd.forced {
			e := g.Edges[ei]
			blocked.u[e.U] = true
			blocked.v[e.V] = true
			base += e.W
		}
	}
	s := g.solveConstrained(nd.forbidden, blocked)
	nd.sol = s.EdgeIDs
	nd.score = base + s.Score
}

func (nd *murtyNode) fullSolution(g *Graph) Solution {
	ids := append(append([]int(nil), nd.forced...), nd.sol...)
	sort.Ints(ids)
	return Solution{EdgeIDs: ids, Score: nd.score}
}

type murtyHeap []*murtyNode

func (h murtyHeap) Len() int            { return len(h) }
func (h murtyHeap) Less(i, j int) bool  { return h[i].score > h[j].score }
func (h murtyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *murtyHeap) Push(x interface{}) { *h = append(*h, x.(*murtyNode)) }
func (h *murtyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
