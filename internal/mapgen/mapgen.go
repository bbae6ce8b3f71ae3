// Package mapgen derives the top-h possible mappings from a schema matching
// (Cheng, Gong, Cheung, ICDE 2010, Section V). Two methods are provided:
//
//   - Murty: ranked bipartite matching over the whole correspondence graph
//     (the paper's baseline, "the advanced version of Murty's algorithm").
//   - Partition: the paper's divide-and-conquer Algorithm 5 — decompose the
//     sparse matching into maximal connected partitions, rank each partition
//     independently, and fold the ranked lists together with a best-first
//     top-h merge.
//
// Both return identical mapping sets (a property the tests verify); the
// partitioned method is faster by roughly the factor the paper reports
// because ranked matching cost grows polynomially with graph size while
// partitions of real XML matchings are small.
package mapgen

import (
	"container/heap"
	"fmt"

	"xmatch/internal/assignment"
	"xmatch/internal/mapping"
	"xmatch/internal/matching"
)

// Method selects the top-h generation algorithm.
type Method int

const (
	// Murty ranks matchings over the whole bipartite graph.
	Murty Method = iota
	// Partition applies the divide-and-conquer Algorithm 5.
	Partition
)

// String names the method as in the paper's figures.
func (m Method) String() string {
	switch m {
	case Murty:
		return "murty"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// TopH returns the h highest-score possible mappings of the matching as a
// probability-normalized mapping set (pi = score_i / Σ scores). Fewer than
// h mappings are returned when the matching admits fewer distinct mappings.
func TopH(u *matching.Matching, h int, method Method) (*mapping.Set, error) {
	if h <= 0 {
		return nil, fmt.Errorf("mapgen: h must be positive, got %d", h)
	}
	var selections [][]int // correspondence indices per mapping, ranked
	var err error
	switch method {
	case Murty:
		selections, err = topHWhole(u, h)
	case Partition:
		selections, err = topHPartitioned(u, h)
	default:
		return nil, fmt.Errorf("mapgen: unknown method %v", method)
	}
	if err != nil {
		return nil, err
	}
	mappings := make([]*mapping.Mapping, 0, len(selections))
	for _, sel := range selections {
		m, err := mapping.FromMatchingCorrs(u, sel)
		if err != nil {
			return nil, err
		}
		mappings = append(mappings, m)
	}
	return mapping.NewSet(u.Source, u.Target, mappings)
}

// topHWhole runs ranked matching on the full correspondence graph.
func topHWhole(u *matching.Matching, h int) ([][]int, error) {
	edges := make([]assignment.Edge, len(u.Corrs))
	for i, c := range u.Corrs {
		edges[i] = assignment.Edge{U: c.S, V: c.T, W: c.Score}
	}
	g, err := assignment.NewGraph(u.Source.Len(), u.Target.Len(), edges)
	if err != nil {
		return nil, fmt.Errorf("mapgen: %w", err)
	}
	sols := g.TopH(h)
	out := make([][]int, len(sols))
	for i, s := range sols {
		out[i] = s.EdgeIDs // edge i is correspondence i
	}
	return out, nil
}

// partial is one entry of the folded ranked list during partition merging:
// a choice of one ranked solution per already-merged partition, stored as a
// persistent linked list to avoid quadratic copying.
type partial struct {
	score float64
	// corrs are the matching correspondence indices chosen in the most
	// recently merged partition.
	corrs []int
	prev  *partial
}

// topHPartitioned implements Algorithm 5: partition, rank per partition,
// fold with a best-first top-h merge.
func topHPartitioned(u *matching.Matching, h int) ([][]int, error) {
	parts := u.Partitions()
	if len(parts) == 0 {
		// No correspondences at all: the only mapping is the empty one.
		return [][]int{nil}, nil
	}
	// current is the ranked list of combined partials so far.
	var current []partial
	var m merger
	for _, p := range parts {
		ranked, err := rankPartition(u, p, h)
		if err != nil {
			return nil, err
		}
		if current == nil {
			current = ranked
			continue
		}
		current = m.mergeTopH(current, ranked, h)
	}
	out := make([][]int, len(current))
	for i := range current {
		var corrs []int
		for q := &current[i]; q != nil; q = q.prev {
			corrs = append(corrs, q.corrs...)
		}
		out[i] = corrs
	}
	return out, nil
}

// rankPartition ranks the matchings of one partition. The returned partials
// have nil prev pointers. Requesting only the top h per partition is
// sufficient for a global top-h: any combination using a partition's rank
// beyond h is dominated by at least h combinations that upgrade that
// partition's choice.
func rankPartition(u *matching.Matching, p *matching.Partition, h int) ([]partial, error) {
	srcIdx := make(map[int]int, len(p.SourceIDs))
	for i, id := range p.SourceIDs {
		srcIdx[id] = i
	}
	tgtIdx := make(map[int]int, len(p.TargetIDs))
	for i, id := range p.TargetIDs {
		tgtIdx[id] = i
	}
	edges := make([]assignment.Edge, len(p.Corrs))
	for i, ci := range p.Corrs {
		c := u.Corrs[ci]
		edges[i] = assignment.Edge{U: srcIdx[c.S], V: tgtIdx[c.T], W: c.Score}
	}
	g, err := assignment.NewGraph(len(p.SourceIDs), len(p.TargetIDs), edges)
	if err != nil {
		return nil, fmt.Errorf("mapgen: partition graph: %w", err)
	}
	sols := g.TopH(h)
	out := make([]partial, len(sols))
	for i, s := range sols {
		corrs := make([]int, len(s.EdgeIDs))
		for j, ei := range s.EdgeIDs {
			corrs[j] = p.Corrs[ei] // local edge j is partition correspondence j
		}
		out[i] = partial{score: s.Score, corrs: corrs}
	}
	return out, nil
}

// mergeState is a frontier cell of the best-first merge of two ranked lists.
type mergeState struct {
	i, j  int
	score float64
}

// merger is the best-first merge's scratch, reused across a fold's merges:
// the frontier heap and a bitset over the (i, j) grid of cells visited.
type merger struct {
	heap mergeHeap
	seen []uint64
}

// mergeHeap is the frontier, a max-heap on score that container/heap keeps
// without boxing a cell: a push appends and calls heap.Fix instead of
// Push, and a pop reads the root before heap.Pop, so Pop returns nothing.
type mergeHeap []mergeState

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return h[i].score > h[j].score }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(any)          { panic("mapgen: mergeHeap grows by append") }
func (h *mergeHeap) Pop() any          { *h = (*h)[:len(*h)-1]; return nil }

// mergeTopH returns the h best combinations of one entry from each ranked
// list (scores add), as new partials chaining b's choice onto a's. This is
// the merge function of Algorithm 5; because the lists are sorted, a
// best-first walk of the (i, j) grid visits combinations in score order.
// Equal scores leave the order to the heap's swap sequence. Neither list
// is empty: a ranked partition always holds at least the empty matching.
func (m *merger) mergeTopH(a, b []partial, h int) []partial {
	m.seen = append(m.seen[:0], make([]uint64, (len(a)*len(b)+63)/64)...)
	m.heap = m.heap[:0]
	m.push(0, 0, a[0].score+b[0].score, len(b))
	out := make([]partial, 0, min(h, len(a)*len(b)))
	for len(m.heap) > 0 && len(out) < h {
		s := m.heap[0]
		heap.Pop(&m.heap)
		out = append(out, partial{score: s.score, corrs: b[s.j].corrs, prev: &a[s.i]})
		if s.i+1 < len(a) {
			m.push(s.i+1, s.j, a[s.i+1].score+b[s.j].score, len(b))
		}
		if s.j+1 < len(b) {
			m.push(s.i, s.j+1, a[s.i].score+b[s.j+1].score, len(b))
		}
	}
	return out
}

// push adds cell (i, j) of a grid cols wide to the frontier, unless it was
// visited.
func (m *merger) push(i, j int, score float64, cols int) {
	bit := i*cols + j
	if m.seen[bit/64]&(1<<(bit%64)) != 0 {
		return
	}
	m.seen[bit/64] |= 1 << (bit % 64)
	m.heap = append(m.heap, mergeState{i, j, score})
	heap.Fix(&m.heap, len(m.heap)-1)
}
