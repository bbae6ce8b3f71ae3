// Package matching models schema matchings: sets of scored correspondences
// between the elements of a source and a target schema, as produced by an
// automatic matcher (COMA++ in the paper, internal/matcher here).
//
// It also implements the partitioning of a matching into maximal connected
// sub-matchings (Definition 6 of Cheng, Gong, Cheung, ICDE 2010), the
// foundation of the divide-and-conquer top-h mapping generation of
// Section V.
package matching

import (
	"fmt"
	"sort"

	"xmatch/internal/schema"
)

// Correspondence is a scored edge between a source and a target element.
type Correspondence struct {
	// S and T are element IDs in the source and target schema.
	S, T int
	// Score is the matcher's similarity score, in (0, 1].
	Score float64
}

// Matching is a schema matching U between a source and a target schema.
type Matching struct {
	// Source and Target are the matched schemas.
	Source, Target *schema.Schema
	// Corrs is the set of correspondences, free of duplicates.
	Corrs []Correspondence
}

// New validates and returns a matching over the given correspondences.
// Correspondences are sorted by (T, S). New returns an error if an element
// ID is out of range, a score is outside (0, 1], or a (S, T) pair repeats.
func New(source, target *schema.Schema, corrs []Correspondence) (*Matching, error) {
	m := &Matching{Source: source, Target: target, Corrs: append([]Correspondence(nil), corrs...)}
	sort.Slice(m.Corrs, func(i, j int) bool {
		if m.Corrs[i].T != m.Corrs[j].T {
			return m.Corrs[i].T < m.Corrs[j].T
		}
		return m.Corrs[i].S < m.Corrs[j].S
	})
	for i, c := range m.Corrs {
		if c.S < 0 || c.S >= source.Len() {
			return nil, fmt.Errorf("matching: correspondence %d: source ID %d out of range [0,%d)", i, c.S, source.Len())
		}
		if c.T < 0 || c.T >= target.Len() {
			return nil, fmt.Errorf("matching: correspondence %d: target ID %d out of range [0,%d)", i, c.T, target.Len())
		}
		if c.Score <= 0 || c.Score > 1 {
			return nil, fmt.Errorf("matching: correspondence %d: score %v outside (0,1]", i, c.Score)
		}
		if i > 0 && m.Corrs[i-1].S == c.S && m.Corrs[i-1].T == c.T {
			return nil, fmt.Errorf("matching: duplicate correspondence (%d,%d)", c.S, c.T)
		}
	}
	return m, nil
}

// MustNew is New, panicking on error. Intended for tests and generators.
func MustNew(source, target *schema.Schema, corrs []Correspondence) *Matching {
	m, err := New(source, target, corrs)
	if err != nil {
		panic(err)
	}
	return m
}

// Capacity returns the number of correspondences ("Cap." in Table II).
func (m *Matching) Capacity() int { return len(m.Corrs) }

// Partition is a maximal connected sub-matching of a schema matching
// (Definition 6): the set of correspondences of one connected component of
// the bipartite correspondence graph, with the source and target elements
// it touches.
type Partition struct {
	// Corrs are indices into the parent matching's Corrs slice.
	Corrs []int
	// SourceIDs and TargetIDs are the element IDs touched, sorted.
	SourceIDs, TargetIDs []int
}

// Partitions decomposes the matching into its maximal connected
// sub-matchings using union-find over the bipartite correspondence graph
// ("seed expansion" in Section V-B). Elements with no correspondence do not
// appear in any partition. Partitions are ordered by their smallest
// correspondence index; the decomposition is unique.
func (m *Matching) Partitions() []*Partition {
	// Union-find over source IDs [0, |S|) and target IDs |S|+[0, |T|).
	n := m.Source.Len() + m.Target.Len()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(x int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	off := m.Source.Len()
	for _, c := range m.Corrs {
		union(c.S, off+c.T)
	}
	groups := make(map[int]*Partition)
	var order []int
	for i, c := range m.Corrs {
		root := find(c.S)
		p, ok := groups[root]
		if !ok {
			p = &Partition{}
			groups[root] = p
			order = append(order, root)
		}
		p.Corrs = append(p.Corrs, i)
	}
	out := make([]*Partition, 0, len(order))
	for _, root := range order {
		p := groups[root]
		srcSeen := map[int]bool{}
		tgtSeen := map[int]bool{}
		for _, ci := range p.Corrs {
			c := m.Corrs[ci]
			if !srcSeen[c.S] {
				srcSeen[c.S] = true
				p.SourceIDs = append(p.SourceIDs, c.S)
			}
			if !tgtSeen[c.T] {
				tgtSeen[c.T] = true
				p.TargetIDs = append(p.TargetIDs, c.T)
			}
		}
		sort.Ints(p.SourceIDs)
		sort.Ints(p.TargetIDs)
		out = append(out, p)
	}
	return out
}

// Size returns the number of elements in the partition, the quantity that
// drives the cost of ranked bipartite matching on it.
func (p *Partition) Size() int { return len(p.SourceIDs) + len(p.TargetIDs) }

// Stats summarizes structural properties of a matching that the paper's
// evaluation reports: capacity, number of partitions and largest partition.
type Stats struct {
	Capacity      int
	NumPartitions int
	MaxPartition  int // elements in the largest partition
	AvgPartition  float64
}

// Stats computes summary statistics for the matching.
func (m *Matching) Stats() Stats {
	ps := m.Partitions()
	st := Stats{Capacity: len(m.Corrs), NumPartitions: len(ps)}
	total := 0
	for _, p := range ps {
		sz := p.Size()
		total += sz
		if sz > st.MaxPartition {
			st.MaxPartition = sz
		}
	}
	if len(ps) > 0 {
		st.AvgPartition = float64(total) / float64(len(ps))
	}
	return st
}

// String describes the matching briefly.
func (m *Matching) String() string {
	return fmt.Sprintf("matching %s->%s (|S|=%d |T|=%d cap=%d)",
		m.Source.Name, m.Target.Name, m.Source.Len(), m.Target.Len(), len(m.Corrs))
}
