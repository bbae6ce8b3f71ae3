package assignment_test

import (
	"testing"

	"xmatch/internal/assignment"
	"xmatch/internal/dataset"
)

// BenchmarkAblationLazyMurty compares lazy child evaluation in Murty's
// ranking (children enter the heap with the parent's score as an upper
// bound and are solved only when popped) against eager evaluation, on the
// D7 matching.
func BenchmarkAblationLazyMurty(b *testing.B) {
	d := dataset.MustLoad("D7")
	edges := make([]assignment.Edge, len(d.Matching.Corrs))
	for i, c := range d.Matching.Corrs {
		edges[i] = assignment.Edge{U: c.S, V: c.T, W: c.Score}
	}
	g := assignment.MustNewGraph(d.Source.Len(), d.Target.Len(), edges)
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = g.TopH(10)
		}
	})
	b.Run("eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = g.TopHEager(10)
		}
	})
}
