package assignment

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewGraphValidation(t *testing.T) {
	cases := []struct {
		name   string
		nu, nv int
		edges  []Edge
	}{
		{"u out of range", 2, 2, []Edge{{2, 0, 0.5}}},
		{"u negative", 2, 2, []Edge{{-1, 0, 0.5}}},
		{"v out of range", 2, 2, []Edge{{0, 2, 0.5}}},
		{"zero weight", 2, 2, []Edge{{0, 0, 0}}},
		{"negative weight", 2, 2, []Edge{{0, 0, -1}}},
		{"duplicate edge", 2, 2, []Edge{{0, 0, 0.5}, {0, 0, 0.7}}},
	}
	for _, c := range cases {
		if _, err := NewGraph(c.nu, c.nv, c.edges); err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
	if _, err := NewGraph(2, 2, []Edge{{0, 0, 0.5}, {1, 1, 0.7}}); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
}

func TestSolveEmptyGraph(t *testing.T) {
	g := MustNewGraph(3, 3, nil)
	s := g.solveConstrained(nil, nil)
	if len(s.EdgeIDs) != 0 || s.Score != 0 {
		t.Fatalf("empty graph: got %+v", s)
	}
}

func TestSolveSingleEdge(t *testing.T) {
	g := MustNewGraph(1, 1, []Edge{{0, 0, 0.9}})
	s := g.solveConstrained(nil, nil)
	if len(s.EdgeIDs) != 1 || s.EdgeIDs[0] != 0 || s.Score != 0.9 {
		t.Fatalf("single edge: got %+v", s)
	}
}

func TestSolvePrefersAlternatingPath(t *testing.T) {
	// Square graph where the greedy choice (u0-v0, weight 10) must be
	// reconsidered: optimal is u0-v1 + u1-v0 = 18.
	g := MustNewGraph(2, 2, []Edge{
		{0, 0, 10}, {0, 1, 9}, {1, 0, 9}, {1, 1, 1},
	})
	s := g.solveConstrained(nil, nil)
	if math.Abs(s.Score-18) > 1e-9 {
		t.Fatalf("expected score 18, got %v (edges %v)", s.Score, s.EdgeIDs)
	}
}

func TestSolveLeavesUnprofitableNodesUnmatched(t *testing.T) {
	// Partial matchings are allowed: with positive weights every node that
	// can be matched without conflict is matched, but conflicting low-value
	// edges lose.
	g := MustNewGraph(3, 1, []Edge{
		{0, 0, 0.2}, {1, 0, 0.9}, {2, 0, 0.5},
	})
	s := g.solveConstrained(nil, nil)
	if len(s.EdgeIDs) != 1 || g.Edges[s.EdgeIDs[0]].U != 1 {
		t.Fatalf("expected u1-v0 only, got %v", s.EdgeIDs)
	}
}

// randomGraph builds a random sparse bipartite graph with at most maxEdges
// edges, suitable for comparison against enumerateAll.
func randomGraph(rng *rand.Rand, maxNodes, maxEdges int) *Graph {
	nu := 1 + rng.Intn(maxNodes)
	nv := 1 + rng.Intn(maxNodes)
	seen := map[[2]int]bool{}
	var edges []Edge
	n := rng.Intn(maxEdges + 1)
	for len(edges) < n {
		u, v := rng.Intn(nu), rng.Intn(nv)
		if seen[[2]int{u, v}] {
			if len(seen) >= nu*nv {
				break
			}
			continue
		}
		seen[[2]int{u, v}] = true
		// Quantized weights produce frequent score ties, stressing the
		// tie handling of ranked enumeration.
		w := float64(1+rng.Intn(20)) / 20.0
		edges = append(edges, Edge{u, v, w})
	}
	return MustNewGraph(nu, nv, edges)
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		g := randomGraph(rng, 6, 10)
		want := enumerateAll(g)[0].Score
		got := g.solveConstrained(nil, nil).Score
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: solve score %v, brute force %v; edges %+v",
				trial, got, want, g.Edges)
		}
	}
}

func TestSolveSolutionIsValidMatching(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, 8, 16)
		s := g.solveConstrained(nil, nil)
		usedU := map[int]bool{}
		usedV := map[int]bool{}
		var sum float64
		for _, ei := range s.EdgeIDs {
			e := g.Edges[ei]
			if usedU[e.U] || usedV[e.V] {
				t.Fatalf("trial %d: solution reuses a node: %v", trial, s.EdgeIDs)
			}
			usedU[e.U], usedV[e.V] = true, true
			sum += e.W
		}
		if math.Abs(sum-s.Score) > 1e-9 {
			t.Fatalf("trial %d: reported score %v != edge sum %v", trial, s.Score, sum)
		}
	}
}

func TestTopHMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, 5, 9)
		all := enumerateAll(g)
		h := 1 + rng.Intn(len(all)+3)
		got := g.TopH(h)
		wantN := h
		if wantN > len(all) {
			wantN = len(all)
		}
		if len(got) != wantN {
			t.Fatalf("trial %d: TopH(%d) returned %d solutions, want %d (of %d total)",
				trial, h, len(got), wantN, len(all))
		}
		for i := range got {
			if math.Abs(got[i].Score-all[i].Score) > 1e-9 {
				t.Fatalf("trial %d: rank %d score %v, want %v", trial, i, got[i].Score, all[i].Score)
			}
			if i > 0 && got[i].Score > got[i-1].Score+1e-9 {
				t.Fatalf("trial %d: scores not non-increasing at rank %d", trial, i)
			}
		}
	}
}

func TestTopHNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		g := randomGraph(rng, 5, 9)
		sols := g.TopH(50)
		seen := map[string]bool{}
		for _, s := range sols {
			k := s.Key()
			if seen[k] {
				t.Fatalf("trial %d: duplicate matching %s", trial, k)
			}
			seen[k] = true
		}
	}
}

func TestTopHExhaustsAllMatchings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		g := randomGraph(rng, 4, 7)
		all := enumerateAll(g)
		got := g.TopH(len(all) + 10)
		if len(got) != len(all) {
			t.Fatalf("trial %d: enumerated %d of %d matchings", trial, len(got), len(all))
		}
		// The last matching must be the empty one (score 0) whenever any
		// matchings exist, since the empty set is always a matching.
		last := got[len(got)-1]
		if len(last.EdgeIDs) != 0 {
			t.Fatalf("trial %d: final matching not empty: %v", trial, last.EdgeIDs)
		}
	}
}

func TestTopHZeroAndNegative(t *testing.T) {
	g := MustNewGraph(2, 2, []Edge{{0, 0, 0.5}})
	if got := g.TopH(0); got != nil {
		t.Errorf("TopH(0) = %v, want nil", got)
	}
	if got := g.TopH(-3); got != nil {
		t.Errorf("TopH(-3) = %v, want nil", got)
	}
}

func TestTopHSolutionsAreValidMatchings(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 6, 10)
		for _, s := range g.TopH(20) {
			usedU := map[int]bool{}
			usedV := map[int]bool{}
			var sum float64
			for _, ei := range s.EdgeIDs {
				e := g.Edges[ei]
				if usedU[e.U] || usedV[e.V] {
					return false
				}
				usedU[e.U], usedV[e.V] = true, true
				sum += e.W
			}
			if math.Abs(sum-s.Score) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolveSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var edges []Edge
	seen := map[[2]int]bool{}
	for len(edges) < 600 {
		u, v := rng.Intn(1000), rng.Intn(160)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, Edge{u, v, 0.5 + rng.Float64()/2})
	}
	g := MustNewGraph(1000, 160, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.solveConstrained(nil, nil)
	}
}

func BenchmarkTopH20Sparse(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var edges []Edge
	seen := map[[2]int]bool{}
	for len(edges) < 200 {
		u, v := rng.Intn(300), rng.Intn(80)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, Edge{u, v, 0.5 + rng.Float64()/2})
	}
	g := MustNewGraph(300, 80, edges)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TopH(20)
	}
}

func TestTopHLazyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 150; trial++ {
		g := randomGraph(rng, 6, 10)
		h := 1 + rng.Intn(25)
		lazy := g.TopH(h)
		eager := g.topH(h, false)
		if len(lazy) != len(eager) {
			t.Fatalf("trial %d: lazy %d, eager %d solutions", trial, len(lazy), len(eager))
		}
		for i := range lazy {
			if math.Abs(lazy[i].Score-eager[i].Score) > 1e-9 {
				t.Fatalf("trial %d rank %d: lazy %v, eager %v", trial, i, lazy[i].Score, eager[i].Score)
			}
		}
	}
}

// enumerateAll returns every matching of g in non-increasing score order:
// the brute-force oracle for solveConstrained and TopH on small graphs. It
// panics if the graph has more than 24 edges.
func enumerateAll(g *Graph) []Solution {
	if len(g.Edges) > 24 {
		panic("assignment: enumerateAll limited to 24 edges")
	}
	var out []Solution
	usedU := make([]bool, g.NU)
	usedV := make([]bool, g.NV)
	var cur []int
	var score float64
	var rec func(i int)
	rec = func(i int) {
		if i == len(g.Edges) {
			out = append(out, Solution{EdgeIDs: append([]int(nil), cur...), Score: score})
			return
		}
		rec(i + 1) // exclude edge i
		e := g.Edges[i]
		if !usedU[e.U] && !usedV[e.V] {
			usedU[e.U], usedV[e.V] = true, true
			cur = append(cur, i)
			score += e.W
			rec(i + 1)
			score -= e.W
			cur = cur[:len(cur)-1]
			usedU[e.U], usedV[e.V] = false, false
		}
	}
	rec(0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}
