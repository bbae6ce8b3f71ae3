package mapping

import (
	"math"
	"testing"

	"xmatch/internal/schema"
)

func flatSchema(t *testing.T, name string, n int) *schema.Schema {
	if t != nil {
		t.Helper()
	}
	b := schema.NewBuilder(name, "root")
	for i := 1; i < n; i++ {
		b.Root.AddChild("e" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('0'+i/10%10)))
	}
	return b.Freeze()
}

func TestNewSetValidation(t *testing.T) {
	src := flatSchema(t, "S", 5)
	tgt := flatSchema(t, "T", 5)
	cases := []struct {
		name  string
		pairs []Pair
	}{
		{"target out of range", []Pair{{S: 1, T: 9}}},
		{"source out of range", []Pair{{S: 9, T: 1}}},
		{"target matched twice", []Pair{{S: 1, T: 1}, {S: 2, T: 1}}},
		{"source matched twice", []Pair{{S: 1, T: 1}, {S: 1, T: 2}}},
	}
	for _, c := range cases {
		m := &Mapping{Pairs: c.pairs, Score: 1}
		if _, err := NewSet(src, tgt, []*Mapping{m}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSetProbabilities(t *testing.T) {
	src := flatSchema(t, "S", 5)
	tgt := flatSchema(t, "T", 5)
	set := MustNewSet(src, tgt, []*Mapping{
		{Pairs: []Pair{{S: 1, T: 1}}, Score: 3},
		{Pairs: []Pair{{S: 2, T: 1}}, Score: 1},
	})
	if math.Abs(set.Mappings[0].Prob-0.75) > 1e-12 || math.Abs(set.Mappings[1].Prob-0.25) > 1e-12 {
		t.Fatalf("probs = %v, %v", set.Mappings[0].Prob, set.Mappings[1].Prob)
	}
	if set.Mappings[0].Score < set.Mappings[1].Score {
		t.Fatal("mappings must be ordered by non-increasing score")
	}
}

func TestSourceForAndCovers(t *testing.T) {
	src := flatSchema(t, "S", 6)
	tgt := flatSchema(t, "T", 6)
	set := MustNewSet(src, tgt, []*Mapping{
		{Pairs: []Pair{{S: 2, T: 3}, {S: 1, T: 1}}, Score: 1},
	})
	m := set.Mappings[0]
	if s, ok := m.SourceFor(3); !ok || s != 2 {
		t.Fatalf("SourceFor(3) = %d, %v", s, ok)
	}
	if _, ok := m.SourceFor(2); ok {
		t.Fatal("SourceFor on unmapped target must report false")
	}
	if !m.Covers([]int{1, 3}) || m.Covers([]int{1, 2}) {
		t.Fatal("Covers wrong")
	}
	// Pairs must be sorted by target after freeze.
	if m.Pairs[0].T != 1 || m.Pairs[1].T != 3 {
		t.Fatalf("pairs not sorted: %v", m.Pairs)
	}
}

func TestORatio(t *testing.T) {
	a := &Mapping{Pairs: []Pair{{1, 1}, {2, 2}, {3, 3}}}
	b := &Mapping{Pairs: []Pair{{1, 1}, {2, 2}, {4, 3}}}
	// Intersection: (1,1),(2,2) = 2; union: 4.
	if got := ORatio(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ORatio = %v, want 0.5", got)
	}
	if got := ORatio(a, a); got != 1 {
		t.Fatalf("self o-ratio = %v", got)
	}
	empty := &Mapping{}
	if got := ORatio(empty, empty); got != 1 {
		t.Fatalf("empty o-ratio = %v", got)
	}
	if got := ORatio(a, empty); got != 0 {
		t.Fatalf("disjoint o-ratio = %v", got)
	}
}

func TestAverageORatio(t *testing.T) {
	src := flatSchema(t, "S", 6)
	tgt := flatSchema(t, "T", 6)
	set := MustNewSet(src, tgt, []*Mapping{
		{Pairs: []Pair{{S: 1, T: 1}, {S: 2, T: 2}}, Score: 1},
		{Pairs: []Pair{{S: 1, T: 1}, {S: 3, T: 2}}, Score: 1},
	})
	// o-ratio: inter 1, union 3 => 1/3.
	if got := set.AverageORatio(); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("avg o-ratio = %v", got)
	}
	single := MustNewSet(src, tgt, []*Mapping{{Score: 1}})
	if !math.IsNaN(single.AverageORatio()) {
		t.Fatal("single-mapping set should return NaN")
	}
}

func TestIDSetBasics(t *testing.T) {
	s := NewIDSet(130)
	if s.Len() != 0 || len(s.IDs()) != 0 {
		t.Fatal("fresh set not empty")
	}
	for _, id := range []int{0, 63, 64, 129} {
		s.Add(id)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	for _, id := range []int{0, 63, 64, 129} {
		if !s.Has(id) {
			t.Fatalf("missing %d", id)
		}
	}
	if s.Has(1) || s.Has(128) {
		t.Fatal("spurious members")
	}
	ids := s.IDs()
	want := []int{0, 63, 64, 129}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v", ids)
		}
	}
	if s.String() != "{0,63,64,129}" {
		t.Fatalf("String = %s", s.String())
	}
}

func TestIDSetOps(t *testing.T) {
	a := NewIDSet(100)
	b := NewIDSet(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i)
	}
	inter := a.Intersect(b)
	if inter.Len() != 17 { // multiples of 6 in [0,100): 0,6,...,96
		t.Fatalf("intersect len = %d", inter.Len())
	}
	// Intersect must not mutate its operands.
	if a.Len() != 50 || b.Len() != 34 {
		t.Fatal("operands mutated")
	}
	if a.Bytes() != 16 {
		t.Fatalf("bytes = %d", a.Bytes())
	}
}

// TestFullIDSetBoundary fills [0, n) at and around word boundaries: every
// member counts once and the footprint is one word per 64 slots.
func TestFullIDSetBoundary(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128} {
		f := NewIDSet(n)
		for id := 0; id < n; id++ {
			f.Add(id)
		}
		if f.Len() != n || len(f.IDs()) != n || f.Bytes() != 8*((n+63)/64) {
			t.Fatalf("full set over %d: len %d, %d IDs, %d bytes", n, f.Len(), len(f.IDs()), f.Bytes())
		}
	}
}

func TestRawBytesEmpty(t *testing.T) {
	src := flatSchema(t, "S", 3)
	tgt := flatSchema(t, "T", 3)
	set := MustNewSet(src, tgt, nil)
	if set.RawBytes() != 0 {
		t.Fatalf("raw bytes of empty set = %d", set.RawBytes())
	}
	if set.Len() != 0 {
		t.Fatal("len of empty set")
	}
}
