package core

import (
	"math/rand"
	"reflect"
	"testing"

	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// mergerSet builds a small real mapping set so Finish can resolve
// probabilities.
func mergerSet(t *testing.T) *mapping.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	src := randomSchema(rng, "S", 12)
	tgt := randomSchema(rng, "T", 10)
	set, err := mapgen.TopH(randomMatching(rng, src, tgt, 0.9), 6, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// mk builds a single-binding match of qn against a node with the given
// start number — enough structure for Match.Key to order and compare.
func mk(qn *twig.Node, start int) twig.Match {
	return twig.Match{{Q: qn, D: &xmltree.Node{Start: start}}}
}

func starts(ms []twig.Match, qn *twig.Node) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Get(qn).Start
	}
	return out
}

// TestAddStreamsEmptyShards: a gather where every shard came back empty
// must still register the mapping — a relevant mapping with no matches is
// part of the answer (Definition 4) — and empty shards interspersed with a
// single productive one must hand that shard's slice through untouched.
func TestAddStreamsEmptyShards(t *testing.T) {
	set := mergerSet(t)
	qn := &twig.Node{Label: "a"}

	r := NewResultMerger(set)
	r.AddStreams([]int{1}, [][]twig.Match{nil, {}, nil})
	res := r.Finish()
	if len(res) != 1 || res[0].MappingIndex != 1 || len(res[0].Matches) != 0 {
		t.Fatalf("all-empty gather: %+v", res)
	}

	r = NewResultMerger(set)
	stream := []twig.Match{mk(qn, 16), mk(qn, 48)}
	r.AddStreams([]int{2}, [][]twig.Match{nil, stream, nil})
	res = r.Finish()
	if len(res) != 1 || &res[0].Matches[0] != &stream[0] {
		t.Fatal("single productive shard not passed through as-is")
	}
	// Like a first Add, the single-stream path must not build the dedup
	// set — single-embedding queries never key a match.
	if len(r.seen) != 0 {
		t.Fatal("single-stream gather built the dedup set")
	}
}

// TestAddStreamsDisjointConcat: shard streams with disjoint ascending key
// ranges — the collection layout — merge to their plain concatenation.
func TestAddStreamsDisjointConcat(t *testing.T) {
	set := mergerSet(t)
	qn := &twig.Node{Label: "a"}
	r := NewResultMerger(set)
	r.AddStreams([]int{0}, [][]twig.Match{
		{mk(qn, 16), mk(qn, 32)},
		{mk(qn, 160), mk(qn, 176)},
		{mk(qn, 320)},
	})
	got := starts(r.Finish()[0].Matches, qn)
	if !reflect.DeepEqual(got, []int{16, 32, 160, 176, 320}) {
		t.Fatalf("concat order: %v", got)
	}
}

// TestAddStreamsInterleaveDedup: overlapping streams interleave into key
// order, and a key appearing in two streams survives exactly once — the
// earliest stream's copy.
func TestAddStreamsInterleaveDedup(t *testing.T) {
	set := mergerSet(t)
	qn := &twig.Node{Label: "a"}
	dup0, dup1 := mk(qn, 48), mk(qn, 48)
	r := NewResultMerger(set)
	r.AddStreams([]int{0}, [][]twig.Match{
		{mk(qn, 16), dup0, mk(qn, 80)},
		{mk(qn, 32), dup1, mk(qn, 64)},
	})
	ms := r.Finish()[0].Matches
	got := starts(ms, qn)
	if !reflect.DeepEqual(got, []int{16, 32, 48, 64, 80}) {
		t.Fatalf("interleave order: %v", got)
	}
	if ms[2].Get(qn) != dup0.Get(qn) {
		t.Fatal("duplicate key kept the later stream's copy")
	}
}

// TestAddStreamsLazyDedupInteraction: a second Add (or AddStreams) for the
// same mapping engages the lazy dedup against the gathered stream without
// mutating the shared first slice — the interaction a multi-embedding
// query over shards exercises.
func TestAddStreamsLazyDedupInteraction(t *testing.T) {
	set := mergerSet(t)
	qn := &twig.Node{Label: "a"}
	shard0 := []twig.Match{mk(qn, 16)}
	shard1 := []twig.Match{mk(qn, 160)}
	r := NewResultMerger(set)
	r.AddStreams([]int{0}, [][]twig.Match{shard0, shard1})

	// Second embedding gathers an overlapping result set.
	r.AddStreams([]int{0}, [][]twig.Match{{mk(qn, 16), mk(qn, 96)}, {mk(qn, 160)}})
	got := starts(r.Finish()[0].Matches, qn)
	if !reflect.DeepEqual(got, []int{16, 160, 96}) {
		t.Fatalf("dedup across gathers: %v", got)
	}
	// The first gather's shard slices are never written through.
	if len(shard0) != 1 || shard0[0].Get(qn).Start != 16 || len(shard1) != 1 {
		t.Fatal("shared shard stream mutated by later Add")
	}
}

// TestAddStreamsClassSharesOneSlice: a result class gathered across shards
// is merged once, and every mapping of the class — however many, however
// far apart their indices — carries that one slice with one identity (the
// renderer and AggregateByNode render and aggregate each distinct slice
// once). Another class's gather, even of content-equal streams, is its own
// slice.
func TestAddStreamsClassSharesOneSlice(t *testing.T) {
	set := mergerSet(t)
	qn := &twig.Node{Label: "a"}
	a0, a1 := []twig.Match{mk(qn, 16), mk(qn, 32)}, []twig.Match{mk(qn, 160)}
	b0, b1 := []twig.Match{mk(qn, 48)}, []twig.Match{mk(qn, 176), mk(qn, 192)}

	r := NewResultMerger(set)
	streams := make([][]twig.Match, 2) // caller-reused buffer, like AddClasses'
	for _, class := range []struct {
		mis    []int
		s0, s1 []twig.Match
	}{
		{[]int{0, 2, 5}, a0, a1},
		{[]int{1, 4}, b0, b1},
		{[]int{3}, []twig.Match{mk(qn, 16), mk(qn, 32)}, a1}, // equal content, another class
	} {
		streams[0], streams[1] = class.s0, class.s1
		r.AddStreams(class.mis, streams)
	}
	res := r.Finish()
	if len(res) != 6 {
		t.Fatalf("%d results, want 6", len(res))
	}
	same := func(i, j int) bool {
		return &res[i].Matches[0] == &res[j].Matches[0] && len(res[i].Matches) == len(res[j].Matches)
	}
	if !same(0, 2) || !same(0, 5) || !same(1, 4) {
		t.Fatal("mappings of one class do not share one merged slice")
	}
	if same(0, 1) || same(0, 3) {
		t.Fatal("different classes share a merged slice")
	}
	for i, want := range [][]int{{16, 32, 160}, {48, 176, 192}, {16, 32, 160}, {16, 32, 160}, {48, 176, 192}, {16, 32, 160}} {
		if got := starts(res[i].Matches, qn); !reflect.DeepEqual(got, want) {
			t.Fatalf("mapping %d merged to %v, want %v", i, got, want)
		}
	}
}

// TestMergerTablesReused: Finish hands a merger's tables to the next
// evaluation, whatever the size of its mapping set. Nothing of a finished
// answer — a registered mapping, a match slice, a dedup set — may show in
// a later one.
func TestMergerTablesReused(t *testing.T) {
	small := mergerSet(t)
	rng := rand.New(rand.NewSource(9))
	big, err := mapgen.TopH(randomMatching(rng, randomSchema(rng, "S", 14), randomSchema(rng, "T", 12), 0.9), 40, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	if big.Len() <= small.Len() {
		t.Fatalf("fixture: big set has %d mappings, small %d", big.Len(), small.Len())
	}
	qn := &twig.Node{Label: "a"}
	for round := 0; round < 4; round++ {
		for _, set := range []*mapping.Set{big, small, big} {
			r := NewResultMerger(set)
			if res := r.Finish(); len(res) != 0 {
				t.Fatalf("round %d: an untouched merger over %d mappings finished with %d results", round, set.Len(), len(res))
			}
			r = NewResultMerger(set)
			for mi := 0; mi < set.Len(); mi += 2 {
				r.Add(mi, []twig.Match{mk(qn, 16*(mi+1))})
				r.Add(mi, []twig.Match{mk(qn, 16*(mi+1)), mk(qn, 16*(mi+1)+8)}) // second Add: dedup set
			}
			res := r.Finish()
			if want := (set.Len() + 1) / 2; len(res) != want {
				t.Fatalf("round %d: %d results over %d mappings, want %d", round, len(res), set.Len(), want)
			}
			for i, rr := range res {
				if rr.MappingIndex != 2*i || !reflect.DeepEqual(starts(rr.Matches, qn), []int{16 * (2*i + 1), 16*(2*i+1) + 8}) {
					t.Fatalf("round %d: result %d is mapping %d with starts %v", round, i, rr.MappingIndex, starts(rr.Matches, qn))
				}
			}
		}
	}
}
