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
	r.addStreams([]int{1}, [][]twig.Match{nil, {}, nil})
	res := r.Finish()
	if len(res) != 1 || res[0].MappingIndex != 1 || len(res[0].Matches) != 0 {
		t.Fatalf("all-empty gather: %+v", res)
	}

	r = NewResultMerger(set)
	stream := []twig.Match{mk(qn, 16), mk(qn, 48)}
	r.addStreams([]int{2}, [][]twig.Match{nil, stream, nil})
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
	r.addStreams([]int{0}, [][]twig.Match{
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
	r.addStreams([]int{0}, [][]twig.Match{
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

// TestAddStreamsLazyDedupInteraction: a second Add (or addStreams) for the
// same mapping engages the lazy dedup against the gathered stream without
// mutating the shared first slice — the interaction a multi-embedding
// query over shards exercises.
func TestAddStreamsLazyDedupInteraction(t *testing.T) {
	set := mergerSet(t)
	qn := &twig.Node{Label: "a"}
	shard0 := []twig.Match{mk(qn, 16)}
	shard1 := []twig.Match{mk(qn, 160)}
	r := NewResultMerger(set)
	r.addStreams([]int{0}, [][]twig.Match{shard0, shard1})

	// Second embedding gathers an overlapping result set.
	r.addStreams([]int{0}, [][]twig.Match{{mk(qn, 16), mk(qn, 96)}, {mk(qn, 160)}})
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
	streams := make([][]twig.Match, 2) // caller-reused buffer, like addClasses'
	for _, class := range []struct {
		mis    []int
		s0, s1 []twig.Match
	}{
		{[]int{0, 2, 5}, a0, a1},
		{[]int{1, 4}, b0, b1},
		{[]int{3}, []twig.Match{mk(qn, 16), mk(qn, 32)}, a1}, // equal content, another class
	} {
		streams[0], streams[1] = class.s0, class.s1
		r.addStreams(class.mis, streams)
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

// keyMergeStreams is mergeStreams as it was written over Match.Key, kept
// as the reference the key-free gather is held to.
func keyMergeStreams(streams [][]twig.Match) []twig.Match {
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
	prevLast := ""
	for _, s := range streams {
		if len(s) == 0 {
			continue
		}
		total += len(s)
		if ordered {
			if prevLast != "" && s[0].Key() <= prevLast {
				ordered = false
			} else {
				prevLast = s[len(s)-1].Key()
			}
		}
	}
	merged := make([]twig.Match, 0, total)
	if ordered {
		for _, s := range streams {
			merged = append(merged, s...)
		}
		return merged
	}
	idx := make([]int, len(streams))
	keys := make([]string, len(streams))
	for i, s := range streams {
		if len(s) > 0 {
			keys[i] = s[0].Key()
		}
	}
	lastKey, first := "", true
	for {
		best := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			if best < 0 || keys[i] < keys[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		m, k := streams[best][idx[best]], keys[best]
		idx[best]++
		if idx[best] < len(streams[best]) {
			keys[best] = streams[best][idx[best]].Key()
		}
		if first || k != lastKey {
			merged = append(merged, m)
			lastKey, first = k, false
		}
	}
	return merged
}

// TestMergeStreamsMatchesKeyReference: on random streams of two-binding
// matches — disjoint ascending ranges, the shard layout that concatenates,
// and overlapping ones with duplicates across streams, which interleave —
// the key-free gather returns exactly the reference's matches, the same
// copies in the same order.
func TestMergeStreamsMatchesKeyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q0, q1 := &twig.Node{Index: 0}, &twig.Node{Index: 1}
	concats, interleaves := 0, 0
	for trial := 0; trial < 2000; trial++ {
		// A key-ordered pool of distinct matches; starts share prefixes.
		var pool []twig.Match
		for s := 0; len(pool) < 40; s += 16 * (1 + rng.Intn(2)) {
			for c := 0; c < rng.Intn(3); c++ {
				pool = append(pool, twig.Match{{Q: q0, D: &xmltree.Node{Start: s}}, {Q: q1, D: &xmltree.Node{Start: s + 1 + c}}})
			}
		}
		streams := make([][]twig.Match, 1+rng.Intn(5))
		if trial%2 == 0 {
			// Disjoint ascending ranges, some empty.
			cut := 0
			for i := range streams {
				next := cut + rng.Intn(len(pool)-cut+1)
				if i == len(streams)-1 {
					next = len(pool)
				}
				streams[i] = pool[cut:next]
				cut = next
			}
		} else {
			// Random key-ordered subsets: duplicates across streams.
			for i := range streams {
				for _, m := range pool {
					if rng.Intn(3) == 0 {
						streams[i] = append(streams[i], append(twig.Match(nil), m...))
					}
				}
			}
		}
		got, want := mergeStreams(streams), keyMergeStreams(streams)
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("trial %d: %d matches (nil %v), reference %d (nil %v)", trial, len(got), got == nil, len(want), want == nil)
		}
		for i := range got {
			if &got[i][0] != &want[i][0] {
				t.Fatalf("trial %d: match %d is another copy than the reference's", trial, i)
			}
		}
		if trial%2 == 0 {
			concats++
		} else if len(got) > 0 {
			interleaves++
		}
	}
	if concats == 0 || interleaves == 0 {
		t.Fatal("fixtures too weak")
	}
}

// TestUnitOutputsAreScratch: the unit-output arrays a merger hands to
// EmbeddingPlan.Run are cleared by addClasses once gathered, and by Finish
// when an evaluation stopped before gathering, so a pooled merger pins no
// match slice and no member document.
func TestUnitOutputsAreScratch(t *testing.T) {
	set := mergerSet(t)
	ep := &EmbeddingPlan{leaves: make([]leafUnit, 3)}
	ms := []twig.Match{mk(&twig.Node{}, 16)}
	pinned := func(r *ResultMerger) bool {
		for _, out := range r.units[:cap(r.units)] {
			for _, m := range out[:cap(out)] {
				if m != nil {
					return true
				}
			}
		}
		for _, s := range r.streams[:cap(r.streams)] {
			if s != nil {
				return true
			}
		}
		for _, d := range r.docs[:cap(r.docs)] {
			if d != nil {
				return true
			}
		}
		return false
	}
	for _, gather := range []bool{true, false} {
		r := NewResultMerger(set)
		r.unitOutputs(ep, 4)
		outs := r.units
		if len(outs) != 4 || len(outs[3]) != 3 || pinned(r) {
			t.Fatalf("unitOutputs: %d arrays of %d slots, pinned %v", len(outs), len(outs[3]), pinned(r))
		}
		for _, out := range outs {
			for u := range out {
				out[u] = ms
			}
		}
		if gather {
			r.addClasses(ep, 0)
			if pinned(r) {
				t.Fatal("addClasses left unit outputs behind")
			}
		}
		r.docs = append(r.docs[:0], &xmltree.Document{})
		r.Finish()
		if pinned(r) {
			t.Fatalf("a finished merger pins match slices (gathered: %v)", gather)
		}
	}
}
