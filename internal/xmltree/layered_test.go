package xmltree

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// text is a test value: the empty text deletes its key.
type text string

func (t text) Len() int { return len(t) }

// TestLayeredAgainstFlatMap drives pairs of Layered maps — settled
// together, as an index settles its path and value postings — through
// random writes and checks the chain's three properties after every one:
// lookups and the sorted entries equal a flat map's; the overlays number
// at most log2 of their entries plus one, since sizes more than double
// down the chain; and between two folds the absorbs copy no entry more
// than a logarithm's worth of times on average.
func TestLayeredAgainstFlatMap(t *testing.T) {
	for _, c := range []struct{ fraction, floor, bottom, universe, maxWrite int }{
		{4, 0, 500, 800, 4},    // the path index's rule
		{4, 64, 2000, 3000, 9}, // the postings' rule
		{4, 64, 50, 60, 30},    // writes large against the map: frequent folds
		{2, 0, 3000, 3100, 1},  // single-entry writes: the deepest chains
	} {
		t.Run(fmt.Sprintf("fraction=%d/floor=%d/bottom=%d", c.fraction, c.floor, c.bottom), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.bottom)))
			var ms [2]Layered[int, text]
			var flats [2]map[int]text
			for i := range ms {
				flats[i] = map[int]text{}
				for k := 0; k < c.bottom; k++ {
					flats[i][k] = text(fmt.Sprint("b", k))
				}
				ms[i] = NewLayered(maps.Clone(flats[i]), cmp.Compare[int])
			}
			folds, deepest := 0, 0
			pushed, copies := 0, 0
			for step := 0; step < 2000; step++ {
				for i := range ms {
					top := randomWrite(rng, i, step, c.universe, c.maxWrite)
					for _, e := range top {
						if e.Val == "" {
							delete(flats[i], e.Key)
						} else {
							flats[i][e.Key] = e.Val
						}
					}
					pushed += len(top)
					ms[i] = ms[i].With(top)
				}
				var before []int
				for j := 0; j < ms[0].depth(); j++ {
					before = append(before, ms[0].size(j)+ms[1].size(j))
				}
				depth := Settle(c.fraction, c.floor, &ms[0], &ms[1])
				if depth != ms[0].depth() || depth != ms[1].depth() {
					t.Fatalf("step %d: Settle says %d overlays, the maps hold %d and %d", step, depth, ms[0].depth(), ms[1].depth())
				}
				if depth == 0 {
					folds++
					pushed, copies = 0, 0
				} else if k := len(before) - depth + 1; k > 1 {
					for _, n := range before[:k] {
						copies += n
					}
				}
				deepest = max(deepest, depth)

				entries := 0
				for j := 0; j < depth; j++ {
					entries += ms[0].size(j) + ms[1].size(j)
				}
				if depth > 0 && float64(depth) >= math.Log2(float64(entries))+1 {
					t.Fatalf("step %d: %d overlays over %d entries", step, depth, entries)
				}
				if bound := float64(pushed) * (math.Log2(float64(pushed)) + 2); float64(copies) > bound {
					t.Fatalf("step %d: %d entries copied for %d written since the last fold (bound %.0f)", step, copies, pushed, bound)
				}
				for i := range ms {
					full := step%97 == 0 || depth == 0
					for j := 0; j < c.universe && (full || j < 64); j++ {
						k := j
						if !full {
							k = rng.Intn(c.universe)
						}
						if got, want := ms[i].Get(k), flats[i][k]; got != want {
							t.Fatalf("step %d map %d: Get(%d) = %q, want %q", step, i, k, got, want)
						}
					}
					if full {
						checkSorted(t, &ms[i], flats[i])
					}
				}
			}
			if folds == 0 || deepest < 2 {
				t.Fatalf("%d folds, deepest chain %d: the run never exercised the rules", folds, deepest)
			}
		})
	}
}

// randomWrite returns one write's overlay: 1..maxWrite distinct keys of
// the universe, sorted, each set to a fresh value or, one time in five,
// deleted.
func randomWrite(rng *rand.Rand, m, step, universe, maxWrite int) []Entry[int, text] {
	keys := map[int]bool{}
	for n := 1 + rng.Intn(maxWrite); len(keys) < n; {
		keys[rng.Intn(universe)] = true
	}
	var top []Entry[int, text]
	for _, k := range slices.Sorted(maps.Keys(keys)) {
		v := text(fmt.Sprint(m, "/", step, "/", k))
		if rng.Intn(5) == 0 {
			v = ""
		}
		top = append(top, Entry[int, text]{k, v})
	}
	return top
}

func checkSorted(t *testing.T, m *Layered[int, text], flat map[int]text) {
	t.Helper()
	got := m.Sorted()
	keys := slices.Sorted(maps.Keys(flat))
	if len(got) != len(keys) {
		t.Fatalf("Sorted holds %d entries, want %d", len(got), len(keys))
	}
	for i, k := range keys {
		if got[i].Key != k || got[i].Val != flat[k] {
			t.Fatalf("Sorted()[%d] = %v, want {%d %q}", i, got[i], k, flat[k])
		}
	}
	if ks := m.Keys(); !slices.Equal(ks, keys) {
		t.Fatalf("Keys() = %v, want %v", ks, keys)
	}
}
