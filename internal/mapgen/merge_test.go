package mapgen

import (
	"bytes"
	"container/heap"
	"hash/crc32"
	"math/rand"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/store"
)

// refHeap and refMergeTopH are Algorithm 5's merge as it stood before the
// typed heap: container/heap over interface{} values, a map of visited
// cells and one *partial per pop. Ties among equal scores are decided by
// the heap's swap sequence, and they decide mapping indexes, so the typed
// merge must walk the grid in exactly this order.
type refHeap []mergeState

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].score > h[j].score }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(mergeState)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func refMergeTopH(a, b []*partial, h int) []*partial {
	pq := &refHeap{{0, 0, a[0].score + b[0].score}}
	seen := map[[2]int]bool{{0, 0}: true}
	var out []*partial
	for pq.Len() > 0 && len(out) < h {
		s := heap.Pop(pq).(mergeState)
		out = append(out, &partial{score: s.score, corrs: b[s.j].corrs, prev: a[s.i]})
		if s.i+1 < len(a) && !seen[[2]int{s.i + 1, s.j}] {
			seen[[2]int{s.i + 1, s.j}] = true
			heap.Push(pq, mergeState{s.i + 1, s.j, a[s.i+1].score + b[s.j].score})
		}
		if s.j+1 < len(b) && !seen[[2]int{s.i, s.j + 1}] {
			seen[[2]int{s.i, s.j + 1}] = true
			heap.Push(pq, mergeState{s.i, s.j + 1, a[s.i].score + b[s.j+1].score})
		}
	}
	return out
}

// rankedList is a non-increasing list of n scores drawn from a few values,
// so that sums tie often; entry x carries corrs {base + x}.
func rankedList(rng *rand.Rand, n, base int) []partial {
	out := make([]partial, n)
	score := float64(rng.Intn(4))
	for x := range out {
		score -= float64(rng.Intn(2)) * 0.5
		out[x] = partial{score: score, corrs: []int{base + x}}
	}
	return out
}

// TestMergeMatchesContainerHeap: over random ranked lists with heavy score
// ties, the typed merge yields the reference's (score, i, j) sequence at
// every h, with one merger reused across every call as a fold reuses it.
func TestMergeMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var m merger
	for trial := 0; trial < 300; trial++ {
		a, b := rankedList(rng, 1+rng.Intn(25), 0), rankedList(rng, 1+rng.Intn(25), 1000)
		refA, refB := make([]*partial, len(a)), make([]*partial, len(b))
		for x := range a {
			refA[x] = &a[x]
		}
		for x := range b {
			refB[x] = &b[x]
		}
		for _, h := range []int{1, 2, 7, 30, len(a) * len(b), len(a)*len(b) + 3} {
			got, want := m.mergeTopH(a, b, h), refMergeTopH(refA, refB, h)
			if len(got) != len(want) {
				t.Fatalf("trial %d h=%d: %d combinations, reference %d", trial, h, len(got), len(want))
			}
			for x := range got {
				g, w := got[x], want[x]
				if g.score != w.score || g.prev != w.prev || g.corrs[0] != w.corrs[0] {
					t.Fatalf("trial %d h=%d rank %d: (%v, i=%d, j=%d), reference (%v, i=%d, j=%d)", trial, h, x,
						g.score, g.prev.corrs[0], g.corrs[0]-1000, w.score, w.prev.corrs[0], w.corrs[0]-1000)
				}
			}
		}
	}
}

// TestTopHSavedBytes pins the saved mapping sets of D1–D10 at h = 100, the
// bytes a catalog build serves from, as the container/heap merge wrote them.
func TestTopHSavedBytes(t *testing.T) {
	want := map[string]uint32{
		"D1": 0x81de6313, "D2": 0x22825790, "D3": 0x344a4233, "D4": 0x95a79a52, "D5": 0xc63c78c3,
		"D6": 0xac79381a, "D7": 0xb072df27, "D8": 0x4294637d, "D9": 0x1db1f695, "D10": 0xa3aed0ac,
	}
	for _, id := range dataset.IDs() {
		set, err := TopH(dataset.MustLoad(id).Matching, 100, Partition)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := store.SaveSet(&buf, set); err != nil {
			t.Fatal(err)
		}
		if got := crc32.ChecksumIEEE(buf.Bytes()); got != want[id] {
			t.Errorf("%s: saved set crc32 %08x, want %08x", id, got, want[id])
		}
	}
}
