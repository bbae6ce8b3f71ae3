package delta_test

// The differential suite behind the subsystem's core invariant: after any
// randomized edit sequence, the incrementally-maintained index must be
// indistinguishable from a full index.Build over the mutated document —
// same postings, same value keys, same order — and the document snapshot
// itself must be structurally identical to parsing its own serialization
// from scratch. Query-level differentials across every evaluation mode
// (basic/compact/top-k/aggregate, sequential and engine-parallel) ride on
// this in internal/engine's delta tests; here the comparison is at the
// postings level, which is what makes the ≥500-trial sweep affordable.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xmatch/internal/delta"
	"xmatch/internal/index"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

var diffLabels = []string{"a", "b", "c", "d", "e"}

// randomDoc builds a random labelled tree with sparse text.
func randomDoc(rng *rand.Rand, size int) *xmltree.Document {
	root := xmltree.NewRoot("r")
	nodes := []*xmltree.Node{root}
	for i := 1; i < size; i++ {
		p := nodes[rng.Intn(len(nodes))]
		c := p.AddChild(diffLabels[rng.Intn(len(diffLabels))])
		if rng.Intn(3) == 0 {
			c.Text = fmt.Sprintf("t%d", rng.Intn(4))
		}
		nodes = append(nodes, c)
	}
	return xmltree.New(root)
}

// randomEdit builds one applicable edit against the current snapshot.
func randomEdit(rng *rand.Rand, doc *xmltree.Document) delta.Edit {
	ns := doc.Nodes()
	n := ns[rng.Intn(len(ns))]
	switch rng.Intn(5) {
	case 0: // insert a leaf or a small subtree
		lab := diffLabels[rng.Intn(len(diffLabels))]
		payload := "<" + lab + ">t" + fmt.Sprint(rng.Intn(4)) + "</" + lab + ">"
		if rng.Intn(3) == 0 {
			inner := diffLabels[rng.Intn(len(diffLabels))]
			payload = "<" + lab + "><" + inner + ">u</" + inner + "><" + inner + "/></" + lab + ">"
		}
		return delta.Edit{Op: delta.OpInsert, Start: n.Start, Pos: rng.Intn(4) - 1, XML: payload}
	case 1: // delete (not the root)
		if n == doc.Root {
			return delta.Edit{Op: delta.OpSetText, Start: n.Start, Text: "rt"}
		}
		return delta.Edit{Op: delta.OpDelete, Start: n.Start}
	case 2:
		return delta.Edit{Op: delta.OpRename, Start: n.Start, Label: diffLabels[rng.Intn(len(diffLabels))]}
	case 3:
		return delta.Edit{Op: delta.OpSetText, Start: n.Start, Text: fmt.Sprintf("t%d", rng.Intn(4))}
	default: // clear text
		return delta.Edit{Op: delta.OpSetText, Start: n.Start, Text: ""}
	}
}

// checkAgainstRebuild asserts the incrementally-maintained index equals a
// from-scratch build over the same snapshot document.
func checkAgainstRebuild(t *testing.T, trial int, snap *delta.Snapshot) {
	t.Helper()
	want := index.Build(snap.Doc).Snapshot()
	got := snap.Index.Snapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trial %d epoch %d: incremental index diverged from rebuild\ngot  %+v\nwant %+v",
			trial, snap.Epoch, got, want)
	}
	st := snap.Index.Stats()
	fresh := index.Build(snap.Doc).Stats()
	// Spliced lists are compressed like built ones, so even the resident
	// footprint — kept incrementally, through merges and compactions —
	// agrees exactly; it can never exceed the flat layout's.
	if st.Postings != fresh.Postings || st.DistinctPaths != fresh.DistinctPaths ||
		st.ValueKeys != fresh.ValueKeys ||
		st.FlatBytes != fresh.FlatBytes || st.ResidentBytes != fresh.ResidentBytes {
		t.Fatalf("trial %d: incremental stats diverged: %+v vs %+v", trial, st, fresh)
	}
	if st.ResidentBytes <= 0 || st.ResidentBytes > st.FlatBytes {
		t.Fatalf("trial %d: incremental resident bytes %d out of range (flat %d)",
			trial, st.ResidentBytes, st.FlatBytes)
	}
}

// checkMatcher cross-checks the indexed holistic matcher against the
// joined evaluator over the mutated snapshot for a handful of random
// single- and two-node patterns.
func checkMatcher(t *testing.T, trial int, rng *rand.Rand, snap *delta.Snapshot) {
	t.Helper()
	paths := snap.Doc.Paths()
	if len(paths) == 0 {
		return
	}
	for i := 0; i < 3; i++ {
		pp := paths[rng.Intn(len(paths))]
		cp := paths[rng.Intn(len(paths))]
		pat, err := twig.Parse("p/c")
		if err != nil {
			t.Fatal(err)
		}
		binding := twig.PathBinding{}
		nodes := pat.Nodes()
		binding[nodes[0]] = pp
		binding[nodes[1]] = cp
		want := twig.MatchByPaths(snap.Doc, pat.Root, binding)
		got := snap.Index.MatchTwig(snap.Doc, pat.Root, binding)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MatchTwig diverged on %s//%s: %d vs %d matches",
				trial, pp, cp, len(got), len(want))
		}
	}
}

func TestRandomizedEditBatchesMatchRebuild(t *testing.T) {
	trials := 520
	if testing.Short() {
		trials = 60
	}
	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < trials; trial++ {
		doc := randomDoc(rng, 2+rng.Intn(40))
		h := delta.Open(doc)
		batches := 1 + rng.Intn(4)
		for b := 0; b < batches; b++ {
			cur := h.Snapshot()
			k := 1 + rng.Intn(6)
			edits := make([]delta.Edit, 0, k)
			// Resolve targets against the live snapshot; within a batch,
			// later edits may invalidate earlier targets, which Apply must
			// reject atomically — retry those trials with one edit.
			for i := 0; i < k; i++ {
				edits = append(edits, randomEdit(rng, cur.Doc))
			}
			snap, err := h.Apply(edits)
			if err != nil {
				snap, err = h.Apply([]delta.Edit{randomEdit(rng, cur.Doc)})
				if err != nil {
					continue
				}
			}
			checkAgainstRebuild(t, trial, snap)
			checkMatcher(t, trial, rng, snap)
		}
		// The final snapshot must round-trip through serialization into an
		// equivalent document (numbering aside).
		final := h.Snapshot()
		re, err := xmltree.ParseString(final.Doc.String())
		if err != nil {
			t.Fatalf("trial %d: reparse: %v", trial, err)
		}
		if re.String() != final.Doc.String() || re.Len() != final.Doc.Len() {
			t.Fatalf("trial %d: snapshot serialization diverged", trial)
		}
	}
}

// TestManyEpochsOneHandle drives one handle through hundreds of batches so
// the overlay chain merges and compacts repeatedly, and verifies old pinned
// snapshots survive their originals being superseded.
func TestManyEpochsOneHandle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	doc := randomDoc(rng, 30)
	h := delta.Open(doc)
	type pin struct {
		snap *delta.Snapshot
		xml  string
	}
	var pins []pin
	compactions, deepest := 0, 0
	for b := 0; b < 240; b++ {
		cur := h.Snapshot()
		if b%10 == 0 {
			pins = append(pins, pin{cur, cur.Doc.String()})
		}
		snap, err := h.Apply([]delta.Edit{randomEdit(rng, cur.Doc)})
		if err != nil {
			continue
		}
		// Check on either side of every compaction, and now and then between.
		depth := snap.Index.Stats().Overlays
		if depth == 0 {
			compactions++
		}
		if depth == 0 || cur.Index.Stats().Overlays == 0 || b%17 == 0 {
			checkAgainstRebuild(t, b, snap)
		}
		deepest = max(deepest, depth)
	}
	checkAgainstRebuild(t, -1, h.Snapshot())
	// Overlays merge by size, so the chain stays logarithmic in what it
	// holds: a handful deep here, never a count of writes.
	if compactions < 3 || deepest < 2 || deepest > 8 {
		t.Fatalf("%d compactions, deepest chain %d: want at least 3, and a chain 2 to 8 deep", compactions, deepest)
	}
	for i, p := range pins {
		if p.snap.Doc.String() != p.xml {
			t.Fatalf("pinned snapshot %d changed under later mutations", i)
		}
		if got := index.Build(p.snap.Doc).Snapshot(); !reflect.DeepEqual(p.snap.Index.Snapshot(), got) {
			t.Fatalf("pinned snapshot %d index no longer matches its document", i)
		}
	}
}
