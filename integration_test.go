// Integration tests exercising the full pipeline — dataset → possible
// mappings → block tree → PTQ — across every Table II dataset, plus
// persistence and cross-algorithm equivalence checks that tie the modules
// together the way cmd/experiments does.
package xmatch_test

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/mapgen"
	"xmatch/internal/store"
)

func TestPipelineAllDatasets(t *testing.T) {
	for _, id := range dataset.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			d, err := dataset.Load(id)
			if err != nil {
				t.Fatal(err)
			}
			set, err := mapgen.TopH(d.Matching, 50, mapgen.Partition)
			if err != nil {
				t.Fatal(err)
			}
			if set.Len() != 50 {
				t.Fatalf("generated %d mappings, want 50", set.Len())
			}
			var mass float64
			for _, m := range set.Mappings {
				mass += m.Prob
			}
			if math.Abs(mass-1) > 1e-9 {
				t.Fatalf("probability mass %v", mass)
			}
			bt, err := core.Build(set, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := bt.Validate(); err != nil {
				t.Fatal(err)
			}
			comp := bt.Compress()
			// Compression keeps every pair: a mapping's residual plus the
			// blocks it points into hold as many pairs as the mapping.
			for mi, m := range set.Mappings {
				cm := comp.Mappings[mi]
				got := len(cm.Residual)
				for _, b := range cm.BlockRefs {
					got += len(b.C)
				}
				if got != m.Len() {
					t.Fatalf("mapping %d: decompressed %d pairs, want %d", mi, got, m.Len())
				}
			}
		})
	}
}

func TestPipelineQueriesAgreeD7(t *testing.T) {
	d := dataset.MustLoad("D7")
	set, err := mapgen.TopH(d.Matching, 100, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	doc := d.OrderDocument(3473, 42)
	for _, tau := range []float64{0.05, 0.2, 0.6} {
		bt, err := core.Build(set, core.Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range dataset.Queries() {
			q, err := core.PrepareQuery(query.Text, set)
			if err != nil {
				t.Fatalf("%s: %v", query.ID, err)
			}
			basic := core.EvaluateBasic(q, set, doc)
			tree := core.Evaluate(q, set, doc, bt)
			if !resultsEqual(basic, tree) {
				t.Fatalf("tau=%v %s: basic and block-tree disagree", tau, query.ID)
			}
		}
	}
}

func resultsEqual(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(rs []core.Result) map[int][]string {
		out := map[int][]string{}
		for _, r := range rs {
			keys := make([]string, len(r.Matches))
			for i, m := range r.Matches {
				keys[i] = m.Key()
			}
			sort.Strings(keys)
			out[r.MappingIndex] = keys
		}
		return out
	}
	return reflect.DeepEqual(key(a), key(b))
}

func TestPipelinePersistenceRoundTrip(t *testing.T) {
	d := dataset.MustLoad("D6")
	set, err := mapgen.TopH(d.Matching, 30, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.SaveSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := store.LoadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The reloaded set must produce an identical block tree.
	bt1, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bt2, err := core.Build(back, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bt1.NumBlocks != bt2.NumBlocks {
		t.Fatalf("block counts differ after persistence: %d vs %d", bt1.NumBlocks, bt2.NumBlocks)
	}
	if err := bt2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineGeneratorsAgreeAllDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("murty on the large datasets is slow")
	}
	for _, id := range []string{"D1", "D2", "D3", "D4", "D5", "D6", "D8"} {
		d := dataset.MustLoad(id)
		a, err := mapgen.TopH(d.Matching, 20, mapgen.Murty)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mapgen.TopH(d.Matching, 20, mapgen.Partition)
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != b.Len() {
			t.Fatalf("%s: %d vs %d mappings", id, a.Len(), b.Len())
		}
		for i := range a.Mappings {
			if math.Abs(a.Mappings[i].Score-b.Mappings[i].Score) > 1e-9 {
				t.Fatalf("%s rank %d: scores differ", id, i)
			}
		}
	}
}
