package index_test

// The PR's differential guarantee at the evaluation layer: for every
// Table III query × dataset × mode (basic / compact / top-k), evaluating
// with the positional index attached returns results byte-identical —
// compared through the JSON wire encoding, the same notion the serving
// tests use — to the unindexed joined evaluation. Aggregated answers are
// compared too, so the guarantee covers the aggregate path.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/xmltree"
)

type diffFixture struct {
	name    string
	set     *mapping.Set
	doc     *xmltree.Document
	tree    *core.BlockTree
	queries []string
}

func loadFixture(t *testing.T, id string, mappings, docNodes int, queries []string) diffFixture {
	t.Helper()
	d, err := dataset.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	set, err := mapgen.TopH(d.Matching, mappings, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	doc := d.OrderDocument(docNodes, 42)
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) == 0 {
		// Leaf-path spine queries for datasets Table III does not target.
		for _, e := range set.Target.Elements() {
			if !e.IsLeaf() {
				continue
			}
			pattern := strings.ReplaceAll(e.Path, ".", "/")
			if _, err := core.PrepareQuery(pattern, set); err == nil {
				queries = append(queries, pattern)
				if len(queries) == 4 {
					break
				}
			}
		}
	}
	return diffFixture{name: id, set: set, doc: doc, tree: bt, queries: queries}
}

func wireBytes(t *testing.T, q *core.Query, results []core.Result) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Results []core.WireResult
		Answers []core.WireAnswer
	}{core.ToWire(results), core.AnswersToWire(core.AggregateLeaf(q, results))})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestIndexedEvaluationDifferential(t *testing.T) {
	var tableIII []string
	for _, q := range dataset.Queries() {
		tableIII = append(tableIII, q.Text)
	}
	fixtures := []diffFixture{
		loadFixture(t, "D7", 50, 1800, tableIII),
		loadFixture(t, "D1", 16, 600, nil),
	}
	modes := []struct {
		mode string
		k    int
	}{
		{"basic", 0}, {"compact", 0}, {"topk", 1}, {"topk", 5}, {"topk", 1000},
	}
	for _, f := range fixtures {
		for _, pattern := range f.queries {
			q, err := core.PrepareQuery(pattern, f.set)
			if err != nil {
				t.Fatalf("%s %q: %v", f.name, pattern, err)
			}
			for _, mk := range modes {
				evaluate := func() []core.Result {
					switch mk.mode {
					case "basic":
						return core.EvaluateBasic(q, f.set, f.doc)
					case "compact":
						return core.Evaluate(q, f.set, f.doc, f.tree)
					default:
						return core.EvaluateTopK(q, f.set, f.doc, f.tree, mk.k)
					}
				}
				f.doc.SetAccel(nil)
				want := wireBytes(t, q, evaluate())
				index.Attach(f.doc)
				got := wireBytes(t, q, evaluate())
				f.doc.SetAccel(nil)
				if !bytes.Equal(got, want) {
					t.Errorf("%s %q %s/k=%d: indexed evaluation diverged from unindexed\ngot  %s\nwant %s",
						f.name, pattern, mk.mode, mk.k, got, want)
				}
			}
		}
	}
}
