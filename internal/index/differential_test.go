package index_test

// The index's differential guarantee at the evaluation layer: for every
// query × dataset × mode (basic / compact / top-k), evaluating with the
// positional index attached returns results byte-identical — compared
// through the JSON wire encoding, the same notion the serving tests use —
// to the oracle's (internal/oracle: Algorithm 3 over an unindexed copy of
// the document). Aggregated answers are compared too, so the guarantee
// covers the aggregate path.

import (
	"bytes"
	"encoding/json"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/oracle"
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
	return diffFixture{name: id, set: set, doc: doc, tree: bt, queries: queries}
}

func wireBytes(results []core.WireResult, answers []core.WireAnswer) []byte {
	data, err := json.Marshal(struct {
		Results []core.WireResult
		Answers []core.WireAnswer
	}{results, answers})
	if err != nil {
		panic(err)
	}
	return data
}

func TestIndexedEvaluationDifferential(t *testing.T) {
	var tableIII []string
	for _, q := range dataset.Queries() {
		tableIII = append(tableIII, q.Text)
	}
	// D1's target leaves outside Auftrag/Position have no relevant
	// mapping among the sixteen; these have matches.
	d1 := []string{"Auftrag/Position/PositionsNummer", "Auftrag/Position/ArtikelNummer", "Auftrag/Position/Menge", "Auftrag/Position/Einheit"}
	fixtures := []diffFixture{
		loadFixture(t, "D7", 50, 1800, tableIII),
		loadFixture(t, "D1", 16, 600, d1),
	}
	modes := []struct {
		mode string
		k    int
	}{
		{"basic", 0}, {"compact", 0}, {"topk", 1}, {"topk", 5}, {"topk", 1000},
	}
	for _, f := range fixtures {
		o := oracle.New(t)
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
				k := mk.k
				if mk.mode != "topk" {
					k = 0
				}
				want := wireBytes(o.Wire(f.set, pattern, k, f.doc))
				index.Attach(f.doc)
				rs := evaluate()
				got := wireBytes(core.ToWire(rs), core.AnswersToWire(core.AggregateLeaf(q, rs)))
				f.doc.SetAccel(nil)
				if !bytes.Equal(got, want) {
					t.Errorf("%s %q %s/k=%d: indexed evaluation diverged from the oracle\ngot  %s\nwant %s",
						f.name, pattern, mk.mode, mk.k, got, want)
				}
			}
		}
	}
}
