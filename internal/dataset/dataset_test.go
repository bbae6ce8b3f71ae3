package dataset

import (
	"sync"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/mapgen"
	"xmatch/internal/twig"
)

func TestSchemasMatchTableIISizes(t *testing.T) {
	for name, entry := range schemaSpecs {
		b, err := getSchema(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := b.schema.Len(); got != entry.size {
			t.Errorf("schema %s has %d elements, want %d", name, got, entry.size)
		}
	}
}

func TestLoadAllDatasets(t *testing.T) {
	ds, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 10 {
		t.Fatalf("loaded %d datasets, want 10", len(ds))
	}
	for _, d := range ds {
		if got := d.Matching.Capacity(); got != d.Info.Cap {
			t.Errorf("%s: capacity %d, want %d", d.Info.ID, got, d.Info.Cap)
		}
		if d.Source.Name != d.Info.Src || d.Target.Name != d.Info.Tgt {
			t.Errorf("%s: schema names %s->%s, want %s->%s",
				d.Info.ID, d.Source.Name, d.Target.Name, d.Info.Src, d.Info.Tgt)
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("D11"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestLoadDeterministic(t *testing.T) {
	a := MustLoad("D3")
	b := MustLoad("D3")
	if a.Matching.Capacity() != b.Matching.Capacity() {
		t.Fatal("capacities differ across loads")
	}
	for i := range a.Matching.Corrs {
		if a.Matching.Corrs[i] != b.Matching.Corrs[i] {
			t.Fatalf("correspondence %d differs across loads", i)
		}
	}
}

func TestMatchingsAreSparse(t *testing.T) {
	for _, d := range mustAll(t) {
		st := d.Matching.Stats()
		if st.NumPartitions < 5 {
			t.Errorf("%s: only %d partitions; the paper's divide-and-conquer relies on sparsity",
				d.Info.ID, st.NumPartitions)
		}
		if st.MaxPartition > d.Matching.Capacity() {
			t.Errorf("%s: impossible partition size %d", d.Info.ID, st.MaxPartition)
		}
	}
}

func mustAll(t *testing.T) []*Dataset {
	t.Helper()
	ds, err := All()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTopHMappingsGenerate(t *testing.T) {
	for _, id := range []string{"D1", "D5", "D7"} {
		d := MustLoad(id)
		set, err := mapgen.TopH(d.Matching, 100, mapgen.Partition)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if set.Len() != 100 {
			t.Errorf("%s: generated %d mappings, want 100 (needs enough ambiguity)", id, set.Len())
		}
		or := set.AverageORatio()
		if or < 0.3 || or > 1 {
			t.Errorf("%s: o-ratio %v outside plausible range", id, or)
		}
	}
}

func TestQueriesResolveOnD7Target(t *testing.T) {
	d := MustLoad("D7")
	for _, q := range Queries() {
		p, err := twig.Parse(q.Text)
		if err != nil {
			t.Errorf("%s: parse: %v", q.ID, err)
			continue
		}
		if embs := twig.Resolve(p, d.Target); len(embs) == 0 {
			t.Errorf("%s: %q does not resolve in %s", q.ID, q.Text, d.Target.Name)
		}
	}
}

func TestOrderDocumentSize(t *testing.T) {
	d := MustLoad("D7")
	doc := d.OrderDocument(3473, 42)
	n := doc.Len()
	if n < 3473*8/10 || n > 3473*13/10 {
		t.Fatalf("document has %d nodes, want roughly 3473", n)
	}
	if doc.Root.Label != d.Source.Root.Name {
		t.Fatalf("document root %q, want %q", doc.Root.Label, d.Source.Root.Name)
	}
}

func TestOrderDocumentConformsToSourceSchema(t *testing.T) {
	d := MustLoad("D7")
	doc := d.OrderDocument(3473, 42)
	for _, p := range doc.Paths() {
		if d.Source.ByPath(p) == nil {
			t.Fatalf("document path %q not in source schema", p)
		}
	}
}

func TestQueriesHaveAnswers(t *testing.T) {
	// End-to-end: the Table III queries must return non-empty matches for
	// at least some mappings on the D7 pipeline, otherwise the query
	// benchmarks would measure empty work.
	d := MustLoad("D7")
	set, err := mapgen.TopH(d.Matching, 100, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	doc := d.OrderDocument(3473, 42)
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		pq, err := core.PrepareQuery(q.Text, set)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		results := core.Evaluate(pq, set, doc, bt)
		if len(results) == 0 {
			t.Errorf("%s: no relevant mappings", q.ID)
			continue
		}
		nonEmpty := 0
		for _, r := range results {
			if len(r.Matches) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 0 {
			t.Errorf("%s: all %d relevant mappings produced empty matches", q.ID, len(results))
		}
	}
}

// TestConcurrentLoad: datasets loaded side by side build and share their
// schemas without a race (run under -race) and get the same schema
// object for a shared name.
func TestConcurrentLoad(t *testing.T) {
	ids := []string{"D1", "D2", "D3", "D4"}
	got := make([]*Dataset, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Load(id)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	for i, d := range got {
		for j := range i {
			if e := got[j]; e.Info.Src == d.Info.Src && e.Source != d.Source {
				t.Errorf("%s and %s built schema %s twice", ids[j], ids[i], d.Info.Src)
			}
		}
	}
}
