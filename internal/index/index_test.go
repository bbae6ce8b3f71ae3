package index_test

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"xmatch/internal/index"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// buildDoc is the small purchase-order document used across the unit
// tests: three line items, one with quantity 7.
func buildDoc() *xmltree.Document {
	root := xmltree.NewRoot("PO")
	for i, qty := range []string{"3", "7", "3"} {
		line := root.AddChild("Line")
		line.AddChild("Num").AddText([]string{"1", "2", "3"}[i])
		line.AddChild("Qty").AddText(qty)
	}
	return xmltree.New(root)
}

func TestBuildStats(t *testing.T) {
	doc := buildDoc()
	ix := index.Build(doc)
	st := ix.Stats()
	if st.Postings != doc.Len() {
		t.Errorf("postings = %d, want one per node = %d", st.Postings, doc.Len())
	}
	if st.DistinctPaths != 4 { // PO, PO.Line, PO.Line.Num, PO.Line.Qty
		t.Errorf("distinct paths = %d, want 4", st.DistinctPaths)
	}
	// Qty has texts {3, 7}; Num has {1, 2, 3}: 5 value keys.
	if st.ValueKeys != 5 {
		t.Errorf("value keys = %d, want 5", st.ValueKeys)
	}
	if st.ResidentBytes <= 0 {
		t.Errorf("resident bytes = %d, want positive", st.ResidentBytes)
	}
	if got := len(ix.Postings("PO.Line")); got != 3 {
		t.Errorf("PO.Line postings = %d, want 3", got)
	}
	if got := len(ix.ValuePostings("PO.Line.Qty", "3")); got != 2 {
		t.Errorf("value postings (Qty, 3) = %d, want 2", got)
	}
	if got := len(ix.ValuePostings("PO.Line.Qty", "99")); got != 0 {
		t.Errorf("value postings (Qty, 99) = %d, want 0", got)
	}
	for _, num := range []string{"1", "2", "3"} {
		if got := len(ix.ValuePostings("PO.Line.Num", num)); got != 1 {
			t.Errorf("value postings (Num, %s) = %d, want 1", num, got)
		}
	}
	// Postings are in document order with consistent region encodings.
	prev := int32(0)
	for _, p := range ix.Postings("PO.Line") {
		if p.Start <= prev {
			t.Fatalf("postings out of document order: start %d after %d", p.Start, prev)
		}
		if int(p.Start) != p.Node.Start || int(p.End) != p.Node.End || int(p.Level) != p.Node.Level {
			t.Fatalf("region encoding disagrees with node: %+v vs %+v", p, p.Node)
		}
		prev = p.Start
	}
}

func TestAttachForDetach(t *testing.T) {
	doc := buildDoc()
	if index.For(doc) != nil {
		t.Fatal("fresh document has an index attached")
	}
	ix := index.Attach(doc)
	if index.For(doc) != ix {
		t.Fatal("For does not return the attached index")
	}
	doc.SetAccel(nil)
	if index.For(doc) != nil {
		t.Fatal("clearing the accelerator slot left the index attached")
	}
}

func TestMatchTwigValuePredicateLookup(t *testing.T) {
	doc := buildDoc()
	ix := index.Build(doc)
	p := twig.MustParse(`Order/POLine[./LineNo="2"]/Quantity`)
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Num", n[3]: "PO.Line.Qty"}
	ms := ix.MatchTwig(doc, p.Root, paths)
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	if ms[0].Get(n[3]).Text != "7" {
		t.Fatalf("quantity = %q, want 7", ms[0].Get(n[3]).Text)
	}
	if got := twig.MatchByPaths(doc, p.Root, paths); !reflect.DeepEqual(got, ms) {
		t.Fatal("indexed and joined evaluation disagree")
	}
}

// TestMatchTwigEmptyValuePredicate is the regression test for the
// empty-string value predicate [.=""]: the value index holds only
// non-empty texts, so the matcher must fall back to filtering the path
// postings — the joined evaluator satisfies the predicate with text-less
// nodes, and the indexed path must agree.
func TestMatchTwigEmptyValuePredicate(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><b>x</b></a><a></a><a>t</a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	for _, pattern := range []string{`r/a[.=""]`, `r[.=""]/a[.=""]/b`} {
		p := twig.MustParse(pattern)
		binding := twig.PathBinding{}
		for _, n := range p.Nodes() {
			binding[n] = map[string]string{"r": "r", "a": "r.a", "b": "r.a.b"}[n.Label]
		}
		want := twig.MatchByPaths(doc, p.Root, binding)
		got := ix.MatchTwig(doc, p.Root, binding)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", pattern, keys(got), keys(want))
		}
		if len(want) == 0 {
			t.Errorf("%s: fixture matches nothing; regression test is vacuous", pattern)
		}
	}
}

func TestMatchTwigForeignDocumentFallsBack(t *testing.T) {
	ix := index.Build(buildDoc())
	other := buildDoc()
	p := twig.MustParse("Order/POLine")
	n := p.Nodes()
	paths := twig.PathBinding{n[0]: "PO", n[1]: "PO.Line"}
	got := ix.MatchTwig(other, p.Root, paths)
	want := twig.MatchByPaths(other, p.Root, paths)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("foreign-document evaluation diverged from MatchByPaths")
	}
	if len(got) == 0 || !slices.Contains(other.Root.Children, got[0].Get(n[1])) {
		t.Fatal("foreign-document matches bind the wrong document's nodes")
	}
}

// randomDoc builds a random labelled document with seeded texts; deeper and
// bushier than the twig package's, to exercise cursor advancement across
// many disjoint sibling intervals.
func randomDoc(rng *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c", "d"}
	texts := []string{"", "x", "y", "z"}
	root := xmltree.NewRoot("r")
	var grow func(n *xmltree.Node, depth int)
	grow = func(n *xmltree.Node, depth int) {
		if depth >= 5 {
			return
		}
		for i := 0; i < rng.Intn(5); i++ {
			c := n.AddChild(labels[rng.Intn(len(labels))])
			c.Text = texts[rng.Intn(len(texts))]
			grow(c, depth+1)
		}
	}
	grow(root, 0)
	return xmltree.New(root)
}

// randomPattern builds a pattern of up to six nodes whose binding paths are
// (mostly) nested document paths, with occasional value predicates and
// occasional deliberately-broken bindings (non-nesting or absent paths).
func randomPattern(rng *rand.Rand, doc *xmltree.Document) (*twig.Pattern, twig.PathBinding) {
	paths := doc.Paths()
	rootPath := paths[rng.Intn(len(paths))]
	root := &twig.Node{Label: "q0"}
	binding := twig.PathBinding{root: rootPath}
	nodes := []*twig.Node{root}
	nodePaths := []string{rootPath}
	for i := 0; i < rng.Intn(5); i++ {
		pi := rng.Intn(len(nodes))
		parentPath := nodePaths[pi]
		var cands []string
		for _, p := range paths {
			if len(p) > len(parentPath) && p[:len(parentPath)] == parentPath && p[len(parentPath)] == '.' {
				cands = append(cands, p)
			}
		}
		var cp string
		switch {
		case len(cands) > 0 && rng.Intn(8) != 0:
			cp = cands[rng.Intn(len(cands))]
		case rng.Intn(2) == 0:
			cp = paths[rng.Intn(len(paths))] // likely non-nesting
		default:
			cp = parentPath + ".nope" // absent
		}
		c := &twig.Node{Label: "q" + string(rune('1'+i))}
		if rng.Intn(4) == 0 {
			c.HasValue = true
			c.Value = []string{"x", "y", "w", ""}[rng.Intn(4)]
		}
		nodes[pi].Children = append(nodes[pi].Children, c)
		nodes = append(nodes, c)
		nodePaths = append(nodePaths, cp)
		binding[c] = cp
	}
	pat := &twig.Pattern{Root: root}
	reindex(pat)
	return pat, binding
}

// reindex assigns preorder indices the way twig.Parse would.
func reindex(p *twig.Pattern) {
	i := 0
	var walk func(n *twig.Node)
	walk = func(n *twig.Node) {
		n.Index = i
		i++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
}

// TestMatchTwigDifferentialRandom pins the ordering contract: across many
// random documents and patterns, MatchTwig's output must equal
// MatchByPaths' exactly — same matches, same order, same node pointers —
// and agree with the naive oracle as a set.
func TestMatchTwigDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	trials, nonEmpty := 0, 0
	for trials < 500 {
		doc := randomDoc(rng)
		if doc.Len() < 3 {
			continue
		}
		trials++
		ix := index.Build(doc)
		pat, binding := randomPattern(rng, doc)
		want := twig.MatchByPaths(doc, pat.Root, binding)
		got := ix.MatchTwig(doc, pat.Root, binding)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MatchTwig diverged from MatchByPaths\npattern %s\ngot  %d matches %v\nwant %d matches %v",
				trials, pat, len(got), keys(got), len(want), keys(want))
		}
		naive := twig.NaiveMatchByPaths(doc, pat.Root, binding)
		if !reflect.DeepEqual(sortedKeys(got), sortedKeys(naive)) {
			t.Fatalf("trial %d: MatchTwig diverged from the naive oracle", trials)
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 50 {
		t.Fatalf("only %d/%d trials had matches; generator too weak", nonEmpty, trials)
	}
}

func keys(ms []twig.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Key()
	}
	return out
}

func sortedKeys(ms []twig.Match) []string {
	out := keys(ms)
	sort.Strings(out)
	return out
}

// TestBuildLargeDocument verifies every postings list against a direct
// preorder grouping of the document's nodes — order, regions, levels,
// node pointers and coverage — on a document past the parallel build
// threshold and on one below it, which the serial pass builds.
func TestBuildLargeDocument(t *testing.T) {
	for _, size := range []int{5000, 1000} {
		rng := rand.New(rand.NewSource(11))
		root := xmltree.NewRoot("R")
		labels := []string{"A", "B", "C", "D"}
		nodes := []*xmltree.Node{root}
		for i := 0; i < size; i++ {
			p := nodes[rng.Intn(len(nodes))]
			c := p.AddChild(labels[rng.Intn(len(labels))])
			if rng.Intn(3) == 0 {
				c.AddText([]string{"x", "y", "Zed", "7"}[rng.Intn(4)])
			}
			nodes = append(nodes, c)
		}
		doc := xmltree.New(root)
		ix := index.Build(doc)

		want := map[string][]*xmltree.Node{}
		for _, n := range doc.Nodes() {
			want[n.Path] = append(want[n.Path], n)
		}
		if got := ix.Stats().Postings; got != doc.Len() {
			t.Fatalf("%d nodes: postings = %d, want %d", size, got, doc.Len())
		}
		if got := ix.Stats().DistinctPaths; got != len(want) {
			t.Fatalf("%d nodes: distinct paths = %d, want %d", size, got, len(want))
		}
		for p, ns := range want {
			ps := ix.Postings(p)
			if len(ps) != len(ns) {
				t.Fatalf("%d nodes, path %q: %d postings, want %d", size, p, len(ps), len(ns))
			}
			for i, n := range ns {
				if ps[i].Node != n || int(ps[i].Start) != n.Start || int(ps[i].End) != n.End || int(ps[i].Level) != n.Level {
					t.Fatalf("%d nodes, path %q: posting %d disagrees with preorder node", size, p, i)
				}
			}
		}
		// The compressed lists must beat plain []Posting on a document
		// with long same-path lists.
		if r := ix.Stats().CompressionRatio(); r > 0.6 {
			t.Errorf("%d nodes: compression ratio %.3f above the 0.6 budget", size, r)
		}
	}
}
