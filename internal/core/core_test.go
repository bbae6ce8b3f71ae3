package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/matching"
	"xmatch/internal/schema"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// randomSchema builds a random tree-shaped schema with roughly size
// elements and unique per-level child names.
func randomSchema(rng *rand.Rand, name string, size int) *schema.Schema {
	b := schema.NewBuilder(name, name+"Root")
	elems := []*schema.Element{b.Root}
	count := 1
	for count < size {
		parent := elems[rng.Intn(len(elems))]
		if parent.Level >= 5 {
			continue
		}
		child := parent.AddChild(fmt.Sprintf("%s_e%d", name, count))
		elems = append(elems, child)
		count++
	}
	return b.Freeze()
}

// randomMatching creates a random sparse matching between two schemas with
// deliberate ambiguity (several source candidates per target element).
func randomMatching(rng *rand.Rand, src, tgt *schema.Schema, density float64) *matching.Matching {
	seen := map[[2]int]bool{}
	var corrs []matching.Correspondence
	for t := 0; t < tgt.Len(); t++ {
		if rng.Float64() > density {
			continue
		}
		nCand := 1 + rng.Intn(3)
		for c := 0; c < nCand; c++ {
			s := rng.Intn(src.Len())
			if seen[[2]int{s, t}] {
				continue
			}
			seen[[2]int{s, t}] = true
			corrs = append(corrs, matching.Correspondence{
				S: s, T: t, Score: 0.4 + 0.6*rng.Float64(),
			})
		}
	}
	return matching.MustNew(src, tgt, corrs)
}

// fixture bundles a generated scenario for block-tree and PTQ tests.
type fixture struct {
	src, tgt *schema.Schema
	set      *mapping.Set
	doc      *xmltree.Document
}

func makeFixture(t *testing.T, rng *rand.Rand, srcSize, tgtSize, nMappings int) *fixture {
	t.Helper()
	src := randomSchema(rng, "S", srcSize)
	tgt := randomSchema(rng, "T", tgtSize)
	u := randomMatching(rng, src, tgt, 0.8)
	set, err := mapgen.TopH(u, nMappings, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{src: src, tgt: tgt, set: set, doc: instantiate(rng, src)}
}

// instantiate generates a document conforming to the schema: every element
// is instantiated 1..3 times under each instance of its parent.
func instantiate(rng *rand.Rand, s *schema.Schema) *xmltree.Document {
	var build func(e *schema.Element) *xmltree.Node
	build = func(e *schema.Element) *xmltree.Node {
		n := xmltree.NewRoot(e.Name)
		n.Text = fmt.Sprintf("v%d", rng.Intn(4))
		for _, c := range e.Children {
			reps := 1 + rng.Intn(2)
			for r := 0; r < reps; r++ {
				cn := build(c)
				n.Children = append(n.Children, cn)
			}
		}
		return n
	}
	return xmltree.New(build(s.Root))
}

// randomQuery builds a pattern guaranteed to resolve in the schema by
// sampling a connected sub-hierarchy of elements.
func randomQuery(rng *rand.Rand, s *schema.Schema) *twig.Pattern {
	// Start from a random element; use '//' axis from root for variety.
	elems := s.Elements()
	rootElem := elems[rng.Intn(len(elems))]
	axis := twig.Child
	if rootElem != s.Root {
		axis = twig.Descendant
	}
	root := &twig.Node{Label: rootElem.Name, Axis: axis}
	type pair struct {
		qn *twig.Node
		el *schema.Element
	}
	frontier := []pair{{root, rootElem}}
	for i := 0; i < rng.Intn(4); i++ {
		p := frontier[rng.Intn(len(frontier))]
		var child *schema.Element
		var childAxis twig.Axis
		if len(p.el.Children) > 0 && rng.Intn(2) == 0 {
			child = p.el.Children[rng.Intn(len(p.el.Children))]
			childAxis = twig.Child
		} else {
			// Any strict descendant via //.
			sub := s.SubtreeIDs(p.el.ID)
			if len(sub) <= 1 {
				continue
			}
			child = s.ByID(sub[1+rng.Intn(len(sub)-1)])
			childAxis = twig.Descendant
		}
		qc := &twig.Node{Label: child.Name, Axis: childAxis}
		p.qn.Children = append(p.qn.Children, qc)
		frontier = append(frontier, pair{qc, child})
	}
	pat := &twig.Pattern{Root: root}
	// Rebuild the preorder index via round trip through the public API.
	return twig.MustParse(patString(pat))
}

func patString(p *twig.Pattern) string {
	var render func(n *twig.Node, leading bool) string
	render = func(n *twig.Node, leading bool) string {
		s := ""
		if n.Axis == twig.Descendant {
			s += "//"
		} else if !leading {
			s += "/"
		}
		s += n.Label
		for i, c := range n.Children {
			if i == len(n.Children)-1 {
				s += render(c, false)
			} else {
				s += "[." + render(c, false) + "]"
			}
		}
		return s
	}
	return render(p.Root, true)
}

func TestBuildOptionsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := makeFixture(t, rng, 20, 12, 10)
	if _, err := Build(f.set, Options{Tau: 1.5}); err == nil {
		t.Error("tau > 1 accepted")
	}
	if _, err := Build(f.set, Options{Tau: -0.1}); err == nil {
		t.Error("tau < 0 accepted")
	}
	if _, err := Build(f.set, Options{MaxB: -1}); err == nil {
		t.Error("negative MaxB accepted")
	}
	bt, err := Build(f.set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bt.Opts.Tau != 0.2 || bt.Opts.MaxB != 500 || bt.Opts.MaxF != 500 {
		t.Errorf("defaults not applied: %+v", bt.Opts)
	}
}

func TestBlockTreeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		f := makeFixture(t, rng, 15+rng.Intn(20), 8+rng.Intn(15), 5+rng.Intn(20))
		tau := []float64{0.1, 0.2, 0.4, 0.7}[rng.Intn(4)]
		bt, err := Build(f.set, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		if err := bt.Validate(); err != nil {
			t.Fatalf("trial %d (tau=%v): %v", trial, tau, err)
		}
		// Lemma 2: a node with blocks implies every child subtree
		// element also has blocks... specifically every child node.
		for elemID, blocks := range bt.Blocks {
			if len(blocks) == 0 {
				continue
			}
			for _, c := range f.set.Target.ByID(elemID).Children {
				if len(bt.Blocks[c.ID]) == 0 {
					t.Fatalf("trial %d: element %d has blocks but child %d has none", trial, elemID, c.ID)
				}
			}
			// Hash table must know this node.
			if bt.FindNode(f.set.Target.ByID(elemID).Path) != elemID {
				t.Fatalf("trial %d: hash table missing element %d", trial, elemID)
			}
		}
	}
}

func TestBlockCountDecreasesWithTau(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := makeFixture(t, rng, 40, 25, 40)
	prev := -1
	for _, tau := range []float64{0.05, 0.2, 0.5, 0.9} {
		bt, err := Build(f.set, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && bt.NumBlocks > prev {
			t.Fatalf("block count increased from %d to %d as tau rose to %v", prev, bt.NumBlocks, tau)
		}
		prev = bt.NumBlocks
	}
}

func TestMaxBLimitsBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := makeFixture(t, rng, 40, 25, 40)
	unlimited, err := Build(f.set, Options{Tau: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if unlimited.NumBlocks < 5 {
		t.Skip("fixture produced too few blocks to test the cap")
	}
	capped, err := Build(f.set, Options{Tau: 0.1, MaxB: 3})
	if err != nil {
		t.Fatal(err)
	}
	if capped.NumBlocks > 3 {
		t.Fatalf("MaxB=3 but %d blocks built", capped.NumBlocks)
	}
}

func TestEmptyMappingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := randomSchema(rng, "S", 10)
	tgt := randomSchema(rng, "T", 10)
	set := mapping.MustNewSet(src, tgt, nil)
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if bt.NumBlocks != 0 {
		t.Fatalf("empty set produced %d blocks", bt.NumBlocks)
	}
}

// decompress reconstructs the full correspondence pairs of mapping mi of
// c, sorted by target element ID: its residual plus the pairs of every
// block it points into.
func decompress(c *Compressed, mi int) []Corr {
	cm := c.Mappings[mi]
	var out []Corr
	out = append(out, cm.Residual...)
	for _, b := range cm.BlockRefs {
		out = append(out, b.C...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

func TestCompressionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		f := makeFixture(t, rng, 25, 15, 20)
		bt, err := Build(f.set, Options{Tau: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		comp := bt.Compress()
		for mi, m := range f.set.Mappings {
			got := decompress(comp, mi)
			want := make([]Corr, len(m.Pairs))
			for i, p := range m.Pairs {
				want[i] = Corr{S: p.S, T: p.T}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d mapping %d: decompress mismatch\ngot:  %v\nwant: %v", trial, mi, got, want)
			}
		}
	}
}

func TestCompressionSavesOnOverlappingSets(t *testing.T) {
	// Hand-built scenario: 10 mappings all sharing the same subtree
	// correspondences; compression must be clearly positive.
	src, err := schema.ParseSpec("S", "s\n  a\n  b\n  c\n  d\n  e\n  f\n  g\n  h\n  i")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := schema.ParseSpec("T", "t\n  p\n  q\n  r\n  u\n  v\n  w\n  x\n  y")
	if err != nil {
		t.Fatal(err)
	}
	var ms []*mapping.Mapping
	for i := 0; i < 12; i++ {
		m := &mapping.Mapping{Score: 1}
		// All target leaves map identically except the last, which
		// alternates between two source elements.
		for tid := 0; tid < 8; tid++ {
			m.Pairs = append(m.Pairs, mapping.Pair{S: tid, T: tid})
		}
		m.Pairs = append(m.Pairs, mapping.Pair{S: 8 + i%2, T: 8})
		ms = append(ms, m)
	}
	set := mapping.MustNewSet(src, tgt, ms)
	bt, err := Build(set, Options{Tau: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	comp := bt.Compress()
	if r := comp.CompressionRatio(); r <= 0 {
		t.Fatalf("compression ratio %.3f not positive (blocks=%d)", r, bt.NumBlocks)
	}
}

// resultKeys canonicalizes PTQ results for equivalence comparison.
func resultKeys(rs []Result) map[int][]string {
	out := make(map[int][]string, len(rs))
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

func TestPTQBasicVsBlockTree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	trials, compared := 0, 0
	for trials < 60 {
		trials++
		f := makeFixture(t, rng, 20+rng.Intn(20), 10+rng.Intn(12), 5+rng.Intn(25))
		tau := []float64{0.05, 0.2, 0.5}[rng.Intn(3)]
		bt, err := Build(f.set, Options{Tau: tau})
		if err != nil {
			t.Fatal(err)
		}
		pat := randomQuery(rng, f.tgt)
		q, err := PrepareQuery(pat.String(), f.set)
		if err != nil {
			continue // pattern text may not resolve (e.g. duplicate labels)
		}
		basic := EvaluateBasic(q, f.set, f.doc)
		tree := Evaluate(q, f.set, f.doc, bt)
		bk, tk := resultKeys(basic), resultKeys(tree)
		if !reflect.DeepEqual(bk, tk) {
			t.Fatalf("trial %d (tau=%v, query=%s): basic and block-tree disagree\nbasic: %v\ntree:  %v",
				trials, tau, pat, bk, tk)
		}
		if len(basic) > 0 {
			compared++
		}
	}
	if compared < 10 {
		t.Fatalf("only %d of %d trials produced relevant mappings; fixtures too sparse", compared, trials)
	}
}

func TestTopKMatchesFullEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		f := makeFixture(t, rng, 25, 12, 20)
		bt, err := Build(f.set, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		pat := randomQuery(rng, f.tgt)
		q, err := PrepareQuery(pat.String(), f.set)
		if err != nil {
			continue
		}
		full := Evaluate(q, f.set, f.doc, bt)
		if len(full) == 0 {
			continue
		}
		checked++
		k := 1 + rng.Intn(len(full))
		topk := EvaluateTopK(q, f.set, f.doc, bt, k)
		if len(topk) != min(k, len(full)) {
			t.Fatalf("trial %d: top-%d returned %d results (full has %d)", trial, k, len(topk), len(full))
		}
		// Every top-k result must appear in the full result with
		// identical matches, and no full result may beat the lowest
		// top-k probability.
		fullByIdx := resultKeys(full)
		minProb := math.Inf(1)
		for _, r := range topk {
			if !reflect.DeepEqual(resultKeys([]Result{r})[r.MappingIndex], fullByIdx[r.MappingIndex]) {
				t.Fatalf("trial %d: top-k result for mapping %d differs from full", trial, r.MappingIndex)
			}
			if r.Prob < minProb {
				minProb = r.Prob
			}
		}
		inTopK := map[int]bool{}
		for _, r := range topk {
			inTopK[r.MappingIndex] = true
		}
		for _, r := range full {
			if !inTopK[r.MappingIndex] && r.Prob > minProb+1e-12 {
				t.Fatalf("trial %d: mapping %d (prob %v) excluded but beats min top-k prob %v",
					trial, r.MappingIndex, r.Prob, minProb)
			}
		}
	}
	if checked < 8 {
		t.Fatalf("only %d trials produced results", checked)
	}
}

func TestEvaluateTopKBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := makeFixture(t, rng, 20, 10, 10)
	bt, _ := Build(f.set, DefaultOptions())
	q, err := PrepareQuery(f.tgt.Root.Name, f.set)
	if err != nil {
		t.Fatal(err)
	}
	if got := EvaluateTopK(q, f.set, f.doc, bt, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := EvaluateTopK(q, f.set, f.doc, bt, -1); got != nil {
		t.Error("k<0 should return nil")
	}
	huge := EvaluateTopK(q, f.set, f.doc, bt, 10000)
	full := Evaluate(q, f.set, f.doc, bt)
	if len(huge) != len(full) {
		t.Errorf("k=∞: %d results, full evaluation %d", len(huge), len(full))
	}
}

func TestPrepareQueryErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := makeFixture(t, rng, 20, 10, 5)
	if _, err := PrepareQuery("Nonexistent/Nothing", f.set); err == nil {
		t.Error("unresolvable query accepted")
	}
	if _, err := PrepareQuery("Order[", f.set); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestAggregateByNode(t *testing.T) {
	// Three mappings yielding answers Cathy/Bob/Alice with probabilities
	// 0.3/0.3/0.2 plus one irrelevant — mirrors the intro example, with
	// two mappings that agree collapsing into one answer.
	src, err := schema.ParseSpec("S", "Order\n  BP\n    BOC\n      BCN\n    ROC\n      RCN\n    OOC\n      OCN")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := schema.ParseSpec("T", "ORDER\n  IP\n    ICN")
	if err != nil {
		t.Fatal(err)
	}
	bcn := src.ByPath("Order.BP.BOC.BCN").ID
	rcn := src.ByPath("Order.BP.ROC.RCN").ID
	ocn := src.ByPath("Order.BP.OOC.OCN").ID
	bp := src.ByPath("Order.BP").ID
	orderS := src.ByPath("Order").ID
	orderT := tgt.ByPath("ORDER").ID
	ip := tgt.ByPath("ORDER.IP").ID
	icn := tgt.ByPath("ORDER.ICN")
	_ = icn
	icnID := tgt.ByPath("ORDER.IP.ICN").ID

	mk := func(srcICN int, score float64) *mapping.Mapping {
		return &mapping.Mapping{
			Pairs: []mapping.Pair{{S: orderS, T: orderT}, {S: bp, T: ip}, {S: srcICN, T: icnID}},
			Score: score,
		}
	}
	set := mapping.MustNewSet(src, tgt, []*mapping.Mapping{
		mk(bcn, 0.3), mk(rcn, 0.3), mk(ocn, 0.2),
		{Pairs: []mapping.Pair{{S: orderS, T: orderT}}, Score: 0.2}, // irrelevant for //IP//ICN
	})

	root := xmltree.NewRoot("Order")
	bpN := root.AddChild("BP")
	bpN.AddChild("BOC").AddChild("BCN").AddText("Cathy")
	bpN.AddChild("ROC").AddChild("RCN").AddText("Bob")
	bpN.AddChild("OOC").AddChild("OCN").AddText("Alice")
	doc := xmltree.New(root)

	q, err := PrepareQuery("//IP//ICN", set)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	results := Evaluate(q, set, doc, bt)
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 relevant mappings", len(results))
	}
	icnNode := q.Pattern.Nodes()[1]
	answers := AggregateByNode(results, icnNode)
	if len(answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(answers))
	}
	got := map[string]float64{}
	for _, a := range answers {
		if len(a.Values) != 1 {
			t.Fatalf("answer values = %v", a.Values)
		}
		got[a.Values[0]] = a.Prob
	}
	for name, p := range map[string]float64{"Cathy": 0.3, "Bob": 0.3, "Alice": 0.2} {
		if math.Abs(got[name]-p) > 1e-9 {
			t.Errorf("answer %q prob %v, want %v", name, got[name], p)
		}
	}
}

func TestPTQCorrectUnderCaps(t *testing.T) {
	// "Query performance can be affected by the number of c-blocks
	// generated, but query correctness will not be affected by using
	// fewer c-blocks" (Section IV-B).
	rng := rand.New(rand.NewSource(101))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		f := makeFixture(t, rng, 25, 14, 20)
		pat := randomQuery(rng, f.tgt)
		q, err := PrepareQuery(pat.String(), f.set)
		if err != nil {
			continue
		}
		want := resultKeys(EvaluateBasic(q, f.set, f.doc))
		for _, opts := range []Options{
			{Tau: 0.2, MaxB: 1},
			{Tau: 0.2, MaxB: 3},
			{Tau: 0.2, MaxF: 1},
			{Tau: 0.9},
		} {
			bt, err := Build(f.set, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := resultKeys(Evaluate(q, f.set, f.doc, bt))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d opts %+v: capped block tree changed results", trial, opts)
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d usable trials", checked)
	}
}

func TestPTQMultipleEmbeddings(t *testing.T) {
	// A pattern with two embeddings into the target schema must union the
	// matches of both, deduplicated per mapping.
	src, err := schema.ParseSpec("S", "s\n  p1\n    x1\n  p2\n    x2")
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := schema.ParseSpec("T", "t\n  a\n    X\n  b\n    X")
	if err != nil {
		t.Fatal(err)
	}
	id := func(s *schema.Schema, p string) int { return s.ByPath(p).ID }
	m := &mapping.Mapping{
		Pairs: []mapping.Pair{
			{S: id(src, "s"), T: id(tgt, "t")},
			{S: id(src, "s.p1"), T: id(tgt, "t.a")},
			{S: id(src, "s.p1.x1"), T: id(tgt, "t.a.X")},
			{S: id(src, "s.p2"), T: id(tgt, "t.b")},
			{S: id(src, "s.p2.x2"), T: id(tgt, "t.b.X")},
		},
		Score: 1,
	}
	set := mapping.MustNewSet(src, tgt, []*mapping.Mapping{m})
	root := xmltree.NewRoot("s")
	root.AddChild("p1").AddChild("x1").AddText("v1")
	root.AddChild("p2").AddChild("x2").AddText("v2")
	doc := xmltree.New(root)
	bt, err := Build(set, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q, err := PrepareQuery("//X", set)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Embeddings) != 2 {
		t.Fatalf("embeddings = %d, want 2", len(q.Embeddings))
	}
	for name, results := range map[string][]Result{
		"basic": EvaluateBasic(q, set, doc),
		"tree":  Evaluate(q, set, doc, bt),
	} {
		if len(results) != 1 {
			t.Fatalf("%s: results = %d", name, len(results))
		}
		if len(results[0].Matches) != 2 {
			t.Fatalf("%s: matches = %d, want 2 (one per embedding)", name, len(results[0].Matches))
		}
	}
}
