package twig

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"xmatch/internal/schema"
	"xmatch/internal/xmltree"
)

func TestParseSimplePath(t *testing.T) {
	p := MustParse("Order/DeliverTo/Contact/EMail")
	if p.Size() != 4 {
		t.Fatalf("size = %d, want 4", p.Size())
	}
	labels := []string{}
	for _, n := range p.Nodes() {
		labels = append(labels, n.Label)
	}
	want := []string{"Order", "DeliverTo", "Contact", "EMail"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("labels = %v, want %v", labels, want)
	}
	for i, n := range p.Nodes() {
		if n.Axis != Child {
			t.Errorf("node %d axis = %v, want /", i, n.Axis)
		}
	}
}

func TestParseDescendantAxis(t *testing.T) {
	p := MustParse("//IP//ICN")
	if p.Size() != 2 {
		t.Fatalf("size = %d, want 2", p.Size())
	}
	if p.Root.Axis != Descendant || p.Root.Children[0].Axis != Descendant {
		t.Fatalf("axes wrong: %v %v", p.Root.Axis, p.Root.Children[0].Axis)
	}
}

func TestParsePredicates(t *testing.T) {
	p := MustParse("Order/DeliverTo/Address[./City][./Country]/Street")
	// Address should have 3 children: City, Country (predicates), Street (spine).
	var addr *Node
	for _, n := range p.Nodes() {
		if n.Label == "Address" {
			addr = n
		}
	}
	if addr == nil || len(addr.Children) != 3 {
		t.Fatalf("Address children = %v", addr)
	}
	if addr.Children[0].Label != "City" || addr.Children[1].Label != "Country" || addr.Children[2].Label != "Street" {
		t.Fatalf("children order wrong: %s %s %s",
			addr.Children[0].Label, addr.Children[1].Label, addr.Children[2].Label)
	}
}

func TestParseNestedPredicates(t *testing.T) {
	p := MustParse(`Order[./DeliverTo[.//EMail]//Street]/POLine[.//UP]/Quantity`)
	if p.Size() != 7 {
		t.Fatalf("size = %d, want 7 (Order, DeliverTo, EMail, Street, POLine, UP, Quantity)", p.Size())
	}
	var deliver *Node
	for _, n := range p.Nodes() {
		if n.Label == "DeliverTo" {
			deliver = n
		}
	}
	if deliver == nil || len(deliver.Children) != 2 {
		t.Fatalf("DeliverTo should have EMail predicate and Street spine")
	}
	if deliver.Children[0].Label != "EMail" || deliver.Children[0].Axis != Descendant {
		t.Fatalf("nested predicate wrong: %+v", deliver.Children[0])
	}
	if deliver.Children[1].Label != "Street" || deliver.Children[1].Axis != Descendant {
		t.Fatalf("spine after predicate wrong: %+v", deliver.Children[1])
	}
}

func TestParseValuePredicates(t *testing.T) {
	p := MustParse(`Order/POLine[./LineNo="7"]/Quantity`)
	var lineNo *Node
	for _, n := range p.Nodes() {
		if n.Label == "LineNo" {
			lineNo = n
		}
	}
	if lineNo == nil || !lineNo.HasValue || lineNo.Value != "7" {
		t.Fatalf("value predicate not parsed: %+v", lineNo)
	}
	p2 := MustParse(`Order//City[.='Paris']`)
	city := p2.Nodes()[1]
	if !city.HasValue || city.Value != "Paris" {
		t.Fatalf("self value predicate not parsed: %+v", city)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "/", "Order/", "Order[", "Order[./]", "Order[X]", "Order]",
		"Order[./City", `Order[./City="x]`, "Order//", "Order trailing",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"Order/DeliverTo/Address[./City][./Country]/Street",
		"//IP//ICN",
		"Order[./Buyer/Contact][./DeliverTo//City]//BPID",
		`Order/POLine[./LineNo="7"]/Quantity`,
	} {
		p := MustParse(s)
		p2 := MustParse(p.String())
		if p2.String() != p.String() {
			t.Errorf("round trip of %q: %q != %q", s, p.String(), p2.String())
		}
		if p2.Size() != p.Size() {
			t.Errorf("round trip of %q changed size", s)
		}
	}
}

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.ParseSpec("T", `
Order
  DeliverTo
    Address
      Street
      City
    Contact
      EMail
  POLine
    LineNo
    Quantity
  Buyer
    Contact2
`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestResolveAbsolutePath(t *testing.T) {
	s := testSchema(t)
	p := MustParse("Order/DeliverTo/Address/City")
	embs := Resolve(p, s)
	if len(embs) != 1 {
		t.Fatalf("embeddings = %d, want 1", len(embs))
	}
	if s.ByID(embs[0][3]).Path != "Order.DeliverTo.Address.City" {
		t.Fatalf("wrong element: %s", s.ByID(embs[0][3]).Path)
	}
}

func TestResolveDescendant(t *testing.T) {
	s := testSchema(t)
	p := MustParse("Order//City")
	embs := Resolve(p, s)
	if len(embs) != 1 {
		t.Fatalf("embeddings = %d, want 1", len(embs))
	}
	p2 := MustParse("//Contact")
	if got := len(Resolve(p2, s)); got != 1 {
		t.Fatalf("//Contact embeddings = %d, want 1", got)
	}
}

func TestResolveNoMatch(t *testing.T) {
	s := testSchema(t)
	for _, q := range []string{"Order/City", "Invoice//City", "Order//Nothing"} {
		if embs := Resolve(MustParse(q), s); len(embs) != 0 {
			t.Errorf("Resolve(%q) = %d embeddings, want 0", q, len(embs))
		}
	}
	if _, err := ResolveOne(MustParse("Order/City"), s); err == nil {
		t.Error("ResolveOne should error on unresolvable pattern")
	}
}

func TestResolveRootDescendantMultiple(t *testing.T) {
	s, err := schema.ParseSpec("T", `
R
  A
    X
  B
    X
`)
	if err != nil {
		t.Fatal(err)
	}
	embs := Resolve(MustParse("//X"), s)
	if len(embs) != 2 {
		t.Fatalf("//X embeddings = %d, want 2", len(embs))
	}
}

// buildDoc creates a small order document for matching tests.
func buildDoc() *xmltree.Document {
	root := xmltree.NewRoot("PO")
	del := root.AddChild("ShipTo")
	addr := del.AddChild("Addr")
	addr.AddChild("Str").AddText("Main St")
	addr.AddChild("Town").AddText("Paris")
	for i, qty := range []string{"5", "7", "9"} {
		line := root.AddChild("Line")
		line.AddChild("Num").AddText([]string{"1", "2", "3"}[i])
		line.AddChild("Qty").AddText(qty)
	}
	return xmltree.New(root)
}

func TestMatchByPathsSimple(t *testing.T) {
	doc := buildDoc()
	p := MustParse("Order/POLine/Quantity")
	n := p.Nodes()
	paths := PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Qty"}
	ms := MatchByPaths(doc, p.Root, paths)
	if len(ms) != 3 {
		t.Fatalf("matches = %d, want 3", len(ms))
	}
	for i, m := range ms {
		if m.Get(n[2]).Text != []string{"5", "7", "9"}[i] {
			t.Errorf("match %d quantity = %q", i, m.Get(n[2]).Text)
		}
	}
}

func TestMatchByPathsValuePredicate(t *testing.T) {
	doc := buildDoc()
	p := MustParse(`Order/POLine[./LineNo="2"]/Quantity`)
	n := p.Nodes()
	paths := PathBinding{n[0]: "PO", n[1]: "PO.Line", n[2]: "PO.Line.Num", n[3]: "PO.Line.Qty"}
	ms := MatchByPaths(doc, p.Root, paths)
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	if ms[0].Get(n[3]).Text != "7" {
		t.Fatalf("quantity = %q, want 7", ms[0].Get(n[3]).Text)
	}
}

func TestMatchByPathsNoCandidates(t *testing.T) {
	doc := buildDoc()
	p := MustParse("Order/Missing")
	n := p.Nodes()
	paths := PathBinding{n[0]: "PO", n[1]: "PO.Nope"}
	if ms := MatchByPaths(doc, p.Root, paths); ms != nil {
		t.Fatalf("expected nil matches, got %d", len(ms))
	}
}

// randomDoc builds a random document over a small label alphabet.
func randomDoc(rng *rand.Rand) *xmltree.Document {
	labels := []string{"a", "b", "c"}
	root := xmltree.NewRoot("r")
	var grow func(n *xmltree.Node, depth int)
	grow = func(n *xmltree.Node, depth int) {
		if depth >= 4 {
			return
		}
		for i := 0; i < rng.Intn(4); i++ {
			c := n.AddChild(labels[rng.Intn(len(labels))])
			c.Text = []string{"", "x", "y"}[rng.Intn(3)]
			grow(c, depth+1)
		}
	}
	grow(root, 0)
	return xmltree.New(root)
}

// randomPattern builds a random pattern whose paths refer to the document's
// path set, so matches are plausible.
func randomPattern(rng *rand.Rand, doc *xmltree.Document) (*Pattern, PathBinding) {
	paths := doc.Paths()
	// Pick a root path, then extend with descendant paths.
	rootPath := paths[rng.Intn(len(paths))]
	under := []string{}
	for _, p := range paths {
		if len(p) > len(rootPath) && p[:len(rootPath)] == rootPath && p[len(rootPath)] == '.' {
			under = append(under, p)
		}
	}
	root := &Node{Label: "q0"}
	binding := PathBinding{root: rootPath}
	pat := &Pattern{Root: root}
	nodes := []*Node{root}
	nodePaths := []string{rootPath}
	for i := 0; i < rng.Intn(3) && len(under) > 0; i++ {
		parentIdx := rng.Intn(len(nodes))
		parentPath := nodePaths[parentIdx]
		// Choose a path under the parent's path.
		var cands []string
		for _, p := range under {
			if len(p) > len(parentPath) && p[:len(parentPath)] == parentPath && p[len(parentPath)] == '.' {
				cands = append(cands, p)
			}
		}
		if len(cands) == 0 {
			continue
		}
		cp := cands[rng.Intn(len(cands))]
		c := &Node{Label: "q" + string(rune('1'+i))}
		if rng.Intn(4) == 0 {
			c.HasValue = true
			c.Value = []string{"x", "y"}[rng.Intn(2)]
		}
		nodes[parentIdx].Children = append(nodes[parentIdx].Children, c)
		nodes = append(nodes, c)
		nodePaths = append(nodePaths, cp)
		binding[c] = cp
	}
	pat.index()
	return pat, binding
}

func sortedKeys(ms []Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

func TestMatchByPathsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		doc := randomDoc(rng)
		if doc.Len() < 2 {
			continue
		}
		pat, binding := randomPattern(rng, doc)
		fast := MatchByPaths(doc, pat.Root, binding)
		slow := NaiveMatchByPaths(doc, pat.Root, binding)
		fk, sk := sortedKeys(fast), sortedKeys(slow)
		if !reflect.DeepEqual(fk, sk) {
			t.Fatalf("trial %d: fast %d matches, naive %d matches\nfast: %v\nnaive: %v\npattern: %s",
				trial, len(fast), len(slow), fk, sk, pat)
		}
	}
}

func TestStructuralJoin(t *testing.T) {
	doc := buildDoc()
	// Outer: PO root; inner: Line/Qty subtree matches.
	rootQ := &Node{Label: "root"}
	lineQ := &Node{Label: "line"}
	qtyQ := &Node{Label: "qty"}
	lineQ.Children = []*Node{qtyQ}
	outer := []Match{{{Q: rootQ, D: doc.Root}}}
	inner := MatchByPaths(doc, lineQ, PathBinding{lineQ: "PO.Line", qtyQ: "PO.Line.Qty"})
	joined := StructuralJoin(outer, rootQ, inner, lineQ)
	if len(joined) != 3 {
		t.Fatalf("joined = %d, want 3", len(joined))
	}
	for _, m := range joined {
		if m.Get(rootQ) != doc.Root {
			t.Error("root binding lost in join")
		}
		if m.Get(qtyQ) == nil || m.Get(lineQ) == nil {
			t.Error("inner bindings lost in join")
		}
	}
	// Joining against a leaf outer node with no containing interval.
	leaf := doc.NodesByPath("PO.Line.Qty")[0]
	outer2 := []Match{{{Q: rootQ, D: leaf}}}
	if got := StructuralJoin(outer2, rootQ, inner, lineQ); len(got) != 0 {
		t.Fatalf("expected empty join, got %d", len(got))
	}
}

func TestMatchKeyDistinguishesBindings(t *testing.T) {
	doc := buildDoc()
	lines := doc.NodesByPath("PO.Line")
	q := &Node{Label: "x", Index: 0}
	a := Match{{Q: q, D: lines[0]}}
	b := Match{{Q: q, D: lines[1]}}
	if a.Key() == b.Key() {
		t.Fatal("different bindings share a key")
	}
}

// TestMatchCompareOrdersAsKey: Compare is strings.Compare over the two
// keys, on random matches drawn to collide — shared prefixes, one a prefix
// of the other, pattern indexes 0 and 63, starts around 2^31 as well as
// small ones.
func TestMatchCompareOrdersAsKey(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var qs [64]*Node
	for i := range qs {
		qs[i] = &Node{Index: i}
	}
	starts := []int{0, 1, 15, 16, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<32 - 1, 1 << 32, 1 << 40}
	binding := func() Binding {
		q := qs[[]int{0, 63, rng.Intn(64)}[rng.Intn(3)]]
		s := starts[rng.Intn(len(starts))]
		if rng.Intn(3) == 0 {
			s = rng.Intn(1 << 20)
		}
		return Binding{Q: q, D: &xmltree.Node{Start: s}}
	}
	random := func() Match {
		m := make(Match, rng.Intn(4))
		for i := range m {
			m[i] = binding()
		}
		return m
	}
	for trial := 0; trial < 20000; trial++ {
		a := random()
		var b Match
		switch rng.Intn(4) {
		case 0: // a prefix of a, or a itself
			b = append(Match(nil), a[:rng.Intn(len(a)+1)]...)
		case 1: // a's prefix, then something else
			b = append(append(Match(nil), a[:rng.Intn(len(a)+1)]...), random()...)
		case 2: // one binding changed in place
			b = append(Match(nil), a...)
			if len(b) > 0 {
				b[rng.Intn(len(b))] = binding()
			}
		default:
			b = random()
		}
		if got, want := a.Compare(b), strings.Compare(a.Key(), b.Key()); got != want {
			t.Fatalf("Compare(%v, %v) = %d, keys compare %d", a, b, got, want)
		}
		if got, want := b.Compare(a), strings.Compare(b.Key(), a.Key()); got != want {
			t.Fatalf("Compare(%v, %v) = %d, keys compare %d", b, a, got, want)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	// Fuzz-ish robustness: Parse must return an error, never panic, on
	// arbitrary input.
	check := func(s string) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("Parse(%q) panicked", s)
			}
		}()
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Adversarial hand-picked inputs.
	for _, s := range []string{
		"[[[", "]]]", "///", "a[b[c[d[e", `a[.="`, "a[.=']", "//[.]//",
		"a" + string(rune(0)) + "b", "日本語/中文",
	} {
		_, _ = Parse(s)
	}
}

func TestParseLimits(t *testing.T) {
	// Just under the node limit parses; one past it errors.
	ok := "a" + strings.Repeat("/a", MaxPatternNodes-1)
	if _, err := Parse(ok); err != nil {
		t.Fatalf("pattern with %d nodes rejected: %v", MaxPatternNodes, err)
	}
	if _, err := Parse(ok + "/a"); err == nil {
		t.Fatalf("pattern with %d nodes accepted", MaxPatternNodes+1)
	}
	long := "a[.=\"" + strings.Repeat("x", MaxPatternLen) + "\"]"
	if _, err := Parse(long); err == nil {
		t.Fatalf("pattern of length %d accepted", len(long))
	}
}
