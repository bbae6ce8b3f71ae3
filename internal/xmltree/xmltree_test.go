package xmltree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const sampleXML = `
<Order>
  <Header><Number>PO-1</Number><Date>2009-03-01</Date></Header>
  <Line><Qty>5</Qty></Line>
  <Line><Qty>7</Qty></Line>
</Order>`

func TestParseBasics(t *testing.T) {
	doc, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root.Label != "Order" {
		t.Fatalf("root = %q", doc.Root.Label)
	}
	if doc.Len() != 8 {
		t.Fatalf("len = %d, want 8", doc.Len())
	}
	lines := doc.NodesByPath("Order.Line")
	if len(lines) != 2 {
		t.Fatalf("Order.Line nodes = %d, want 2", len(lines))
	}
	qtys := doc.NodesByPath("Order.Line.Qty")
	if len(qtys) != 2 || qtys[0].Text != "5" || qtys[1].Text != "7" {
		t.Fatalf("Qty texts wrong: %+v", qtys)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"<a><b></a></b>",
		"<a/><b/>", // multiple roots
		"text only",
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", s)
		}
	}
}

func TestIntervalInvariants(t *testing.T) {
	doc, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range doc.Nodes() {
		if n.Start >= n.End {
			t.Fatalf("node %s: Start %d >= End %d", n.Path, n.Start, n.End)
		}
		for _, c := range n.Children {
			if !n.IsAncestorOf(c) {
				t.Fatalf("parent %s not ancestor of child %s", n.Path, c.Path)
			}
			if c.IsAncestorOf(n) {
				t.Fatalf("child %s claims ancestry over parent", c.Path)
			}
			if c.Level != n.Level+1 {
				t.Fatalf("child level %d, parent level %d", c.Level, n.Level)
			}
		}
	}
	lines := doc.NodesByPath("Order.Line")
	if lines[0].IsAncestorOf(lines[1]) || lines[1].IsAncestorOf(lines[0]) {
		t.Fatal("siblings must not be ancestors of each other")
	}
	if !lines[0].Contains(lines[0]) {
		t.Fatal("Contains must include the node itself")
	}
}

func TestPreorderSorted(t *testing.T) {
	doc, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	nodes := doc.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Start <= nodes[i-1].Start {
			t.Fatal("Nodes() not in preorder")
		}
	}
	for _, p := range doc.Paths() {
		ns := doc.NodesByPath(p)
		for i := 1; i < len(ns); i++ {
			if ns[i].Start <= ns[i-1].Start {
				t.Fatalf("NodesByPath(%q) not sorted", p)
			}
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	doc, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := ParseString(doc.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	var collect func(n *Node) []string
	collect = func(n *Node) []string {
		out := []string{n.Path + "=" + n.Text}
		for _, c := range n.Children {
			out = append(out, collect(c)...)
		}
		return out
	}
	if !reflect.DeepEqual(collect(doc.Root), collect(doc2.Root)) {
		t.Fatalf("round trip changed document:\n%v\n%v", collect(doc.Root), collect(doc2.Root))
	}
}

func TestEscaping(t *testing.T) {
	root := NewRoot("r")
	root.AddChild("c").AddText(`a <b> & "q"`)
	doc := New(root)
	doc2, err := ParseString(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := doc2.NodesByPath("r.c")[0].Text; got != `a <b> & "q"` {
		t.Fatalf("escaped text round trip: %q", got)
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	doc, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	var visited []string
	doc.Walk(func(n *Node) bool {
		visited = append(visited, n.Label)
		return n.Label != "Header" // skip Header's children
	})
	for _, v := range visited {
		if v == "Number" || v == "Date" {
			t.Fatalf("Walk did not skip pruned subtree: %v", visited)
		}
	}
}

// randomTree builds a random node tree for property tests.
func randomTree(rng *rand.Rand, budget int) *Node {
	root := NewRoot("n0")
	nodes := []*Node{root}
	for i := 1; i < budget; i++ {
		p := nodes[rng.Intn(len(nodes))]
		c := p.AddChild("n" + strings.Repeat("x", rng.Intn(3)))
		nodes = append(nodes, c)
	}
	return root
}

// parentsOf maps every node of d to its parent by walking Children from
// the root (the root maps to nil).
func parentsOf(d *Document) map[*Node]*Node {
	parent := map[*Node]*Node{d.Root: nil}
	d.Walk(func(n *Node) bool {
		for _, c := range n.Children {
			parent[c] = n
		}
		return true
	})
	return parent
}

func TestIntervalAncestryMatchesPointerAncestry(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := New(randomTree(rng, 2+rng.Intn(40)))
		nodes := doc.Nodes()
		parent := parentsOf(doc)
		for i := 0; i < 50; i++ {
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			// Pointer-based ancestry, up the Children edges.
			truth := false
			for p := parent[b]; p != nil; p = parent[p] {
				if p == a {
					truth = true
					break
				}
			}
			if a.IsAncestorOf(b) != truth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPathsAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	doc := New(randomTree(rng, 60))
	parent := parentsOf(doc)
	for _, n := range doc.Nodes() {
		if p := parent[n]; p != nil && n.Path != p.Path+"."+n.Label {
			t.Fatalf("path %q inconsistent with parent %q", n.Path, p.Path)
		}
		found := false
		for _, m := range doc.NodesByPath(n.Path) {
			if m == n {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %q missing from its path index", n.Path)
		}
	}
}
