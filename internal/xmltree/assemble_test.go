package xmltree

import (
	"strings"
	"testing"
)

// specsOf flattens a document into the persisted preorder form Assemble
// consumes, taking each node's parent from a Children walk.
func specsOf(d *Document) []NodeSpec {
	var specs []NodeSpec
	var walk func(n *Node, parent int)
	walk = func(n *Node, parent int) {
		i := len(specs)
		specs = append(specs, NodeSpec{Label: n.Label, Text: n.Text, Parent: parent, Start: n.Start, End: n.End})
		for _, c := range n.Children {
			walk(c, i)
		}
	}
	walk(d.Root, -1)
	return specs
}

func TestAssembleRoundTrip(t *testing.T) {
	orig, err := ParseString(`<r><a>1</a><b><c>x</c><c>y</c></b><d/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Assemble(specsOf(orig), orig.NumBase())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != orig.String() {
		t.Fatalf("serialization diverged:\n%s\nvs\n%s", got, orig)
	}
	on, gn := orig.Nodes(), got.Nodes()
	if len(on) != len(gn) {
		t.Fatalf("%d nodes, want %d", len(gn), len(on))
	}
	for i := range on {
		o, g := on[i], gn[i]
		if g.Start != o.Start || g.End != o.End || g.Level != o.Level || g.Path != o.Path {
			t.Fatalf("node %d diverged: %+v vs %+v", i, g, o)
		}
	}
	// Path lookups work on the assembled document.
	if n := got.NodesByPath("r.b.c"); len(n) != 2 {
		t.Fatalf("r.b.c resolved to %d nodes", len(n))
	}
}

func TestAssembleNonzeroBase(t *testing.T) {
	// A collection member numbered above a base must come back at that
	// base, with its intervals untouched.
	root := NewRoot("m")
	root.AddChild("x").AddText("v")
	orig := NewAt(root, 1000)
	got, err := Assemble(specsOf(orig), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBase() != 1000 {
		t.Fatalf("numBase %d, want 1000", got.NumBase())
	}
	if got.Root.Start != orig.Root.Start || got.Root.End != orig.Root.End {
		t.Fatalf("root renumbered: [%d,%d] vs [%d,%d]", got.Root.Start, got.Root.End, orig.Root.Start, orig.Root.End)
	}
}

func TestAssembleRejectsInvariantViolations(t *testing.T) {
	good := func() []NodeSpec {
		return []NodeSpec{
			{Label: "r", Parent: -1, Start: 10, End: 100},
			{Label: "a", Parent: 0, Start: 20, End: 30},
			{Label: "b", Parent: 0, Start: 40, End: 50},
		}
	}
	cases := map[string]struct {
		specs []NodeSpec
		base  int
		want  string
	}{
		"empty":            {nil, 0, "no nodes"},
		"negative base":    {good(), -1, "negative numbering base"},
		"root has parent":  {func() []NodeSpec { s := good(); s[0].Parent = 0; return s }(), 0, "must be the root"},
		"empty label":      {func() []NodeSpec { s := good(); s[1].Label = ""; return s }(), 0, "empty label"},
		"start below base": {good(), 10, "not ascending"},
		"starts unordered": {func() []NodeSpec { s := good(); s[2].Start = 15; s[2].End = 18; return s }(), 0, "not ascending"},
		"inverted":         {func() []NodeSpec { s := good(); s[1].End = 20; return s }(), 0, "inverted"},
		"forward parent":   {func() []NodeSpec { s := good(); s[1].Parent = 2; return s }(), 0, "invalid parent"},
		"parent oob":       {func() []NodeSpec { s := good(); s[2].Parent = 9; return s }(), 0, "invalid parent"},
		"escapes parent":   {func() []NodeSpec { s := good(); s[2].End = 200; return s }(), 0, "escapes parent"},
		"overlaps sibling": {func() []NodeSpec { s := good(); s[2].Start = 25; s[2].End = 35; return s }(), 0, "overlaps sibling"},
	}
	for name, tc := range cases {
		_, err := Assemble(tc.specs, tc.base)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
	// The unperturbed specs assemble fine.
	if _, err := Assemble(good(), 0); err != nil {
		t.Fatalf("good specs rejected: %v", err)
	}
}
