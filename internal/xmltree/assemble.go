package xmltree

import "fmt"

// NodeSpec describes one node of a document being reassembled from
// persisted state. Specs are given in preorder; Parent indexes the spec
// slice (-1 for the root, which must be spec 0). Start and End are the
// persisted interval numbers, carried back verbatim.
type NodeSpec struct {
	Label  string
	Text   string
	Parent int
	Start  int
	End    int
}

// ParentPositions returns the position of each node's parent in nodes, a
// document's preorder array (-1 for the root): the form NodeSpec.Parent
// takes. Nodes hold no parent pointer; a node's parent is the nearest
// preceding node whose interval contains it, found by climbing from the
// previous node through the parents found so far.
func ParentPositions(nodes []*Node) []int32 {
	parents := make([]int32, len(nodes))
	for i, n := range nodes {
		p := int32(i - 1)
		for p >= 0 && nodes[p].End < n.End {
			p = parents[p]
		}
		parents[i] = p
	}
	return parents
}

// Assemble rebuilds a Document from its persisted preorder form, keeping
// the recorded interval numbering instead of assigning a fresh one. New
// and NewAt renumber — fine for a parsed document, fatal for a restored
// checkpoint: edits address nodes by Start, match keys order by interval,
// and a collection's members sit at disjoint numbering bases, so a
// checkpoint must come back with exactly the numbers it was saved with.
// Assemble validates the structural invariants renumbering would
// otherwise guarantee by construction: strictly ascending preorder Starts
// above numBase, sibling intervals disjoint and in document order, every
// child interval strictly inside its parent's.
func Assemble(specs []NodeSpec, numBase int) (*Document, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("xmltree: assemble: no nodes")
	}
	if numBase < 0 {
		return nil, fmt.Errorf("xmltree: assemble: negative numbering base %d", numBase)
	}
	nodes := make([]*Node, len(specs))
	byPath := make(map[string][]*Node)
	lastStart := numBase
	for i, sp := range specs {
		if sp.Label == "" {
			return nil, fmt.Errorf("xmltree: assemble: node %d has an empty label", i)
		}
		if sp.Start <= lastStart {
			return nil, fmt.Errorf("xmltree: assemble: node %d start %d not ascending (prev %d, base %d)", i, sp.Start, lastStart, numBase)
		}
		if sp.End <= sp.Start {
			return nil, fmt.Errorf("xmltree: assemble: node %d interval [%d,%d] inverted", i, sp.Start, sp.End)
		}
		lastStart = sp.Start
		n := &Node{Label: sp.Label, Text: sp.Text, Start: sp.Start, End: sp.End}
		if i == 0 {
			if sp.Parent != -1 {
				return nil, fmt.Errorf("xmltree: assemble: node 0 must be the root (parent -1, got %d)", sp.Parent)
			}
			addPath(byPath, n, "")
		} else {
			if sp.Parent < 0 || sp.Parent >= i {
				return nil, fmt.Errorf("xmltree: assemble: node %d has invalid parent %d", i, sp.Parent)
			}
			p := nodes[sp.Parent]
			if sp.Start <= p.Start || sp.End >= p.End {
				return nil, fmt.Errorf("xmltree: assemble: node %d interval [%d,%d] escapes parent [%d,%d]", i, sp.Start, sp.End, p.Start, p.End)
			}
			if len(p.Children) > 0 {
				if prev := p.Children[len(p.Children)-1]; sp.Start <= prev.End {
					return nil, fmt.Errorf("xmltree: assemble: node %d interval [%d,%d] overlaps sibling [%d,%d]", i, sp.Start, sp.End, prev.Start, prev.End)
				}
			}
			n.Level = p.Level + 1
			addPath(byPath, n, p.Path)
			p.Children = append(p.Children, n)
		}
		nodes[i] = n
	}
	return &Document{Root: nodes[0], count: len(nodes), nodes: nodes, numBase: numBase, paths: &pathLayer{byPath: byPath}}, nil
}
