package xmltree

import "fmt"

// CorpusRootLabel is the label of the synthetic root a Corpus document
// places above its members. Parentheses cannot appear in schema element
// names or parsed XML labels, so no twig pattern node ever binds it.
const CorpusRootLabel = "(corpus)"

// Corpus assembles member documents into one queryable document without
// renumbering or otherwise mutating them: a synthetic super-root (labelled
// CorpusRootLabel) spans every member, and the members' nodes keep their
// own interval numbers, levels, and dotted paths. The members must carry
// strictly ascending, disjoint interval ranges — the layout NewAt-based
// generators (dataset.OrderCorpus) produce — so the corpus preorder is the
// concatenation of the member preorders.
//
// The resulting document is the sharding oracle: evaluating a twig pattern
// over it yields, per (embedding, mapping), exactly the concatenation of
// the per-member results in member order, because every path's node list
// is the in-order concatenation of the members' lists and no interval
// spans two members. The cross-shard differential suites lean on this.
//
// The corpus is read-only: it shares the members' nodes, so revising it
// (BeginRevision) or revising a member while the corpus is in use is
// invalid.
func Corpus(members ...*Document) (*Document, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("xmltree: corpus has no members")
	}
	total := 1
	for i, m := range members {
		if m == nil || m.Root == nil {
			return nil, fmt.Errorf("xmltree: corpus member %d is empty", i)
		}
		if i > 0 && m.Root.Start <= members[i-1].Root.End {
			return nil, fmt.Errorf("xmltree: corpus member %d range [%d,%d] does not follow member %d (end %d)",
				i, m.Root.Start, m.Root.End, i-1, members[i-1].Root.End)
		}
		total += m.Len()
	}
	super := &Node{
		Label: CorpusRootLabel,
		Path:  CorpusRootLabel,
		Start: members[0].Root.Start - 1,
		End:   members[len(members)-1].Root.End + 1,
	}
	d := &Document{Root: super}
	d.nodes = make([]*Node, 0, total)
	d.nodes = append(d.nodes, super)
	byPath := map[string][]*Node{CorpusRootLabel: {super}}
	d.paths = &pathLayer{byPath: byPath}
	for _, m := range members {
		super.Children = append(super.Children, m.Root)
		d.nodes = append(d.nodes, m.Nodes()...)
		for _, p := range m.Paths() {
			byPath[p] = append(byPath[p], m.NodesByPath(p)...)
		}
	}
	d.count = len(d.nodes)
	return d, nil
}
