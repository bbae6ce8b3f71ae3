// Package xmltree provides the XML document substrate used throughout the
// library: an ordered labelled tree with preorder interval numbering, which
// supports constant-time ancestor tests and the sorted node lists required
// by stack-based structural joins (Al-Khalifa et al., ICDE 2002).
//
// Documents can be parsed from XML text (via encoding/xml), built
// programmatically, or generated synthetically. Every node carries the
// dotted label path from the root (e.g. "Order.POLine.Quantity"), matching
// the hash keys used by the block tree of Cheng, Gong and Cheung (ICDE 2010).
package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Node is a single element node of an XML document tree.
type Node struct {
	// Label is the element name.
	Label string
	// Text is the concatenated character data directly inside the
	// element, with surrounding whitespace trimmed.
	Text string
	// Children in document order. A node holds no pointer to its parent:
	// a revision shares untouched subtrees with its predecessor, and a
	// pointer up would keep the predecessor's spine reachable.
	Children []*Node

	// Start and End delimit the node's preorder interval: a node d is a
	// descendant of a iff a.Start < d.Start && d.End <= a.End. Assigned
	// by Document.renumber.
	Start, End int
	// Level is the depth from the root (root has level 0).
	Level int
	// Path is the dotted label path from the root, e.g. "Order.POLine".
	// Every node on one path holds the same string, and so does the path
	// index's key: building a document, assembling it and committing a
	// revision take an existing path's string from the path index they
	// extend (see addPath). The table is the document lineage's own;
	// documents built separately share no path string.
	Path string
}

// Gap is the stride of the interval numbering: renumbering assigns
// consecutive interval boundaries Gap apart, so every pair of adjacent
// boundaries leaves Gap-1 unused integers. Insertions under the revision
// layer (see BeginRevision) allocate numbers from these gaps, which is what
// lets an edit keep every untouched node's Start/End — and therefore every
// untouched index posting — intact. Dense numbering is the Gap = 1 special
// case; all structural invariants (strict preorder ordering, the ancestor
// interval test) are stride-independent.
const Gap = 16

// IsAncestorOf reports whether n is a proper ancestor of d, using the
// preorder interval numbering.
func (n *Node) IsAncestorOf(d *Node) bool {
	return n.Start < d.Start && d.End <= n.End
}

// Contains reports whether d lies in n's subtree (n itself included).
func (n *Node) Contains(d *Node) bool {
	return n == d || n.IsAncestorOf(d)
}

// AddChild appends a child node with the given label and returns it. The
// document must be renumbered (or rebuilt with New) before structural
// queries are issued.
func (n *Node) AddChild(label string) *Node {
	c := &Node{Label: label}
	n.Children = append(n.Children, c)
	return c
}

// AddText sets the node's character data and returns the node, for chaining.
func (n *Node) AddText(text string) *Node {
	n.Text = text
	return n
}

// Document is an XML document with index structures for structural queries.
type Document struct {
	Root *Node

	// count is the number of element nodes. nodes is the preorder array: a
	// parsed, built or assembled document carries it from construction; a
	// revision snapshot (see Revision.Commit) knows only its count and
	// derives the array on the first Nodes call, so that committing an edit
	// never costs a pass over the document.
	count     int
	nodes     []*Node
	nodesOnce sync.Once

	// paths is the path index: dotted path -> nodes in preorder. A parsed
	// or built document's is one complete map. A revision snapshot's lays
	// the paths its revisions changed over the base snapshot's (see
	// Commit); snapshots share those layers, never each other, so nothing
	// a newer document holds refers to an older Document, and a
	// superseded snapshot is collected as soon as its last reader lets go.
	paths Layered[string, nodeList]

	// accel is an opaque accelerator attached by a higher layer (the
	// positional index of internal/index); consumers type-assert against
	// their own interfaces. The document never inspects it. See SetAccel.
	accel any

	// numBase offsets the interval numbering: every Start/End the document
	// assigns is strictly greater than numBase. A plain document has
	// numBase 0; members of a sharded collection are numbered at disjoint
	// ascending offsets (see NewAt and Corpus) so their node intervals
	// interleave like one concatenated document. Renumbering — including
	// the whole-document fallback of the revision layer — preserves the
	// base, so a member never drifts into a neighbour's range.
	numBase int
}

// nodeList is a path's nodes in preorder; an empty one marks, in an
// overlay of the path index, a path that disappeared.
type nodeList []*Node

func (l nodeList) Len() int { return len(l) }

// SetAccel attaches an opaque accelerator to the document (nil detaches).
// Attachment is not synchronized: it must happen before the document is
// shared with concurrent readers, after which the document — accelerator
// included — is treated as immutable.
func (d *Document) SetAccel(a any) { d.accel = a }

// Accel returns the attached accelerator, or nil.
func (d *Document) Accel() any { return d.accel }

// New builds a Document around root, assigning interval numbers, levels and
// paths to every node and building the path index.
func New(root *Node) *Document {
	return NewAt(root, 0)
}

// NewAt builds a Document like New but numbers every interval boundary
// strictly above base (the first boundary is base+Gap). Collections number
// their member documents at disjoint ascending bases, so the members'
// node intervals — and hence their match keys — order exactly as if the
// members were concatenated into one document. base must be >= 0.
func NewAt(root *Node, base int) *Document {
	d := &Document{Root: root, numBase: base}
	d.renumber()
	return d
}

// NumBase returns the document's numbering base (0 for a plain document).
func (d *Document) NumBase() int { return d.numBase }

// MaxEnd returns the largest interval boundary the document has assigned
// (the root's End), or the numbering base for an empty document. A
// collection places the next member's base at or above this.
func (d *Document) MaxEnd() int {
	if d.Root == nil {
		return d.numBase
	}
	return d.Root.End
}

// NewRoot creates a fresh root node with the given label. Attach children
// with AddChild, then call New to obtain a queryable Document.
func NewRoot(label string) *Node {
	return &Node{Label: label}
}

func (d *Document) renumber() {
	d.nodes = d.nodes[:0]
	byPath := make(map[string]nodeList)
	counter := d.numBase
	var walk func(n *Node, level int, prefix string)
	walk = func(n *Node, level int, prefix string) {
		counter += Gap
		n.Start = counter
		n.Level = level
		addPath(byPath, n, prefix)
		d.nodes = append(d.nodes, n)
		for _, c := range n.Children {
			walk(c, level+1, n.Path)
		}
		counter += Gap
		n.End = counter
	}
	if d.Root != nil {
		walk(d.Root, 0, "")
	}
	d.paths = NewLayered(byPath, strings.Compare)
	d.count = len(d.nodes)
}

// addPath sets the dotted path of n, a node below a parent on path prefix
// ("" for the root), and files n under it in byPath. A path byPath already
// lists keeps its string: n takes the one the nodes on it hold.
func addPath(byPath map[string]nodeList, n *Node, prefix string) {
	p := n.Label
	if prefix != "" {
		p = prefix + "." + n.Label
	}
	list := byPath[p]
	if len(list) > 0 {
		p = list[0].Path
	}
	n.Path = p
	byPath[p] = append(list, n)
}

// Len returns the number of element nodes in the document.
func (d *Document) Len() int { return d.count }

// Nodes returns all nodes in preorder. The returned slice must not be
// modified. On a revision snapshot the first call walks the tree — the
// callers that really scan a mutated document (checkpoint save, a fresh
// index build, Corpus) pay for the array, the write that produced the
// snapshot does not — and concurrent first calls are safe.
func (d *Document) Nodes() []*Node {
	d.nodesOnce.Do(func() {
		if d.nodes != nil || d.Root == nil {
			return
		}
		nodes := make([]*Node, 0, d.count)
		d.Walk(func(n *Node) bool {
			nodes = append(nodes, n)
			return true
		})
		d.nodes = nodes
	})
	return d.nodes
}

// NodesByPath returns the nodes whose dotted label path from the root equals
// path, in document (preorder) order. The returned slice must not be
// modified.
func (d *Document) NodesByPath(path string) []*Node { return d.paths.Get(path) }

// Paths returns the distinct dotted paths present in the document, sorted.
func (d *Document) Paths() []string { return d.paths.Keys() }

// Parse reads an XML document from r. Attributes are ignored; character
// data is trimmed and attached to the enclosing element.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Label: t.Name.Local}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = n
			} else {
				p := stack[len(stack)-1]
				p.Children = append(p.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 {
				s := strings.TrimSpace(string(t))
				if s != "" {
					top := stack[len(stack)-1]
					if top.Text != "" {
						top.Text += " "
					}
					top.Text += s
				}
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: empty document")
	}
	return New(root), nil
}

// ParseString parses an XML document from a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// WriteXML serializes the document as indented XML.
func (d *Document) WriteXML(w io.Writer) error {
	var write func(n *Node, indent string) error
	write = func(n *Node, indent string) error {
		if len(n.Children) == 0 {
			var err error
			if n.Text == "" {
				_, err = fmt.Fprintf(w, "%s<%s/>\n", indent, n.Label)
			} else {
				_, err = fmt.Fprintf(w, "%s<%s>%s</%s>\n", indent, n.Label, escape(n.Text), n.Label)
			}
			return err
		}
		if _, err := fmt.Fprintf(w, "%s<%s>\n", indent, n.Label); err != nil {
			return err
		}
		if n.Text != "" {
			if _, err := fmt.Fprintf(w, "%s  %s\n", indent, escape(n.Text)); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if err := write(c, indent+"  "); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Label)
		return err
	}
	if d.Root == nil {
		return fmt.Errorf("xmltree: nil root")
	}
	return write(d.Root, "")
}

// String returns the indented XML serialization of the document.
func (d *Document) String() string {
	var b strings.Builder
	if err := d.WriteXML(&b); err != nil {
		return "<error: " + err.Error() + ">"
	}
	return b.String()
}

func escape(s string) string {
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return s
	}
	return b.String()
}

// Walk visits every node in preorder, calling fn. If fn returns false the
// node's subtree is skipped.
func (d *Document) Walk(fn func(*Node) bool) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if d.Root != nil {
		walk(d.Root)
	}
}
