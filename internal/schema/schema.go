// Package schema models XML schemas as ordered trees of named elements, the
// representation over which schema matchings, possible mappings, block trees
// and twig-query resolution are defined (Cheng, Gong, Cheung, ICDE 2010).
//
// A Schema assigns every element a dense integer ID in preorder, a dotted
// path (e.g. "Order.POLine.Quantity") and an interval numbering for
// constant-time ancestor tests, mirroring the document-side machinery of
// package xmltree. The target-schema tree is also the skeleton of the block
// tree (Definition 3 of the paper).
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Element is a single schema element.
type Element struct {
	// ID is the element's preorder index within its schema, in [0, Len).
	ID int
	// Name is the element tag name.
	Name string
	// Path is the dotted name path from the schema root.
	Path string
	// Parent is nil for the root element.
	Parent *Element
	// Children in declaration order.
	Children []*Element
	// Level is the depth from the root (root has level 0).
	Level int

	start, end  int // preorder interval for ancestor tests
	subtreeSize int // number of elements in the subtree rooted here
}

// IsLeaf reports whether the element has no children.
func (e *Element) IsLeaf() bool { return len(e.Children) == 0 }

// SubtreeSize returns the number of elements in e's subtree, e included.
func (e *Element) SubtreeSize() int { return e.subtreeSize }

// IsAncestorOf reports whether e is a proper ancestor of d.
func (e *Element) IsAncestorOf(d *Element) bool {
	return e.start < d.start && d.end <= e.end
}

// Contains reports whether d lies in e's subtree (e itself included).
func (e *Element) Contains(d *Element) bool { return e == d || e.IsAncestorOf(d) }

// AddChild appends and returns a new child element. Valid only on elements
// of a schema under construction; call Schema.Freeze before querying.
func (e *Element) AddChild(name string) *Element {
	c := &Element{Name: name, Parent: e}
	e.Children = append(e.Children, c)
	return c
}

// Schema is an XML schema: a named, ordered tree of elements.
type Schema struct {
	// Name identifies the schema (e.g. "XCBL").
	Name string
	// Root is the document root element.
	Root *Element

	elems  []*Element          // by ID (preorder)
	byPath map[string]*Element // dotted path -> element
	byName map[string][]*Element
	frozen bool
}

// NewBuilder starts a schema with the given name and root element name.
// Build the tree with Element.AddChild and finish with Freeze.
func NewBuilder(name, rootName string) *Schema {
	return &Schema{Name: name, Root: &Element{Name: rootName}}
}

// Freeze assigns IDs, paths, levels, interval numbers and subtree sizes, and
// builds lookup indexes. It must be called once after construction and
// returns the schema for chaining. Freeze panics if called twice or if two
// elements share a path; FreezeChecked reports the latter as an error.
func (s *Schema) Freeze() *Schema {
	if _, err := s.FreezeChecked(); err != nil {
		panic(err.Error())
	}
	return s
}

// FreezeChecked is Freeze for a tree built from outside input: two
// elements on one dotted path (sibling names, or a dot inside a name) are
// an error rather than a panic, and the schema must not be used after one.
func (s *Schema) FreezeChecked() (*Schema, error) {
	if s.frozen {
		panic("schema: Freeze called twice on " + s.Name)
	}
	s.frozen = true
	s.elems = nil
	s.byPath = make(map[string]*Element)
	s.byName = make(map[string][]*Element)
	counter := 0
	var err error
	var walk func(e *Element, level int, prefix string) int
	walk = func(e *Element, level int, prefix string) int {
		e.ID = len(s.elems)
		e.Level = level
		if prefix == "" {
			e.Path = e.Name
		} else {
			e.Path = prefix + "." + e.Name
		}
		if prev, dup := s.byPath[e.Path]; dup {
			if err == nil {
				err = fmt.Errorf("schema %s: duplicate path %q (IDs %d, %d)", s.Name, e.Path, prev.ID, e.ID)
			}
			return 0
		}
		s.elems = append(s.elems, e)
		s.byPath[e.Path] = e
		s.byName[e.Name] = append(s.byName[e.Name], e)
		counter++
		e.start = counter
		size := 1
		for _, c := range e.Children {
			c.Parent = e
			size += walk(c, level+1, e.Path)
		}
		counter++
		e.end = counter
		e.subtreeSize = size
		return size
	}
	walk(s.Root, 0, "")
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Len returns the number of elements in the schema.
func (s *Schema) Len() int { return len(s.elems) }

// Elements returns all elements in preorder (indexed by ID). The returned
// slice must not be modified.
func (s *Schema) Elements() []*Element { return s.elems }

// ByID returns the element with the given ID, or panics if out of range.
func (s *Schema) ByID(id int) *Element { return s.elems[id] }

// ByPath returns the element with the given dotted path, or nil.
func (s *Schema) ByPath(path string) *Element { return s.byPath[path] }

// ByName returns all elements with the given tag name, in preorder. The
// returned slice must not be modified.
func (s *Schema) ByName(name string) []*Element { return s.byName[name] }

// ParseSpec builds a schema from an indentation-based text specification:
// one element name per line, children indented by one more leading tab or
// two more spaces than their parent. Blank lines and lines starting with '#'
// are ignored. Two elements on one dotted path are an error. Example:
//
//	Order
//	  Header
//	    Date
//	  POLine
//	    Quantity
func ParseSpec(name, spec string) (*Schema, error) {
	type frame struct {
		elem  *Element
		depth int
	}
	var s *Schema
	var stack []frame
	for lineNo, raw := range strings.Split(spec, "\n") {
		line := strings.TrimRight(raw, " \t\r")
		if line == "" || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		depth := 0
		for {
			switch {
			case strings.HasPrefix(line, "\t"):
				line = line[1:]
				depth++
			case strings.HasPrefix(line, "  "):
				line = line[2:]
				depth++
			default:
				goto parsed
			}
		}
	parsed:
		elemName := strings.TrimSpace(line)
		if elemName == "" {
			continue
		}
		if s == nil {
			if depth != 0 {
				return nil, fmt.Errorf("schema spec %s: line %d: first element must be unindented", name, lineNo+1)
			}
			s = NewBuilder(name, elemName)
			stack = []frame{{s.Root, 0}}
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].depth >= depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return nil, fmt.Errorf("schema spec %s: line %d: multiple roots", name, lineNo+1)
		}
		parent := stack[len(stack)-1]
		if depth != parent.depth+1 {
			return nil, fmt.Errorf("schema spec %s: line %d: indentation jumps from %d to %d", name, lineNo+1, parent.depth, depth)
		}
		stack = append(stack, frame{parent.elem.AddChild(elemName), depth})
	}
	if s == nil {
		return nil, fmt.Errorf("schema spec %s: empty specification", name)
	}
	return s.FreezeChecked()
}

// Paths returns all element paths, sorted.
func (s *Schema) Paths() []string {
	out := make([]string, 0, len(s.elems))
	for p := range s.byPath {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// SubtreeIDs returns the IDs of all elements in the subtree rooted at the
// element with the given ID, in preorder.
func (s *Schema) SubtreeIDs(id int) []int {
	root := s.elems[id]
	out := make([]int, 0, root.subtreeSize)
	var walk func(e *Element)
	walk = func(e *Element) {
		out = append(out, e.ID)
		for _, c := range e.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}
