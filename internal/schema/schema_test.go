package schema

import (
	"strings"
	"testing"
)

const orderSpec = `
Order
  Header
    Number
    Date
  DeliverTo
    Address
      Street
      City
  Line
    Qty
`

func mustParse(t *testing.T, spec string) *Schema {
	t.Helper()
	s, err := ParseSpec("T", spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseSpecStructure(t *testing.T) {
	s := mustParse(t, orderSpec)
	if s.Len() != 10 {
		t.Fatalf("len = %d, want 10", s.Len())
	}
	if s.Root.Name != "Order" || s.Root.ID != 0 || s.Root.Level != 0 {
		t.Fatalf("root wrong: %+v", s.Root)
	}
	city := s.ByPath("Order.DeliverTo.Address.City")
	if city == nil || city.Level != 3 || !city.IsLeaf() {
		t.Fatalf("City lookup wrong: %+v", city)
	}
	if got := len(s.ByName("Address")); got != 1 {
		t.Fatalf("ByName(Address) = %d entries", got)
	}
	if s.ByPath("Nope") != nil {
		t.Fatal("ByPath on missing path should be nil")
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"# only a comment",
		"A\nB",                 // two roots
		"A\n    Deep",          // indentation jump (2 levels at once)
		"  Indented first",     // root must be unindented
		"A\n  B\n  B",          // duplicate sibling names: one path twice
		"A\n  B.C\n  B\n    C", // a dot in a name makes A.B.C twice
	}
	for _, spec := range bad {
		if _, err := ParseSpec("X", spec); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", spec)
		}
	}
}

func TestIDsArePreorder(t *testing.T) {
	s := mustParse(t, orderSpec)
	for i, e := range s.Elements() {
		if e.ID != i {
			t.Fatalf("element %s has ID %d at position %d", e.Path, e.ID, i)
		}
		if s.ByID(e.ID) != e {
			t.Fatalf("ByID(%d) mismatch", e.ID)
		}
	}
	// Preorder: every element's ID is greater than its parent's.
	for _, e := range s.Elements() {
		if e.Parent != nil && e.ID <= e.Parent.ID {
			t.Fatalf("preorder violated at %s", e.Path)
		}
	}
}

func TestSubtreeSizeAndIDs(t *testing.T) {
	s := mustParse(t, orderSpec)
	if got := s.Root.SubtreeSize(); got != 10 {
		t.Fatalf("root subtree = %d", got)
	}
	addr := s.ByPath("Order.DeliverTo.Address")
	if got := addr.SubtreeSize(); got != 3 {
		t.Fatalf("Address subtree = %d", got)
	}
	ids := s.SubtreeIDs(addr.ID)
	if len(ids) != 3 || ids[0] != addr.ID {
		t.Fatalf("SubtreeIDs = %v", ids)
	}
	for _, id := range ids {
		if !addr.Contains(s.ByID(id)) {
			t.Fatalf("SubtreeIDs returned non-descendant %d", id)
		}
	}
}

func TestAncestry(t *testing.T) {
	s := mustParse(t, orderSpec)
	order := s.Root
	city := s.ByPath("Order.DeliverTo.Address.City")
	street := s.ByPath("Order.DeliverTo.Address.Street")
	if !order.IsAncestorOf(city) {
		t.Fatal("root must be ancestor of City")
	}
	if city.IsAncestorOf(order) || city.IsAncestorOf(street) || street.IsAncestorOf(city) {
		t.Fatal("false ancestry")
	}
}

// TestLeavesHeightFanout checks the shape Freeze records on each element:
// which are leaves, each level, and the children lists.
func TestLeavesHeightFanout(t *testing.T) {
	s := mustParse(t, orderSpec)
	leaves, height, fanout := 0, 0, 0
	for _, e := range s.Elements() {
		if e.IsLeaf() {
			leaves++
		}
		height = max(height, e.Level)
		fanout = max(fanout, len(e.Children))
	}
	if leaves != 5 || height != 3 || fanout != 3 {
		t.Fatalf("leaves, height, fanout = %d, %d, %d; want 5, 3, 3", leaves, height, fanout)
	}
}

func TestFreezePanicsOnDuplicatePath(t *testing.T) {
	b := NewBuilder("X", "r")
	b.Root.AddChild("a")
	b.Root.AddChild("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate sibling names")
		}
	}()
	b.Freeze()
}

func TestFreezePanicsTwice(t *testing.T) {
	b := NewBuilder("X", "r")
	b.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double freeze")
		}
	}()
	b.Freeze()
}

func TestParseSpecTabsAndComments(t *testing.T) {
	spec := "Order\n\tHeader\n\t\tDate\n# a comment\n\n\tLine"
	s, err := ParseSpec("T", spec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4: %s", s.Len(), strings.Join(s.Paths(), ","))
	}
}
