package xmltree

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"
)

// reviseOneLeaf opens a document, rewrites one leaf's text under a single
// child of the root, and returns the committed successor together with a
// weak pointer to the superseded root. The base document goes out of
// scope on return, and so does the change set that names it.
func reviseOneLeaf(t *testing.T) (*Document, weak.Pointer[Node]) {
	t.Helper()
	base, err := ParseString(`<root><head><id>1</id><date>d</date></head><line><qty>3</qty></line><line><qty>4</qty></line></root>`)
	if err != nil {
		t.Fatal(err)
	}
	old := weak.Make(base.Root)
	rev := base.BeginRevision()
	if err := rev.SetText(base.NodesByPath("root.head.id")[0].Start, "2"); err != nil {
		t.Fatal(err)
	}
	next, _ := rev.Commit()
	return next, old
}

// TestWriteReleasesSupersededRoot: a write clones the spine to its target
// and shares every other subtree with its successor; nothing the
// successor shares may reach the clone's original, so the superseded
// version is garbage as soon as its last reader lets go.
func TestWriteReleasesSupersededRoot(t *testing.T) {
	next, old := reviseOneLeaf(t)
	runtime.GC()
	runtime.GC()
	if old.Value() != nil {
		t.Fatal("the superseded root is still reachable from its successor")
	}
	if got := next.NodesByPath("root.head.id")[0].Text; got != "2" {
		t.Fatalf("successor text %q", got)
	}
	runtime.KeepAlive(next)
}

// internedPaths fails t unless every node of d on one dotted path, and
// the path index's key for it, share one backing string. It returns the
// backing arrays of the dotted (non-root) paths.
func internedPaths(t *testing.T, what string, d *Document) map[*byte]bool {
	t.Helper()
	backing := make(map[string]*byte)
	for _, n := range d.Nodes() {
		p := unsafe.StringData(n.Path)
		if q, ok := backing[n.Path]; ok && q != p {
			t.Fatalf("%s: two strings for path %q", what, n.Path)
		}
		backing[n.Path] = p
	}
	for _, key := range d.Paths() {
		if unsafe.StringData(key) != backing[key] {
			t.Fatalf("%s: the path index keys %q by a string of its own", what, key)
		}
		for _, n := range d.NodesByPath(key) {
			if unsafe.StringData(n.Path) != backing[key] {
				t.Fatalf("%s: a node indexed under %q has a string of its own", what, key)
			}
		}
	}
	out := make(map[*byte]bool)
	for path, p := range backing {
		if strings.Contains(path, ".") {
			out[p] = true
		}
	}
	return out
}

// TestPathsInternedPerLineage: a document holds one string per distinct
// path, whether it was parsed, built, assembled or revised, and the
// string is the document lineage's own: two documents built separately
// share none.
func TestPathsInternedPerLineage(t *testing.T) {
	const xml = `<root><head><id>1</id></head><line><qty>3</qty><item><sku>a</sku></item></line><line><qty>4</qty><item><sku>b</sku></item></line></root>`
	parsed, err := ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	ownParsed := internedPaths(t, "parsed", parsed)

	built := NewRoot("root")
	for i := 0; i < 3; i++ {
		line := built.AddChild("line")
		line.AddChild("qty")
		line.AddChild("item").AddChild("sku")
	}
	internedPaths(t, "built", New(built))

	assembled, err := Assemble(specsOf(parsed), parsed.NumBase())
	if err != nil {
		t.Fatal(err)
	}
	internedPaths(t, "assembled", assembled)

	// A revision inserts a fragment with two nodes on a path the document
	// lacks and one on a path it has, then renames a subtree onto an
	// existing path and another onto a new one.
	rev := parsed.BeginRevision()
	frag, err := ParseString(`<line><note>x</note><note>y</note><qty>5</qty></line>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := rev.InsertSubtree(parsed.Root.Start, 0, frag.Root); err != nil {
		t.Fatal(err)
	}
	if err := rev.Rename(parsed.NodesByPath("root.head")[0].Start, "line"); err != nil {
		t.Fatal(err)
	}
	if err := rev.Rename(parsed.NodesByPath("root.line.item")[1].Start, "part"); err != nil {
		t.Fatal(err)
	}
	revised, _ := rev.Commit()
	if len(revised.NodesByPath("root.line.note")) != 2 || len(revised.NodesByPath("root.line.part.sku")) != 1 {
		t.Fatalf("revision did not apply: paths %v", revised.Paths())
	}
	internedPaths(t, "revised", revised)

	again, err := ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	for p := range internedPaths(t, "parsed again", again) {
		if ownParsed[p] {
			t.Fatal("two documents parsed separately share a path string: the table is not per lineage")
		}
	}
}
