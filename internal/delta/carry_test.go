package delta_test

// The warm-memo differential behind result-memo carry-over. The postings
// differential (differential_test.go) parses a fresh pattern per probe, so
// its evaluations never hit the memo; here a fixed set of patterns and
// bindings is retained for the life of a handle, the way the engine's
// prepared-query cache retains them, so every epoch after the first serves
// most answers from entries carried over from its predecessor — and every
// one of them must still equal what a from-scratch index over the snapshot
// computes, on the fields every consumer of matcher output reads.

import (
	"encoding/xml"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/index"
	"xmatch/internal/mapgen"
	"xmatch/internal/mapping"
	"xmatch/internal/oracle"
	"xmatch/internal/schema"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// probe is one retained evaluation: a pattern and the binding of its nodes
// to document paths, as a mapping's rewrite would produce it.
type probe struct {
	name  string
	root  *twig.Node
	paths twig.PathBinding
}

// carryProbes binds a handful of retained patterns over carryDoc's shape:
// header leaves (few nodes, the kind of path a selective twig binds), line
// leaves (many nodes), a value predicate, a single-node pattern, and a path
// that exists only after a rename.
func carryProbes() []probe {
	mk := func(name, pattern string, paths ...string) probe {
		p := twig.MustParse(pattern)
		b := twig.PathBinding{}
		for i, n := range p.Nodes() {
			b[n] = paths[i]
		}
		return probe{name: name, root: p.Root, paths: b}
	}
	return []probe{
		mk("header leaf", `a/b/c`, "r", "r.h", "r.h.e"),
		mk("header branch", `a/b[./c]/d`, "r", "r.h", "r.h.s", "r.h.c"),
		mk("line leaf", `a/b/c`, "r", "r.l", "r.l.q"),
		mk("line value", `a/b[./c="t1"]/d`, "r", "r.l", "r.l.p", "r.l.q"),
		mk("deep single", `a`, "r.l.d.u"),
		mk("deep pair", `a/b`, "r.l", "r.l.d.u"),
		mk("renamed", `a/b/c`, "r", "r.l", "r.l.x"),
	}
}

// carryDoc builds <r><h><e/><s/><c/></h> followed by lines of
// <l><q/><p/><d><u/></d></l>.
func carryDoc(lines int) *xmltree.Document {
	var b strings.Builder
	b.WriteString(`<r><h><e>e0</e><s>s0</s><c>c0</c></h>`)
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, `<l><q>t%d</q><p>t%d</p><d><u>u%d</u></d></l>`, i%4, (i+1)%4, i)
	}
	b.WriteString(`</r>`)
	doc, err := xmltree.ParseString(b.String())
	if err != nil {
		panic(err)
	}
	return doc
}

// carryEdit draws one edit against the current snapshot: settexts on and
// off the bound header leaves, inserts (random position, and repeatedly at
// one spot so the numbering gap there runs out and a subtree renumbers),
// deletes and renames.
func carryEdit(rng *rand.Rand, doc *xmltree.Document, i int) delta.Edit {
	pick := func(path string) (int, bool) {
		n := len(doc.NodesByPath(path))
		if n == 0 {
			return 0, false
		}
		return rng.Intn(n), true
	}
	text := fmt.Sprintf("t%d", rng.Intn(4))
	switch rng.Intn(10) {
	case 0, 1:
		leaf := []string{"r.h.e", "r.h.s", "r.h.c"}[rng.Intn(3)]
		return delta.Edit{Op: delta.OpSetText, Path: leaf, Text: fmt.Sprintf("h%d", i)}
	case 2, 3:
		leaf := []string{"r.l.q", "r.l.p", "r.l.d.u"}[rng.Intn(3)]
		if ord, ok := pick(leaf); ok {
			return delta.Edit{Op: delta.OpSetText, Path: leaf, Ordinal: ord, Text: text}
		}
	case 4:
		line := `<l><q>` + text + `</q><p>t1</p><d><u>new</u></d></l>`
		return delta.Edit{Op: delta.OpInsert, Path: "r", Pos: rng.Intn(len(doc.Root.Children) + 1), XML: line}
	case 5, 6: // always right after the header: exhausts that gap
		return delta.Edit{Op: delta.OpInsert, Path: "r", Pos: 1, XML: `<l><q>` + text + `</q></l>`}
	case 7:
		if n := len(doc.NodesByPath("r.l")); n > 4 {
			return delta.Edit{Op: delta.OpDelete, Path: "r.l", Ordinal: rng.Intn(n)}
		}
	case 8:
		if ord, ok := pick("r.l.p"); ok {
			return delta.Edit{Op: delta.OpRename, Path: "r.l.p", Ordinal: ord, Label: "x"}
		}
	case 9:
		if ord, ok := pick("r.l.x"); ok {
			return delta.Edit{Op: delta.OpRename, Path: "r.l.x", Ordinal: ord, Label: "p"}
		}
	}
	return delta.Edit{Op: delta.OpSetText, Path: "r.h.e", Text: fmt.Sprintf("h%d", i)}
}

// sameAnswer compares two match lists on what consumers of matcher output
// read: Match.Key (pattern index and Start of every binding) plus the
// region, Level, Path and Text of every bound node — never the node or
// pattern objects, which a carried entry, a fresh evaluation and the
// oracle's copy legitimately differ in.
func sameAnswer(got, want []twig.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			return fmt.Errorf("match %d: key differs", i)
		}
		for j, g := range got[i] {
			w := want[i][j]
			if g.Q.Index != w.Q.Index || g.D.End != w.D.End || g.D.Level != w.D.Level || g.D.Path != w.D.Path || g.D.Text != w.D.Text {
				return fmt.Errorf("match %d binding %d: %q@%d:%d %q, want %q@%d:%d %q",
					i, j, g.D.Path, g.D.Start, g.D.End, g.D.Text, w.D.Path, w.D.Start, w.D.End, w.D.Text)
			}
		}
	}
	return nil
}

func TestCarriedMemoMatchesRebuild(t *testing.T) {
	batches := 400
	if testing.Short() {
		batches = 120
	}
	rng := rand.New(rand.NewSource(18))
	probes := carryProbes()
	h := delta.Open(carryDoc(24))
	check := func(step int, snap *delta.Snapshot) {
		t.Helper()
		fresh := index.Build(snap.Doc)
		for _, p := range probes {
			got := snap.Index.MatchTwig(snap.Doc, p.root, p.paths)
			if err := sameAnswer(got, fresh.MatchTwig(snap.Doc, p.root, p.paths)); err != nil {
				t.Fatalf("batch %d epoch %d, %s: memo-served answer diverged from a rebuild: %v", step, snap.Epoch, p.name, err)
			}
		}
	}
	check(-1, h.Snapshot())
	compactions := 0
	for b := 0; b < batches; b++ {
		cur := h.Snapshot()
		edits := make([]delta.Edit, 1+rng.Intn(3))
		for i := range edits {
			edits[i] = carryEdit(rng, cur.Doc, b)
		}
		snap, err := h.Apply(edits)
		if err != nil {
			// A later edit's ordinal can fall off the end once an earlier
			// one deleted or renamed its neighbour; one edit always applies.
			if snap, err = h.Apply(edits[:1]); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
		}
		if snap.Index.Stats().Overlays == 0 {
			compactions++
		}
		check(b, snap)
	}
	if compactions < 3 {
		t.Fatalf("crossed %d base compactions, want at least 3", compactions)
	}
	c := h.Snapshot().Index.Counters()
	if c.MemoCarried == 0 || c.MemoDropped == 0 || c.MemoHits == 0 {
		t.Fatalf("the mechanism never fired: carried %d, dropped %d, hits %d", c.MemoCarried, c.MemoDropped, c.MemoHits)
	}
	// Every probe is evaluated once per epoch, so a hit is an answer served
	// from a carried entry; the edit mix leaves at least the header probes
	// alone most of the time.
	if c.MemoHits < uint64(batches) {
		t.Fatalf("%d carried answers over %d batches: carry-over is not carrying", c.MemoHits, batches)
	}
}

// TestPinnedSnapshotKeepsItsMemo: a write that invalidates an entry for the
// next epoch leaves the pinned epoch's answer — and its memo hit — alone,
// and the next epoch uses the entries the write did not touch without an
// evaluation. A reader pinned below every kept version of an entry misses
// and leaves the newer version in place.
func TestPinnedSnapshotKeepsItsMemo(t *testing.T) {
	probes := carryProbes()
	header, line := probes[0], probes[2]
	h := delta.Open(carryDoc(8))
	s0 := h.Snapshot()
	before := s0.Index.MatchTwig(s0.Doc, header.root, header.paths)
	s0.Index.MatchTwig(s0.Doc, line.root, line.paths)
	if len(before) != 1 || before[0][2].D.Text != "e0" {
		t.Fatalf("unexpected header answer %v", before)
	}

	s1, err := h.Apply([]delta.Edit{{Op: delta.OpSetText, Path: "r.h.e", Text: "e1"}})
	if err != nil {
		t.Fatal(err)
	}
	c0 := s1.Index.Counters() // one chain, one set of counters
	// The pinned epoch: same answer, from the memo.
	if err := sameAnswer(s0.Index.MatchTwig(s0.Doc, header.root, header.paths), before); err != nil {
		t.Fatalf("pinned snapshot's answer changed under a later write: %v", err)
	}
	// The new epoch: the untouched entry without an evaluation, the touched
	// one recomputed over the new text.
	s1.Index.MatchTwig(s1.Doc, line.root, line.paths)
	if d := s1.Index.Counters().Sub(c0); d.MemoHits != 2 || d.MemoMisses != 0 {
		t.Fatalf("pinned header + carried line: %d hits, %d misses, want 2 and 0", d.MemoHits, d.MemoMisses)
	}
	after := s1.Index.MatchTwig(s1.Doc, header.root, header.paths)
	d := s1.Index.Counters().Sub(c0)
	if d.MemoMisses != 1 || len(after) != 1 || after[0][2].D.Text != "e1" {
		t.Fatalf("new epoch served a stale header answer: %v (misses %d)", after, d.MemoMisses)
	}
	if d.MemoCarried != 1 || d.MemoDropped != 1 {
		t.Fatalf("first uses after the write carried %d and dropped %d entries, want 1 and 1", d.MemoCarried, d.MemoDropped)
	}
	// s1's recomputed entry superseded s0's, which s0 still hits.
	c1 := s1.Index.Counters()
	if err := sameAnswer(s0.Index.MatchTwig(s0.Doc, header.root, header.paths), before); err != nil {
		t.Fatalf("pinned snapshot's answer changed after a recompute: %v", err)
	}
	if d := s1.Index.Counters().Sub(c1); d.MemoHits != 1 {
		t.Fatalf("pinned header after s1's recompute: %d hits, want 1", d.MemoHits)
	}

	// A second header write: s0 is now below both kept versions, so it
	// misses, and its recompute must not displace s2's entry.
	s2, err := h.Apply([]delta.Edit{{Op: delta.OpSetText, Path: "r.h.e", Text: "e2"}})
	if err != nil {
		t.Fatal(err)
	}
	s2.Index.MatchTwig(s2.Doc, header.root, header.paths)
	c2 := s2.Index.Counters()
	if err := sameAnswer(s0.Index.MatchTwig(s0.Doc, header.root, header.paths), before); err != nil {
		t.Fatalf("pinned snapshot's answer changed after two writes: %v", err)
	}
	if got := s2.Index.MatchTwig(s2.Doc, header.root, header.paths); len(got) != 1 || got[0][2].D.Text != "e2" {
		t.Fatalf("unexpected header answer %v over s2", got)
	}
	if d := s2.Index.Counters().Sub(c2); d.MemoMisses != 1 || d.MemoHits != 1 {
		t.Fatalf("s0 then s2 after two header writes: %d misses and %d hits, want s0 to miss and s2 to hit", d.MemoMisses, d.MemoHits)
	}
}

// TestReadersRaceWriterOverCarriedMemo: eight readers evaluate the retained
// probes over whatever snapshot is current — storing and stamping entries
// of the memo the writer is at that moment handing to the next epoch — and
// check every answer against the unindexed evaluator over the same
// snapshot. Run under -race.
func TestReadersRaceWriterOverCarriedMemo(t *testing.T) {
	probes := carryProbes()
	h := delta.Open(carryDoc(16))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := h.Snapshot()
				p := probes[i%len(probes)]
				got := snap.Index.MatchTwig(snap.Doc, p.root, p.paths)
				if err := sameAnswer(got, twig.MatchByPaths(snap.Doc, p.root, p.paths)); err != nil {
					t.Errorf("epoch %d, %s: %v", snap.Epoch, p.name, err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(8))
	for b := 0; b < 300; b++ {
		if _, err := h.Apply([]delta.Edit{carryEdit(rng, h.Snapshot().Doc, b)}); err != nil {
			t.Errorf("write %d: %v", b, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestBatchResolvesAgainstPredecessors: within a batch, a path+ordinal
// target is resolved against the state its predecessors left — the first
// edit through the base snapshot's path index, the later ones by walking
// the revision.
func TestBatchResolvesAgainstPredecessors(t *testing.T) {
	h, _ := open(t, `<r><a>old</a></r>`)
	snap, err := h.Apply([]delta.Edit{
		{Op: delta.OpInsert, Path: "r", Pos: 0, XML: `<a>new</a>`},
		{Op: delta.OpSetText, Path: "r.a", Ordinal: 0, Text: "first"},
		{Op: delta.OpSetText, Path: "r.a", Ordinal: 1, Text: "second"},
		{Op: delta.OpDelete, Path: "r.a", Ordinal: 0},
		{Op: delta.OpSetText, Path: "r.a", Ordinal: 0, Text: "last"},
	})
	if err != nil {
		t.Fatal(err)
	}
	as := snap.Doc.NodesByPath("r.a")
	if len(as) != 1 || as[0].Text != "last" {
		t.Fatalf("batch left %d r.a nodes (first text %q), want one reading %q", len(as), as[0].Text, "last")
	}
	if _, err := h.Apply([]delta.Edit{
		{Op: delta.OpDelete, Path: "r.a", Ordinal: 0},
		{Op: delta.OpSetText, Path: "r.a", Ordinal: 0, Text: "gone"},
	}); err == nil {
		t.Fatal("an edit resolved against a node its predecessor deleted")
	}
}

// TestCarriedUnitsMatchRebuild is the same differential one level up: the
// evaluation plan's units — matcher calls and joins — live in the same
// memo under the same carry rule. Table III
// and random twigs over D7 are prepared once, as the engine's
// prepared-query cache keeps them, and evaluated through their plans after
// every batch of settext, rename, insert and delete edits on and off the
// paths the units bind, across several compactions. Every answer, full and
// top-k, must equal the oracle's (internal/oracle: Algorithm 3 over a
// fresh, unindexed copy of the snapshot).
func TestCarriedUnitsMatchRebuild(t *testing.T) {
	const batches = 240
	d, err := dataset.Load("D7")
	if err != nil {
		t.Fatal(err)
	}
	set, err := mapgen.TopH(d.Matching, 40, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := core.Build(set, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	var queries []*core.Query
	for _, spec := range dataset.Queries() {
		q, err := core.PrepareQuery(spec.Text, set)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	for len(queries) < 2*len(dataset.Queries()) {
		if q, err := core.PrepareQuery(randomTwig(rng, set.Target.Elements()), set); err == nil {
			queries = append(queries, q)
		}
	}
	bound := map[string]bool{} // every source path a relevant rewrite binds
	for _, q := range queries {
		for _, emb := range q.Embeddings {
			for _, mi := range core.FilterMappings(set, emb) {
				for _, p := range rewrite(q, emb, set, mi) {
					bound[p] = true
				}
			}
		}
	}

	h := delta.Open(d.OrderDocument(500, 5))
	o := oracle.New(t)
	var carriedHits uint64
	check := func(step int, snap *delta.Snapshot) {
		t.Helper()
		before := snap.Index.Counters()
		for _, q := range queries {
			want := o.Results(set, q.Canonical, 0, snap.Doc)
			if err := sameResults(core.Evaluate(q, set, snap.Doc, bt), want); err != nil {
				t.Fatalf("batch %d epoch %d, %s: plan answer diverged from the oracle: %v", step, snap.Epoch, q.Canonical, err)
			}
		}
		// An epoch shares its predecessor's memo, so the first pass's hits
		// are units carried over the write.
		carriedHits += snap.Index.Counters().Sub(before).UnitHits
		for _, q := range queries {
			want := o.Results(set, q.Canonical, 3, snap.Doc)
			if err := sameResults(core.EvaluateTopK(q, set, snap.Doc, bt, 3), want); err != nil {
				t.Fatalf("batch %d epoch %d, %s: top-3 answer diverged from the oracle: %v", step, snap.Epoch, q.Canonical, err)
			}
		}
	}
	check(-1, h.Snapshot())
	compactions := 0
	for b := 0; b < batches; b++ {
		cur := h.Snapshot()
		snap, err := h.Apply([]delta.Edit{unitEdit(rng, cur.Doc, bound)})
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if snap.Index.Stats().Overlays == 0 {
			compactions++
		}
		check(b, snap)
	}
	if compactions < 3 {
		t.Fatalf("crossed %d base compactions, want at least 3", compactions)
	}
	t.Logf("%d compactions, %d carried unit hits", compactions, carriedHits)
	c := h.Snapshot().Index.Counters()
	if c.MemoCarried == 0 || c.MemoDropped == 0 || carriedHits < uint64(batches) {
		t.Fatalf("the mechanism never fired: carried %d, dropped %d, %d carried unit hits over %d batches", c.MemoCarried, c.MemoDropped, carriedHits, batches)
	}
}

// randomTwig draws a twig over the schema's elements: the root path of one
// element, as child steps or with one descendant step, and sometimes a
// branch on a child of one of its ancestors.
func randomTwig(rng *rand.Rand, elems []*schema.Element) string {
	e := elems[rng.Intn(len(elems))]
	var chain []*schema.Element
	for a := e; a != nil; a = a.Parent {
		chain = append([]*schema.Element{a}, chain...)
	}
	var b strings.Builder
	skip := -1
	if len(chain) > 2 && rng.Intn(3) == 0 {
		skip = 1 + rng.Intn(len(chain)-2)
	}
	for i, a := range chain {
		switch {
		case i == skip:
			continue
		case i == skip+1 && i > 0:
			b.WriteString("//")
		case i > 0:
			b.WriteString("/")
		}
		b.WriteString(a.Name)
		if i < len(chain)-1 && len(a.Children) > 1 && rng.Intn(3) == 0 {
			b.WriteString("[./" + a.Children[rng.Intn(len(a.Children))].Name + "]")
		}
	}
	return b.String()
}

// rewrite returns the source paths mapping mi binds the embedded query to,
// in pattern preorder.
func rewrite(q *core.Query, emb twig.Embedding, set *mapping.Set, mi int) []string {
	var paths []string
	for _, qn := range q.Pattern.Nodes() {
		s, _ := set.Mappings[mi].SourceFor(emb[qn.Index])
		paths = append(paths, set.Source.ByID(s).Path)
	}
	return paths
}

func sameResults(got, want []core.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].MappingIndex != want[i].MappingIndex || got[i].Prob != want[i].Prob {
			return fmt.Errorf("result %d: mapping %d p=%v, want mapping %d p=%v", i, got[i].MappingIndex, got[i].Prob, want[i].MappingIndex, want[i].Prob)
		}
		if err := sameAnswer(got[i].Matches, want[i].Matches); err != nil {
			return fmt.Errorf("mapping %d: %v", got[i].MappingIndex, err)
		}
	}
	return nil
}

// unitEdit draws one edit on a node whose path a unit binds, or on one
// whose path none does: a settext, a rename to a sibling's label, an insert
// of a copy of a small subtree beside it, or the deletion of a small subtree.
func unitEdit(rng *rand.Rand, doc *xmltree.Document, bound map[string]bool) delta.Edit {
	parent := map[*xmltree.Node]*xmltree.Node{}
	size := map[*xmltree.Node]int{}
	var walk func(n *xmltree.Node) int
	walk = func(n *xmltree.Node) int {
		size[n] = 1
		for _, c := range n.Children {
			parent[c] = n
			size[n] += walk(c)
		}
		return size[n]
	}
	walk(doc.Root)
	nodes := doc.Nodes()[1:]
	on := rng.Intn(2) == 0
	pick := func(maxSize int) *xmltree.Node {
		for range 100 {
			if n := nodes[rng.Intn(len(nodes))]; bound[n.Path] == on && size[n] <= maxSize {
				return n
			}
		}
		return nodes[rng.Intn(len(nodes))]
	}
	switch rng.Intn(4) {
	case 0:
		if n := pick(8); size[n] <= 8 {
			p := parent[n]
			return delta.Edit{Op: delta.OpRename, Start: n.Start, Label: p.Children[rng.Intn(len(p.Children))].Label}
		}
	case 1:
		if n := pick(12); size[n] <= 12 {
			var b strings.Builder
			writeSubtree(&b, n)
			p := parent[n]
			return delta.Edit{Op: delta.OpInsert, Start: p.Start, Pos: rng.Intn(len(p.Children) + 1), XML: b.String()}
		}
	case 2:
		if n := pick(8); size[n] <= 8 && len(nodes) > 250 {
			return delta.Edit{Op: delta.OpDelete, Start: n.Start}
		}
	}
	return delta.Edit{Op: delta.OpSetText, Start: pick(1 << 30).Start, Text: fmt.Sprintf("v%d", rng.Intn(5))}
}

func writeSubtree(b *strings.Builder, n *xmltree.Node) {
	b.WriteString("<" + n.Label + ">")
	xml.EscapeText(b, []byte(n.Text))
	for _, c := range n.Children {
		writeSubtree(b, c)
	}
	b.WriteString("</" + n.Label + ">")
}
