package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xmatch/internal/delta"
	"xmatch/internal/index"
	"xmatch/internal/xmltree"
)

// editedState builds a document that has lived: parsed, indexed, and
// mutated through the delta layer, so its numbering has holes and its
// numBase sits above the original preorder range — the state a real
// checkpoint captures.
func editedState(t testing.TB) *delta.Snapshot {
	t.Helper()
	doc, err := xmltree.ParseString(`<r><a>1</a><b><c>x</c><c>y</c></b><d>z</d></r>`)
	if err != nil {
		t.Fatal(err)
	}
	h := delta.Open(doc)
	for _, b := range [][]delta.Edit{
		{{Op: delta.OpSetText, Path: "r.a", Text: "2"}},
		{{Op: delta.OpInsert, Path: "r.b", XML: "<c><e>deep</e></c>", Pos: -1}},
		{{Op: delta.OpDelete, Path: "r.d"}},
		{{Op: delta.OpRename, Path: "r.a", Label: "a2"}},
	} {
		if _, err := h.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	return h.Snapshot()
}

// testdataBlob reads a blob checked in under testdata/.
func testdataBlob(t testing.TB, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestCheckpointRoundTrip(t *testing.T) {
	snap := editedState(t)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, snap.Doc, snap.Epoch); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertRestored(t, ck, snap)
	// The rebuilt index is the saved state's index, posting for posting.
	if !reflect.DeepEqual(ck.Index.Snapshot(), snap.Index.Snapshot()) {
		t.Fatal("rebuilt index differs from the saved state's index")
	}
	// A restored shard keeps editing from where it left off: numbering
	// continuity means Start-addressed edits recorded later still resolve.
	h := delta.Open(ck.Doc)
	s2, err := h.Apply([]delta.Edit{{Op: delta.OpSetText, Path: "r.a2", Text: "3"}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Epoch != snap.Epoch+1 {
		t.Fatalf("post-restore epoch %d, want %d", s2.Epoch, snap.Epoch+1)
	}
}

// TestIndexGoldenRoundTrip: the index's persisted form is its document.
// Save → load yields identical postings, path and value alike, and the
// encoded bytes are stable across two saves.
func TestIndexGoldenRoundTrip(t *testing.T) {
	doc, err := xmltree.ParseString(`<PO>
		<Line><Num>1</Num><Qty>3</Qty></Line>
		<Line><Num>2</Num><Qty>7</Qty></Line>
	</PO>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	var buf, buf2 bytes.Buffer
	if err := SaveCheckpoint(&buf, doc, ix.Epoch()); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(&buf2, doc, ix.Epoch()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two saves of the same index produced different bytes")
	}
	ck, err := LoadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := ck.Index
	if !reflect.DeepEqual(got.Paths(), ix.Paths()) {
		t.Errorf("paths differ after round trip: %v vs %v", got.Paths(), ix.Paths())
	}
	for _, p := range ix.Paths() {
		if !reflect.DeepEqual(got.Postings(p), ix.Postings(p)) {
			t.Errorf("postings for %q differ after round trip", p)
		}
	}
	if !reflect.DeepEqual(got.ValuePostings("PO.Line.Qty", "7"), ix.ValuePostings("PO.Line.Qty", "7")) {
		t.Error("value postings differ after round trip")
	}
	st := got.Stats()
	if st.Postings != doc.Len() || st.ResidentBytes <= 0 {
		t.Errorf("reloaded stats implausible: %+v", st)
	}
}

// assertRestored checks that ck restores snap's state: epoch, document,
// exact numbering and numbering base, and an installed index carrying the
// epoch, ready for delta.Open/Adopt.
func assertRestored(t *testing.T, ck *Checkpoint, snap *delta.Snapshot) {
	t.Helper()
	if ck.Epoch != snap.Epoch {
		t.Fatalf("epoch %d, want %d", ck.Epoch, snap.Epoch)
	}
	if got, want := ck.Doc.String(), snap.Doc.String(); got != want {
		t.Fatalf("document diverged:\n%s\nvs\n%s", got, want)
	}
	// Numbering must be preserved exactly — Start-addressed edits and
	// byte-identical replication depend on it — not merely structure.
	orig, rest := snap.Doc.Nodes(), ck.Doc.Nodes()
	if len(orig) != len(rest) {
		t.Fatalf("%d nodes restored, want %d", len(rest), len(orig))
	}
	for i := range orig {
		if orig[i].Start != rest[i].Start || orig[i].End != rest[i].End {
			t.Fatalf("node %d renumbered: (%d,%d) -> (%d,%d)",
				i, orig[i].Start, orig[i].End, rest[i].Start, rest[i].End)
		}
	}
	if ck.Doc.NumBase() != snap.Doc.NumBase() {
		t.Fatalf("numBase %d, want %d", ck.Doc.NumBase(), snap.Doc.NumBase())
	}
	if index.For(ck.Doc) != ck.Index {
		t.Fatal("restored index not installed on restored document")
	}
	if ck.Index.Epoch() != snap.Epoch {
		t.Fatalf("restored index epoch %d, want %d", ck.Index.Epoch(), snap.Epoch)
	}
}

// TestCheckpointIndexPayloadSkipped loads a checkpoint of editedState
// checked in from a build that still wrote the index into the blob (the
// v7 layout with an index payload). gob skips the payload; the document,
// its numbering, the numbering base and the epoch come back exactly, and
// re-saving yields today's bytes for the same state.
func TestCheckpointIndexPayloadSkipped(t *testing.T) {
	snap := editedState(t)
	old := testdataBlob(t, "checkpoint-v7-index.blob")
	ck, err := LoadCheckpoint(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	assertRestored(t, ck, snap)
	var resaved, today bytes.Buffer
	if err := SaveCheckpoint(&resaved, ck.Doc, ck.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(&today, snap.Doc, snap.Epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), today.Bytes()) {
		t.Fatal("old-layout checkpoint re-saves differently from the same state")
	}
	// The checked-in blob must really carry the index payload.
	if len(today.Bytes()) >= len(old) {
		t.Errorf("document-only blob (%dB) not smaller than the old layout (%dB)", today.Len(), len(old))
	}
}

func TestCheckpointDeterminism(t *testing.T) {
	// Two saves of the same state are byte-identical, and a save of the
	// *restored* state equals a save of the original — the property that
	// lets replication tests compare primary and replica state by
	// comparing checkpoint bytes.
	snap := editedState(t)
	var a, b bytes.Buffer
	if err := SaveCheckpoint(&a, snap.Doc, snap.Epoch); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(&b, snap.Doc, snap.Epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same state differ")
	}
	ck, err := LoadCheckpoint(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := SaveCheckpoint(&c, ck.Doc, ck.Epoch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("restored state saves differently than the original")
	}
}

func TestCheckpointCorruption(t *testing.T) {
	snap := editedState(t)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, snap.Doc, snap.Epoch); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":             {},
		"bad magic":         append([]byte("XMATCH9\n"), good[len(magic):]...),
		"truncated payload": good[: len(good)-7 : len(good)-7],
	}
	// Kind confusion: an edit log is not a checkpoint.
	var lg bytes.Buffer
	if err := CreateEditLogAt(&lg, 0); err != nil {
		t.Fatal(err)
	}
	cases["wrong kind"] = lg.Bytes()
	// Future version.
	var future bytes.Buffer
	if err := writeHeaderVersion(&future, "checkpoint", version+1); err != nil {
		t.Fatal(err)
	}
	cases["future version"] = future.Bytes()

	for name, data := range cases {
		_, err := LoadCheckpoint(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: load succeeded", name)
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v (%T) is not a *FormatError", name, err, err)
		}
	}
}

func TestCheckpointFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard0.ckpt")
	// Missing file: no checkpoint, not an error.
	if ck, err := LoadCheckpointFile(path); err != nil || ck != nil {
		t.Fatalf("missing file: %v, %v", err, ck)
	}
	snap := editedState(t)
	if err := SaveCheckpointFile(path, snap.Doc, nil, snap.Epoch); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpointFile(path)
	if err != nil || ck == nil {
		t.Fatalf("load: %v, %v", err, ck)
	}
	if ck.Epoch != snap.Epoch || ck.Doc.String() != snap.Doc.String() {
		t.Fatal("file round trip diverged")
	}
	// Overwrite with a later state; the file must follow.
	h := delta.Open(snap.Doc)
	s2, err := h.Apply([]delta.Edit{{Op: delta.OpSetText, Path: "r.a2", Text: "9"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpointFile(path, s2.Doc, nil, s2.Epoch); err != nil {
		t.Fatal(err)
	}
	if ck, err = LoadCheckpointFile(path); err != nil || ck.Epoch != s2.Epoch {
		t.Fatalf("overwrite: %v, epoch %d want %d", err, ck.Epoch, s2.Epoch)
	}
}

// FuzzLoadCheckpoint: a checkpoint blob is the one store blob that arrives
// over the network (/v1/replicate/checkpoint). Whatever the bytes, loading
// yields a *FormatError or a checkpoint whose save → load → save is a
// fixed point; it never panics.
func FuzzLoadCheckpoint(f *testing.F) {
	snap := editedState(f)
	var today bytes.Buffer
	if err := SaveCheckpoint(&today, snap.Doc, snap.Epoch); err != nil {
		f.Fatal(err)
	}
	for _, blob := range [][]byte{today.Bytes(), testdataBlob(f, "checkpoint-v7-index.blob")} {
		f.Add(blob)
		for _, n := range []int{0, len(magic), len(magic) + 5, len(blob) / 2, len(blob) - 1} {
			f.Add(blob[:n])
		}
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		ck, err := LoadCheckpoint(bytes.NewReader(blob))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v (%T) is not a *FormatError", err, err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := SaveCheckpoint(&first, ck.Doc, ck.Epoch); err != nil {
			t.Fatalf("saving a loaded checkpoint: %v", err)
		}
		again, err := LoadCheckpoint(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved checkpoint: %v", err)
		}
		if err := SaveCheckpoint(&second, again.Doc, again.Epoch); err != nil {
			t.Fatalf("re-saving a reloaded checkpoint: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("save -> load -> save is not a fixed point")
		}
	})
}
