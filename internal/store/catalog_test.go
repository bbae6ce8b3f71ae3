package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"testing"
)

func testCatalog() *Catalog {
	return &Catalog{Entries: []CatalogEntry{
		{Name: "orders", Dataset: "D7", Mappings: 100, DocNodes: 3473, DocSeed: 42, Tau: 0.2},
		{Name: "small", Dataset: "D1", Mappings: 20, DocNodes: 600, DocSeed: 7},
		{Name: "frozen", SetPath: "blobs/frozen.set", DocPath: "blobs/frozen.xml", Tau: 0.35},
	}}
}

// TestCatalogGoldenRoundTrip: write → read → deep-equal, and the encoded
// bytes must be stable across two saves of the same manifest (so manifests
// can be content-addressed or diffed).
func TestCatalogGoldenRoundTrip(t *testing.T) {
	want := testCatalog()
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, want); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := SaveCatalog(&buf2, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("two saves of the same catalog produced different bytes")
	}
	got, err := LoadCatalog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCatalogV1Compatibility: a manifest under the version-1 envelope is
// a *FormatError, not a silent decode, and so is one under a future
// version; the same payload under the current envelope loads unchanged.
func TestCatalogV1Compatibility(t *testing.T) {
	man := &Catalog{Entries: []CatalogEntry{
		{Name: "orders", Dataset: "D7", Mappings: 100},
		{Name: "frozen", SetPath: "blobs/frozen.set"},
	}}
	encode := func(v int) []byte {
		var buf bytes.Buffer
		if err := writeHeaderVersion(&buf, "catalog", v); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(&buf).Encode(man); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got, err := LoadCatalog(bytes.NewReader(encode(version)))
	if err != nil {
		t.Fatalf("current manifest rejected: %v", err)
	}
	if !reflect.DeepEqual(got, man) {
		t.Errorf("current manifest round trip mismatch: %+v", got)
	}
	for _, v := range []int{1, version + 1} {
		_, err := LoadCatalog(bytes.NewReader(encode(v)))
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("v%d manifest accepted or misclassified: %v", v, err)
		}
	}
}

// TestCatalogFieldsRoundTrip: every catalog entry field survives a save
// and load. One input is a manifest checked in from a build whose entries
// could still name an index blob (IndexPath); gob skips that field, and
// every other field of the entry loads intact.
func TestCatalogFieldsRoundTrip(t *testing.T) {
	want := &Catalog{Entries: []CatalogEntry{
		{Name: "orders", Dataset: "D7", Mappings: 100, Shards: 4, DocNodes: 20000, DocSeed: 42, Tau: 0.2},
		{Name: "frozen", SetPath: "blobs/frozen.set", DocPath: "blobs/frozen.xml", EditLogPath: "blobs/frozen.editlog", Tau: 0.35},
	}}
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, want); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		"current":          buf.Bytes(),
		"with index blobs": testdataBlob(t, "catalog-v7-indexpath.blob"),
	} {
		got, err := LoadCatalog(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: entries diverged:\ngot  %+v\nwant %+v", name, got.Entries, want.Entries)
		}
	}
}

// TestCatalogIndexPathValidation: an index path in an older manifest is
// never validated or kept, since the index is always built from the
// entry's document. A built-in entry naming an index — once rejected —
// now loads; the entry's other rules still hold.
func TestCatalogIndexPathValidation(t *testing.T) {
	type legacyEntry struct{ Name, Dataset, SetPath, IndexPath string }
	encode := func(entries ...legacyEntry) []byte {
		var buf bytes.Buffer
		if err := writeHeader(&buf, "catalog"); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(&buf).Encode(struct{ Entries []legacyEntry }{entries}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got, err := LoadCatalog(bytes.NewReader(encode(
		legacyEntry{Name: "a", Dataset: "D1", IndexPath: "a.idx"},
		legacyEntry{Name: "b", SetPath: "b.set", IndexPath: "../b.idx"},
	)))
	if err != nil {
		t.Fatalf("manifest naming index blobs rejected: %v", err)
	}
	want := &Catalog{Entries: []CatalogEntry{{Name: "a", Dataset: "D1"}, {Name: "b", SetPath: "b.set"}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entries diverged: %+v", got.Entries)
	}
	// Both a built-in dataset and a set blob: invalid whatever the index.
	_, err = LoadCatalog(bytes.NewReader(encode(legacyEntry{Name: "c", Dataset: "D1", SetPath: "c.set", IndexPath: "c.idx"})))
	var fe *FormatError
	if err == nil || !errors.As(err, &fe) {
		t.Errorf("invalid entry naming an index accepted or misclassified: %v", err)
	}
}

// TestCatalogCorruptedHeader: flipping bytes in the magic or header region
// must yield a typed *FormatError, never a panic.
func TestCatalogCorruptedHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, testCatalog()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := map[string][]byte{
		"empty":                 {},
		"short magic":           good[:3],
		"flipped magic":         append([]byte("YMATCH1\n"), good[len(magic):]...),
		"truncated after magic": good[:len(magic)+2],
		"garbage header":        append([]byte(magic), bytes.Repeat([]byte{0xff}, 32)...),
	}
	for name, data := range cases {
		_, err := LoadCatalog(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: load succeeded", name)
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v (%T) is not a *FormatError", name, err, err)
		}
	}
	// Wrong kind: a mapping-set blob is not a catalog.
	if _, err := LoadCatalog(bytes.NewReader(wrongKindBlob(t))); err == nil {
		t.Error("loading a non-catalog blob as catalog succeeded")
	} else {
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("wrong kind: error %v is not a *FormatError", err)
		}
	}
}

// wrongKindBlob builds a valid blob of a different kind.
func wrongKindBlob(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHeader(&buf, "mappingset"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// failAfterReader yields n good bytes, then fails like a flaky device.
type failAfterReader struct {
	r io.Reader
	n int
}

func (f *failAfterReader) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("device hiccup")
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	n, err := f.r.Read(p)
	f.n -= n
	return n, err
}

// TestErrorClassification: truncation is corruption (*FormatError, with
// the io sentinel preserved on the chain); a genuine read failure — at
// byte 0, mid-magic, or mid-payload — is never classified as corruption.
func TestErrorClassification(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, testCatalog()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	_, err := LoadCatalog(bytes.NewReader(good[:3]))
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("truncated blob: error %v is not a *FormatError", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated blob: %v does not preserve io.ErrUnexpectedEOF on the chain", err)
	}
	// Read failures at various offsets: before the magic, inside it, and
	// deep inside the gob payload.
	for _, n := range []int{0, 3, len(magic) + 5, len(good) - 4} {
		_, err = LoadCatalog(&failAfterReader{r: bytes.NewReader(good), n: n})
		if err == nil {
			t.Fatalf("read failure after %d bytes: load succeeded", n)
		}
		if errors.As(err, &fe) {
			t.Errorf("read failure after %d bytes misclassified as corruption: %v", n, err)
		}
	}
}

func TestCatalogValidation(t *testing.T) {
	cases := map[string]*Catalog{
		"no entries":         {},
		"unnamed":            {Entries: []CatalogEntry{{Dataset: "D1"}}},
		"duplicate name":     {Entries: []CatalogEntry{{Name: "a", Dataset: "D1"}, {Name: "a", Dataset: "D2"}}},
		"no source":          {Entries: []CatalogEntry{{Name: "a"}}},
		"two sources":        {Entries: []CatalogEntry{{Name: "a", Dataset: "D1", SetPath: "x.set"}}},
		"bad tau":            {Entries: []CatalogEntry{{Name: "a", Dataset: "D1", Tau: 1.5}}},
		"negative shards":    {Entries: []CatalogEntry{{Name: "a", Dataset: "D1", Shards: -1}}},
		"blob-backed shards": {Entries: []CatalogEntry{{Name: "a", SetPath: "b.set", Shards: 2}}},
	}
	for name, c := range cases {
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: validated", name)
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *FormatError", name, err)
		}
		if err := SaveCatalog(&bytes.Buffer{}, c); err == nil {
			t.Errorf("%s: SaveCatalog accepted invalid catalog", name)
		}
	}
}
