package store

// Cross-version blob migration coverage: every blob kind written under an
// older format envelope must still load under the current reader
// (minVersion = 1), with fields that post-date the envelope decoding as
// zero values and fields the reader no longer declares skipped.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/delta"
	"xmatch/internal/mapgen"
)

// saveEditLogLegacy writes an edit-log blob in the pre-v6 payload layout:
// no meta message after the envelope, and records that carry only their
// edits (gob matches by field name, so a legacy record decodes into
// EditRecord with Epoch 0).
func saveEditLogLegacy(w io.Writer, batches [][]delta.Edit, v int) error {
	if err := writeHeaderVersion(w, "editlog", v); err != nil {
		return err
	}
	for _, b := range batches {
		var record bytes.Buffer
		if err := gob.NewEncoder(&record).Encode(struct{ Edits []delta.Edit }{b}); err != nil {
			return err
		}
		var frame [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(frame[:], uint64(record.Len()))
		if _, err := w.Write(frame[:n]); err != nil {
			return err
		}
		if _, err := w.Write(record.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// reversion rewrites a current-format blob's envelope to an older version,
// leaving the payload bytes untouched — exactly what a blob written by an
// older build looks like, since the payload encodings never changed.
func reversion(t *testing.T, blob []byte, kind string, v int) []byte {
	t.Helper()
	tr := &trackingReader{r: bytes.NewReader(blob)}
	buf := make([]byte, len(magic))
	if _, err := tr.Read(buf); err != nil || string(buf) != magic {
		t.Fatalf("blob has no magic: %v", err)
	}
	dec := gob.NewDecoder(tr)
	var h header
	if err := dec.Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Kind != kind {
		t.Fatalf("blob is a %s, want %s", h.Kind, kind)
	}
	rest := new(bytes.Buffer)
	if _, err := rest.ReadFrom(tr); err != nil {
		t.Fatal(err)
	}
	out := new(bytes.Buffer)
	if err := writeHeaderVersion(out, kind, v); err != nil {
		t.Fatal(err)
	}
	out.Write(rest.Bytes())
	return out.Bytes()
}

func TestStoreMigrateAcrossVersions(t *testing.T) {
	d := dataset.MustLoad("D5")
	set, err := mapgen.TopH(d.Matching, 10, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]struct {
		save func(*bytes.Buffer) error
		load func([]byte) error
	}{
		"mappingset": {
			func(b *bytes.Buffer) error { return SaveSet(b, set) },
			func(p []byte) error { _, err := LoadSet(bytes.NewReader(p)); return err },
		},
		"catalog": {
			func(b *bytes.Buffer) error {
				return SaveCatalog(b, &Catalog{Entries: []CatalogEntry{{Name: "x", Dataset: "D1"}}})
			},
			func(p []byte) error { _, err := LoadCatalog(bytes.NewReader(p)); return err },
		},
		"editlog": {
			func(b *bytes.Buffer) error { return CreateEditLogAt(b, 0) },
			func(p []byte) error { _, err := LoadEditLog(bytes.NewReader(p)); return err },
		},
	}
	for kind, k := range kinds {
		var buf bytes.Buffer
		if err := k.save(&buf); err != nil {
			t.Fatalf("%s: save: %v", kind, err)
		}
		for v := minVersion; v <= version; v++ {
			blob := reversion(t, buf.Bytes(), kind, v)
			if kind == "editlog" && v < 6 {
				// Edit-log payloads gained the base-epoch meta message in
				// v6; an old-version log has no meta, so it needs the
				// legacy writer rather than envelope rewriting.
				var legacy bytes.Buffer
				if err := saveEditLogLegacy(&legacy, nil, v); err != nil {
					t.Fatalf("editlog: legacy v%d save: %v", v, err)
				}
				blob = legacy.Bytes()
			}
			if err := k.load(blob); err != nil {
				t.Errorf("%s: v%d envelope rejected: %v", kind, v, err)
			}
		}
		// One past the current version must be rejected as *FormatError.
		err := k.load(reversion(t, buf.Bytes(), kind, version+1))
		var fe *FormatError
		if err == nil || !errors.As(err, &fe) {
			t.Errorf("%s: future envelope accepted or misclassified: %v", kind, err)
		}
	}
}

// TestStoreMigrateEditLogV5 proves a populated pre-v6 edit log — no base
// meta, records without epochs — loads under the v6 reader with base 0
// and implicit epochs 1..n, preserving every batch.
func TestStoreMigrateEditLogV5(t *testing.T) {
	batches := [][]delta.Edit{
		{{Op: delta.OpSetText, Path: "r.a", Text: "2"}},
		{{Op: delta.OpInsert, Path: "r", XML: "<c>x</c>", Pos: -1}},
		{{Op: delta.OpDelete, Path: "r.c"}},
	}
	for v := minVersion; v < 6; v++ {
		var legacy bytes.Buffer
		if err := saveEditLogLegacy(&legacy, batches, v); err != nil {
			t.Fatalf("v%d: save: %v", v, err)
		}
		lg, err := LoadEditLog(bytes.NewReader(legacy.Bytes()))
		if err != nil {
			t.Fatalf("v%d: load: %v", v, err)
		}
		if lg.Base != 0 || lg.Torn {
			t.Fatalf("v%d: base %d, torn %v", v, lg.Base, lg.Torn)
		}
		if len(lg.Records) != len(batches) {
			t.Fatalf("v%d: %d records, want %d", v, len(lg.Records), len(batches))
		}
		for i, rec := range lg.Records {
			if rec.Epoch != uint64(i)+1 {
				t.Errorf("v%d: record %d assigned epoch %d, want %d", v, i, rec.Epoch, i+1)
			}
			if !reflect.DeepEqual(rec.Edits, batches[i]) {
				t.Errorf("v%d: record %d edits diverged", v, i)
			}
		}
	}
}

// TestStoreMigrateCatalogFields: the fields that arrived after v1 decode
// from a manifest under every envelope version. One input is a v7
// manifest checked in from a build whose entries could still name an
// index blob (IndexPath); gob skips that field, and every other field of
// the entry loads intact.
func TestStoreMigrateCatalogFields(t *testing.T) {
	want := &Catalog{Entries: []CatalogEntry{
		{Name: "orders", Dataset: "D7", Mappings: 100, Shards: 4, DocNodes: 20000, DocSeed: 42, Tau: 0.2},
		{Name: "frozen", SetPath: "blobs/frozen.set", DocPath: "blobs/frozen.xml", EditLogPath: "blobs/frozen.editlog", Tau: 0.35},
	}}
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, want); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{
		"current":       buf.Bytes(),
		"v7 with index": testdataBlob(t, "catalog-v7-indexpath.blob"),
	}
	for name, blob := range inputs {
		for v := minVersion; v <= version; v++ {
			got, err := LoadCatalog(bytes.NewReader(reversion(t, blob, "catalog", v)))
			if err != nil {
				t.Fatalf("%s as v%d: %v", name, v, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s as v%d: entries diverged:\ngot  %+v\nwant %+v", name, v, got.Entries, want.Entries)
			}
		}
	}
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

// TestStoreMigrateCatalogV4Shards: the shard count arrived with manifest
// v5. A sharded entry round-trips under the current version; a v4 manifest
// — written before the field existed — decodes with Shards 0 (a
// single-document collection); and the new validation rules reject
// malformed shard counts as *FormatError.
func TestStoreMigrateCatalogV4Shards(t *testing.T) {
	man := &Catalog{Entries: []CatalogEntry{
		{Name: "corpus", Dataset: "D7", Shards: 4, DocNodes: 20000},
		{Name: "single", Dataset: "D1"},
	}}
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, man); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCatalog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("v%d round trip: %v", version, err)
	}
	if got.Entries[0].Shards != 4 || got.Entries[1].Shards != 0 {
		t.Fatalf("shard counts lost in round trip: %+v", got.Entries)
	}

	// A genuine v4 manifest carries no Shards field in its payload (gob
	// omits zero fields, and old writers had no field at all), so the
	// pre-shards manifest re-enveloped at v4 is byte-equivalent to one an
	// old build wrote. It must load with Shards 0 on every entry.
	old := &Catalog{Entries: []CatalogEntry{{Name: "corpus", Dataset: "D7", DocNodes: 20000}}}
	var obuf bytes.Buffer
	if err := SaveCatalog(&obuf, old); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCatalog(bytes.NewReader(reversion(t, obuf.Bytes(), "catalog", 4)))
	if err != nil {
		t.Fatalf("v4 manifest under v5 reader: %v", err)
	}
	if got.Entries[0].Shards != 0 {
		t.Fatalf("v4 manifest decoded with Shards %d, want 0", got.Entries[0].Shards)
	}

	for name, bad := range map[string]*Catalog{
		"negative shards":    {Entries: []CatalogEntry{{Name: "x", Dataset: "D1", Shards: -1}}},
		"blob-backed shards": {Entries: []CatalogEntry{{Name: "x", SetPath: "b.set", Shards: 2}}},
	} {
		err := bad.Validate()
		var fe *FormatError
		if err == nil || !errors.As(err, &fe) {
			t.Errorf("%s: accepted or misclassified: %v", name, err)
		}
	}
}
