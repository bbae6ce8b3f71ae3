package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"xmatch/internal/dataset"
	"xmatch/internal/mapgen"
	"xmatch/internal/schema"
)

// TestSchemaRoundTrip: a mapping-set blob carries both schemas, and they
// come back name for name and path for path.
func TestSchemaRoundTrip(t *testing.T) {
	set, err := mapgen.TopH(dataset.MustLoad("D7").Matching, 5, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*schema.Schema{{back.Source, set.Source}, {back.Target, set.Target}} {
		got, want := pair[0], pair[1]
		if got.Name != want.Name || got.Len() != want.Len() {
			t.Fatalf("schema changed: %s/%d, want %s/%d", got.Name, got.Len(), want.Name, want.Len())
		}
		if !reflect.DeepEqual(got.Paths(), want.Paths()) {
			t.Fatalf("schema %s: paths changed through round trip", want.Name)
		}
	}
}

func TestSetRoundTrip(t *testing.T) {
	d := dataset.MustLoad("D5")
	set, err := mapgen.TopH(d.Matching, 25, mapgen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != set.Len() {
		t.Fatalf("len changed: %d", back.Len())
	}
	for i := range set.Mappings {
		a, b := set.Mappings[i], back.Mappings[i]
		if !reflect.DeepEqual(a.Pairs, b.Pairs) {
			t.Fatalf("mapping %d pairs changed", i)
		}
		if math.Abs(a.Prob-b.Prob) > 1e-12 {
			t.Fatalf("mapping %d prob changed: %v vs %v", i, a.Prob, b.Prob)
		}
	}
}

// setBlob is the mapping-set blob of dataset id's top-h mappings.
func setBlob(tb testing.TB, id string, h int) []byte {
	tb.Helper()
	set, err := mapgen.TopH(dataset.MustLoad(id).Matching, h, mapgen.Partition)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSet(&buf, set); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC estofthefile............"),
		[]byte("XMATCH1\n garbage after the magic"),
	}
	for i, data := range cases {
		if _, err := LoadSet(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestLoadRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, &Catalog{Entries: []CatalogEntry{{Name: "x", Dataset: "D1"}}}); err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, err := LoadSet(bytes.NewReader(buf.Bytes())); !errors.As(err, &fe) {
		t.Fatalf("catalog blob read as a mapping set: %v", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	data := setBlob(t, "D1", 10)
	for _, cut := range []int{len(magic) + 2, len(data) / 2, len(data) - 3} {
		if _, err := LoadSet(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestLoadRejectsCorruptedDTO feeds LoadSet well-formed gob whose schema
// does not describe a tree: a parent count that differs from the name
// count, or two elements on one path (as sibling names or through a dot in
// a name). Each must be a *FormatError, not a panic.
func TestLoadRejectsCorruptedDTO(t *testing.T) {
	cases := []struct {
		name   string
		schema schemaDTO
	}{
		{"no parents", schemaDTO{Name: "S", Names: []string{"r"}}},
		{"short parents", schemaDTO{Name: "S", Names: []string{"r", "a", "b"}, Parents: []int32{-1, 0}}},
		{"long parents", schemaDTO{Name: "S", Names: []string{"r"}, Parents: []int32{-1, 0}}},
		{"duplicate siblings", schemaDTO{Name: "S", Names: []string{"r", "a", "a"}, Parents: []int32{-1, 0, 0}}},
		{"duplicate dotted path", schemaDTO{Name: "S", Names: []string{"r", "a.b", "a", "b"}, Parents: []int32{-1, 0, 0, 2}}},
	}
	good := schemaDTO{Name: "T", Names: []string{"t", "x"}, Parents: []int32{-1, 0}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, d := range []setDTO{{Source: c.schema, Target: good}, {Source: good, Target: c.schema}} {
				var buf bytes.Buffer
				if err := writeHeader(&buf, "mappingset"); err != nil {
					t.Fatal(err)
				}
				if err := gob.NewEncoder(&buf).Encode(d); err != nil {
					t.Fatal(err)
				}
				var fe *FormatError
				if _, err := LoadSet(&buf); !errors.As(err, &fe) {
					t.Errorf("LoadSet = %v, want a *FormatError", err)
				}
			}
		})
	}
}

// TestLoadSetByteFlips damages every byte of a mapping-set blob in turn:
// each load returns a set or a *FormatError. Without a checksum many
// flips load with altered content; only a panic or an unclassified error
// fails.
func TestLoadSetByteFlips(t *testing.T) {
	blob := setBlob(t, "D1", 10)
	damaged := make([]byte, len(blob))
	for i := range blob {
		for _, mask := range []byte{0x01, 0x7F, 0x80, 0xFF} {
			copy(damaged, blob)
			damaged[i] ^= mask
			var fe *FormatError
			if _, err := LoadSet(bytes.NewReader(damaged)); err != nil && !errors.As(err, &fe) {
				t.Fatalf("byte %d ^ %#x: %v (%T) is not a *FormatError", i, mask, err, err)
			}
		}
	}
}

func FuzzLoadSet(f *testing.F) {
	blob := setBlob(f, "D1", 10)
	f.Add(blob)
	for _, n := range []int{0, len(magic), len(magic) + 5, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:n])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		set, err := LoadSet(bytes.NewReader(blob))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v (%T) is not a *FormatError", err, err)
			}
			return
		}
		var again bytes.Buffer
		if err := SaveSet(&again, set); err != nil {
			t.Fatalf("saving a loaded set: %v", err)
		}
		back, err := LoadSet(&again)
		if err != nil {
			t.Fatalf("reloading a saved set: %v", err)
		}
		if back.Len() != set.Len() || !reflect.DeepEqual(back.Source.Paths(), set.Source.Paths()) || !reflect.DeepEqual(back.Target.Paths(), set.Target.Paths()) {
			t.Fatal("a loaded set changed through a save and reload")
		}
	})
}

// writeHeaderVersion is writeHeader with an explicit version, for blobs
// of formats this build does not read.
func writeHeaderVersion(w io.Writer, kind string, v int) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(header{Version: v, Kind: kind})
}

// reversion rewrites a current-format blob's envelope to version v,
// leaving the payload bytes untouched.
func reversion(t *testing.T, blob []byte, v int) []byte {
	t.Helper()
	tr := &trackingReader{r: bytes.NewReader(blob)}
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(tr, buf); err != nil || string(buf) != magic {
		t.Fatalf("blob has no magic: %v", err)
	}
	var h header
	if err := gob.NewDecoder(tr).Decode(&h); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := writeHeaderVersion(&out, h.Kind, v); err != nil {
		t.Fatal(err)
	}
	out.Write(blob[tr.n:])
	return out.Bytes()
}

// TestStoreMigrateAcrossVersions: no blob migrates across versions, since
// version 7 is the only format read. Every kind's blob loads at v7, and the
// same payload under any other envelope version — the six before it and the
// next — is a *FormatError.
func TestStoreMigrateAcrossVersions(t *testing.T) {
	snap := editedState(t)
	kinds := map[string]struct {
		save func(*bytes.Buffer) error
		load func(io.Reader) error
	}{
		"mappingset": {
			func(b *bytes.Buffer) error { _, err := b.Write(setBlob(t, "D1", 10)); return err },
			func(r io.Reader) error { _, err := LoadSet(r); return err },
		},
		"catalog": {
			func(b *bytes.Buffer) error { return SaveCatalog(b, testCatalog()) },
			func(r io.Reader) error { _, err := LoadCatalog(r); return err },
		},
		"editlog": {
			func(b *bytes.Buffer) error {
				if err := CreateEditLogAt(b, 0); err != nil {
					return err
				}
				return appendRecord(b, sampleRecords(0)[0])
			},
			func(r io.Reader) error {
				lg, err := LoadEditLog(r)
				if err == nil && (lg.Torn || len(lg.Records) != 1) {
					err = fmt.Errorf("loaded %d records, torn %v", len(lg.Records), lg.Torn)
				}
				return err
			},
		},
		"checkpoint": {
			func(b *bytes.Buffer) error { return SaveCheckpoint(b, snap.Doc, snap.Epoch) },
			func(r io.Reader) error { _, err := LoadCheckpoint(r); return err },
		},
		"workload": {
			func(b *bytes.Buffer) error {
				if err := CreateWorkload(b, 1); err != nil {
					return err
				}
				_, err := AppendWorkloadRecord(b, sampleWorkloadRecords()[0])
				return err
			},
			func(r io.Reader) error { _, err := LoadWorkload(r); return err },
		},
	}
	for kind, k := range kinds {
		var buf bytes.Buffer
		if err := k.save(&buf); err != nil {
			t.Fatalf("%s: save: %v", kind, err)
		}
		for v := 1; v <= version+1; v++ {
			err := k.load(bytes.NewReader(reversion(t, buf.Bytes(), v)))
			var fe *FormatError
			switch {
			case v == version && err != nil:
				t.Errorf("%s: v%d rejected: %v", kind, v, err)
			case v != version && !errors.As(err, &fe):
				t.Errorf("%s: v%d accepted or misclassified: %v", kind, v, err)
			}
		}
	}
}
