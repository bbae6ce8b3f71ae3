package store

import (
	"bytes"
	"encoding/gob"
	"errors"
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
