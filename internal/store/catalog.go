package store

import (
	"encoding/gob"
	"io"
)

// Catalog is the manifest the xmatchd daemon loads its serving catalog
// from: an ordered list of named dataset entries, each either a built-in
// Table II workload (regenerated deterministically at load time) or a
// pointer to a persisted mapping-set blob. The manifest itself is stored in
// the same versioned binary format as the other store blobs.
type Catalog struct {
	Entries []CatalogEntry
}

// CatalogEntry describes one serving dataset. Exactly one of Dataset and
// SetPath must be set. No entry names an index: the index is built from
// the entry's document at load. Older manifests whose entries name an
// index blob (IndexPath) still decode; gob skips the field.
type CatalogEntry struct {
	// Name is the dataset's serving name, unique within the catalog.
	Name string

	// Dataset selects a built-in Table II workload ("D1".."D10").
	Dataset string
	// Mappings is the top-h possible-mapping count for built-in entries;
	// 0 means 100 (the paper's default |M|).
	Mappings int

	// SetPath locates a mapping-set blob (SaveSet format) for blob-backed
	// entries, relative to the manifest's directory.
	SetPath string
	// DocPath optionally locates an XML document for blob-backed entries;
	// when empty a deterministic single-instance document is generated
	// from the set's source schema.
	DocPath string
	// EditLogPath optionally locates the entry's append-only edit log
	// (CreateEditLogAt/AppendEditRecordFile format), relative to the manifest's
	// directory. At catalog-prepare time the log — if the file exists —
	// is replayed over the entry's pristine document, restoring its
	// edited state; /v1/admin/mutate appends every applied batch to it.
	// Without it, mutations are in-memory only and vanish on reload.
	// Manifest format v3; older manifests decode with it empty.
	EditLogPath string

	// Shards is the number of member documents the entry's collection is
	// sharded into. 0 and 1 both mean a single document. Values above 1
	// require a built-in entry: the corpus members are regenerated
	// deterministically (dataset.OrderCorpus) with DocNodes as the total
	// node budget across members. Manifest format v5; older manifests
	// decode with it 0.
	Shards int

	// DocNodes is the synthetic document size (built-in entries);
	// 0 means 3473, the paper's Order.xml.
	DocNodes int
	// DocSeed seeds the document generator.
	DocSeed int64
	// Tau is the block-tree confidence threshold; 0 means the default 0.2.
	Tau float64
}

// Validate checks the manifest's structural invariants: at least one entry,
// unique non-empty names, and exactly one source per entry. Violations are
// *FormatError.
func (c *Catalog) Validate() error {
	if len(c.Entries) == 0 {
		return formatErrorf("catalog has no entries")
	}
	seen := make(map[string]bool, len(c.Entries))
	for i, e := range c.Entries {
		if e.Name == "" {
			return formatErrorf("catalog entry %d has no name", i)
		}
		if seen[e.Name] {
			return formatErrorf("catalog entry %d: duplicate name %q", i, e.Name)
		}
		seen[e.Name] = true
		if (e.Dataset == "") == (e.SetPath == "") {
			return formatErrorf("catalog entry %q: exactly one of Dataset and SetPath must be set", e.Name)
		}
		if e.Mappings < 0 || e.DocNodes < 0 || e.Tau < 0 || e.Tau > 1 {
			return formatErrorf("catalog entry %q: negative size or tau outside [0,1]", e.Name)
		}
		if e.Shards < 0 {
			return formatErrorf("catalog entry %q: negative shard count", e.Name)
		}
		if e.Shards > 1 && e.Dataset == "" {
			// Sharded collections regenerate their members; a blob-backed
			// entry ships exactly one document (or one generated instance).
			return formatErrorf("catalog entry %q: Shards > 1 requires a built-in entry", e.Name)
		}
	}
	return nil
}

// SaveCatalog writes a catalog manifest.
func SaveCatalog(w io.Writer, c *Catalog) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if err := writeHeader(w, "catalog"); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(c)
}

// LoadCatalog reads and validates a manifest written by SaveCatalog.
// Corrupted or structurally invalid manifests yield a *FormatError.
func LoadCatalog(r io.Reader) (*Catalog, error) {
	dec, err := readHeader(r, "catalog")
	if err != nil {
		return nil, err
	}
	var c Catalog
	if err := dec.Decode(&c); err != nil {
		return nil, dec.classify(err, "decoding catalog")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
