package index

import "sort"

// Snapshot is the pointer-free comparison form of an Index: the region
// encodings and value keys of every entry, sorted, with no node pointers.
// Nothing persists it — the index is derived state, rebuilt from its
// document on every load — so its job is to let tests compare two
// indexes for equality: an index spliced by mutations against a fresh
// Build of the same document, a restored checkpoint's index against the
// one it was saved from.
type Snapshot struct {
	// DocNodes is the node count of the document the index was built over.
	DocNodes int
	// Paths holds one entry per indexed dotted path, sorted by path.
	Paths []SnapshotPath
	// Values holds one entry per (path, text) value key, sorted.
	Values []SnapshotValue
}

// SnapshotPath is the postings list of one dotted path.
type SnapshotPath struct {
	Path                 string
	Starts, Ends, Levels []int32
}

// SnapshotValue is the postings list of one value key. Region data is not
// repeated: the starts identify nodes already described by the path
// postings.
type SnapshotValue struct {
	Path, Text string
	Starts     []int32
}

// Snapshot extracts the comparison form of the index. Entries are sorted,
// so two snapshots of the same index are deeply equal. An
// overlay epoch is materialized first, so the snapshot of a mutated
// index is indistinguishable from that of a fresh build over the same
// document.
func (ix *Index) Snapshot() *Snapshot {
	pathMap, valueMap := ix.materialize()
	snap := &Snapshot{DocNodes: ix.doc.Len()}
	pathNames := make([]string, 0, len(pathMap))
	for p := range pathMap {
		pathNames = append(pathNames, p)
	}
	sort.Strings(pathNames)
	buf := getPostingBuf()
	for _, path := range pathNames {
		*buf = pathMap[path].appendAll((*buf)[:0])
		ps := *buf
		sp := SnapshotPath{
			Path:   path,
			Starts: make([]int32, len(ps)),
			Ends:   make([]int32, len(ps)),
			Levels: make([]int32, len(ps)),
		}
		for i, p := range ps {
			sp.Starts[i], sp.Ends[i], sp.Levels[i] = p.Start, p.End, p.Level
		}
		snap.Paths = append(snap.Paths, sp)
	}
	keys := make([]valueKey, 0, len(valueMap))
	for k := range valueMap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return valueKeyLess(keys[i], keys[j]) })
	for _, k := range keys {
		*buf = valueMap[k].appendAll((*buf)[:0])
		ps := *buf
		sv := SnapshotValue{Path: k.path, Text: k.text, Starts: make([]int32, len(ps))}
		for i, p := range ps {
			sv.Starts[i] = p.Start
		}
		snap.Values = append(snap.Values, sv)
	}
	putPostingBuf(buf)
	return snap
}
