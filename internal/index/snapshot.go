package index

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
// so two snapshots of the same index are deeply equal, and the snapshot of
// a mutated index is that of a fresh build over the same document.
func (ix *Index) Snapshot() *Snapshot {
	snap := &Snapshot{DocNodes: ix.doc.Len()}
	buf := getPostingBuf()
	for _, e := range ix.paths.Sorted() {
		*buf = e.Val.appendAll((*buf)[:0])
		ps := *buf
		sp := SnapshotPath{
			Path:   e.Key,
			Starts: make([]int32, len(ps)),
			Ends:   make([]int32, len(ps)),
			Levels: make([]int32, len(ps)),
		}
		for i, p := range ps {
			sp.Starts[i], sp.Ends[i], sp.Levels[i] = p.Start, p.End, p.Level
		}
		snap.Paths = append(snap.Paths, sp)
	}
	for _, e := range ix.values.Sorted() {
		*buf = e.Val.appendAll((*buf)[:0])
		ps := *buf
		sv := SnapshotValue{Path: e.Key.path, Text: e.Key.text, Starts: make([]int32, len(ps))}
		for i, p := range ps {
			sv.Starts[i] = p.Start
		}
		snap.Values = append(snap.Values, sv)
	}
	putPostingBuf(buf)
	return snap
}
