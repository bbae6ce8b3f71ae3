package index

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"xmatch/internal/xmltree"
)

// Snapshot is the persistable form of an Index: the region encodings and
// value keys with no node pointers. It is also the verified intermediate
// form every load path funnels through — FromSnapshot re-binds it to a
// live document, verifying every posting against the document so a stale
// or corrupted blob is rejected instead of silently mis-answering
// queries. internal/store serializes it directly for legacy (v2/v3)
// blobs and through CompactSnapshot — the delta-compressed wire layout —
// for format v4.
type Snapshot struct {
	// DocNodes is the node count of the document the index was built over.
	DocNodes int
	// Paths holds one entry per indexed dotted path, sorted by path.
	Paths []SnapshotPath
	// Values holds one entry per (path, text) value key, sorted.
	Values []SnapshotValue
}

// SnapshotPath is the persisted postings list of one dotted path.
type SnapshotPath struct {
	Path                 string
	Starts, Ends, Levels []int32
}

// SnapshotValue is the persisted postings list of one value key. Region
// data is not repeated: the starts identify nodes already described by the
// path postings.
type SnapshotValue struct {
	Path, Text string
	Starts     []int32
}

// Snapshot extracts the persistable form of the index. Entries are sorted,
// so two snapshots of the same index serialize to identical bytes. An
// overlay epoch is materialized first, so the snapshot of a mutated
// index is indistinguishable from that of a fresh build over the same
// document.
func (ix *Index) Snapshot() *Snapshot {
	pathMap, valueMap, _ := ix.materialize()
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

// FromSnapshot re-binds a snapshot to doc, verifying it posting by
// posting: every start must resolve to a document node whose path, region
// encoding, and (for value entries) text agree with the snapshot, postings
// must be in document order, and every document node must be covered
// exactly once. Any disagreement — a corrupted blob, or a blob built over
// a different document — is reported as an error; internal/store wraps it
// as a *FormatError. The rebuilt index carries the block-compressed
// resident layout.
func FromSnapshot(doc *xmltree.Document, snap *Snapshot) (*Index, error) {
	start := time.Now()
	if snap.DocNodes != doc.Len() {
		return nil, fmt.Errorf("index snapshot covers %d nodes, document has %d", snap.DocNodes, doc.Len())
	}
	byStart := make(map[int32]*xmltree.Node, doc.Len())
	for _, n := range doc.Nodes() {
		byStart[int32(n.Start)] = n
	}
	ix := &Index{
		doc: doc,
		layer: &layer{
			paths:  make(map[string]*PostingList, len(snap.Paths)),
			values: make(map[valueKey]*PostingList, len(snap.Values)),
		},
		ctr:  &Counters{},
		prof: &pathProfiles{},
	}
	total := 0
	for _, sp := range snap.Paths {
		if len(sp.Starts) != len(sp.Ends) || len(sp.Starts) != len(sp.Levels) {
			return nil, fmt.Errorf("index snapshot path %q: region arrays disagree (%d/%d/%d)",
				sp.Path, len(sp.Starts), len(sp.Ends), len(sp.Levels))
		}
		if _, dup := ix.paths[sp.Path]; dup || len(sp.Starts) == 0 {
			return nil, fmt.Errorf("index snapshot path %q: duplicate or empty entry", sp.Path)
		}
		ps := make([]Posting, len(sp.Starts))
		prev := int32(0)
		for i := range sp.Starts {
			n := byStart[sp.Starts[i]]
			if n == nil {
				return nil, fmt.Errorf("index snapshot path %q: start %d resolves to no node", sp.Path, sp.Starts[i])
			}
			if n.Path != sp.Path || int32(n.End) != sp.Ends[i] || int32(n.Level) != sp.Levels[i] {
				return nil, fmt.Errorf("index snapshot path %q: posting %d disagrees with document node (path %q, region %d:%d@%d)",
					sp.Path, i, n.Path, n.Start, n.End, n.Level)
			}
			if sp.Starts[i] <= prev {
				return nil, fmt.Errorf("index snapshot path %q: postings out of document order", sp.Path)
			}
			prev = sp.Starts[i]
			ps[i] = Posting{Start: sp.Starts[i], End: sp.Ends[i], Level: sp.Levels[i], Node: n}
		}
		ix.paths[sp.Path] = compressPostings(ps)
		total += len(ps)
	}
	if total != doc.Len() {
		return nil, fmt.Errorf("index snapshot has %d postings, document has %d nodes", total, doc.Len())
	}
	covered := make(map[*xmltree.Node]bool)
	for _, sv := range snap.Values {
		key := valueKey{sv.Path, sv.Text}
		if _, dup := ix.values[key]; dup || len(sv.Starts) == 0 || sv.Text == "" {
			return nil, fmt.Errorf("index snapshot value (%q, %q): duplicate, empty, or textless entry", sv.Path, sv.Text)
		}
		ps := make([]Posting, len(sv.Starts))
		prev := int32(0)
		for i, s := range sv.Starts {
			n := byStart[s]
			if n == nil || n.Path != sv.Path || n.Text != sv.Text {
				return nil, fmt.Errorf("index snapshot value (%q, %q): start %d disagrees with document", sv.Path, sv.Text, s)
			}
			if s <= prev {
				return nil, fmt.Errorf("index snapshot value (%q, %q): postings out of document order", sv.Path, sv.Text)
			}
			prev = s
			ps[i] = Posting{Start: s, End: int32(n.End), Level: int32(n.Level), Node: n}
			covered[n] = true
		}
		ix.values[key] = compressPostings(ps)
	}
	// Every text-bearing node must have its value entry, or value-predicate
	// lookups would silently miss matches. Each covered node was verified
	// above to sit under its own (path, text) key.
	for _, n := range doc.Nodes() {
		if n.Text != "" && !covered[n] {
			return nil, fmt.Errorf("index snapshot misses value entry for node %q (%q)", n.Path, n.Text)
		}
	}
	ix.texts = textLayer(ix.values)
	ix.stats = ix.computeStats()
	ix.stats.BuildTime = time.Since(start)
	return ix, nil
}

// CompactSnapshot is the store blob format v4 wire layout of a Snapshot:
// per-path postings as delta-encoded uvarint blocks with persisted
// block-level skip pointers — the same scheme the resident PostingList
// uses — and value postings as plain start-delta streams. Levels are not
// stored per posting: every node of one dotted path sits at the same
// depth, so one level per path reconstructs them all.
type CompactSnapshot struct {
	DocNodes int
	Paths    []CompactPath
	Values   []CompactValue
}

// CompactPath is one path's block-compressed postings list. Data holds,
// per block of 64 postings, an absolute opening pair (uvarint start,
// uvarint extent) followed by delta pairs (uvarint start delta, uvarint
// extent); BlockOffs carries the byte offset of each block's opening
// pair beyond the first — the persisted block-level skip pointers.
type CompactPath struct {
	Path      string
	Level     int32
	Count     int32
	BlockOffs []uint32
	Data      []byte
}

// CompactValue is one value key's postings: uvarint deltas of the start
// numbers (the first delta is from zero).
type CompactValue struct {
	Path, Text string
	Count      int32
	Deltas     []byte
}

// Compact converts a snapshot to the v4 wire layout. The conversion is
// deterministic, so two saves of the same index still produce identical
// bytes.
func (snap *Snapshot) Compact() *CompactSnapshot {
	cs := &CompactSnapshot{DocNodes: snap.DocNodes}
	var vbuf [2 * binary.MaxVarintLen32]byte
	for _, sp := range snap.Paths {
		n := len(sp.Starts)
		cp := CompactPath{Path: sp.Path, Count: int32(n)}
		if n > 0 {
			cp.Level = sp.Levels[0]
		}
		for i := 0; i < n; i++ {
			var k int
			if i&blockMask == 0 {
				if i > 0 {
					cp.BlockOffs = append(cp.BlockOffs, uint32(len(cp.Data)))
				}
				k = binary.PutUvarint(vbuf[:], uint64(sp.Starts[i]))
			} else {
				k = binary.PutUvarint(vbuf[:], uint64(sp.Starts[i]-sp.Starts[i-1]))
			}
			k += binary.PutUvarint(vbuf[k:], uint64(sp.Ends[i]-sp.Starts[i]))
			cp.Data = append(cp.Data, vbuf[:k]...)
		}
		cs.Paths = append(cs.Paths, cp)
	}
	for _, sv := range snap.Values {
		cv := CompactValue{Path: sv.Path, Text: sv.Text, Count: int32(len(sv.Starts))}
		prev := int32(0)
		for _, s := range sv.Starts {
			k := binary.PutUvarint(vbuf[:], uint64(s-prev))
			cv.Deltas = append(cv.Deltas, vbuf[:k]...)
			prev = s
		}
		cs.Values = append(cs.Values, cv)
	}
	return cs
}

// Expand decodes the v4 wire layout back into a Snapshot, validating the
// compressed structure as it goes: block skip pointers must agree with
// the decode positions and stay inside Data, every varint must terminate
// and fit an int32, and every byte must be accounted for. Structural
// violations are reported as errors (internal/store wraps them as
// *FormatError); document-level verification is FromSnapshot's job.
func (cs *CompactSnapshot) Expand() (*Snapshot, error) {
	snap := &Snapshot{DocNodes: cs.DocNodes}
	for _, cp := range cs.Paths {
		n := int(cp.Count)
		if n < 0 {
			return nil, fmt.Errorf("path %q: bad posting count %d", cp.Path, cp.Count)
		}
		nBlocks := (n + blockSize - 1) / blockSize
		if n > 0 && len(cp.BlockOffs) != nBlocks-1 {
			return nil, fmt.Errorf("path %q: %d postings need %d skip pointers, have %d",
				cp.Path, n, nBlocks-1, len(cp.BlockOffs))
		}
		sp := SnapshotPath{
			Path:   cp.Path,
			Starts: make([]int32, n),
			Ends:   make([]int32, n),
			Levels: make([]int32, n),
		}
		off := 0
		var start int32
		for i := 0; i < n; i++ {
			if i&blockMask == 0 && i > 0 {
				if want := int(cp.BlockOffs[i>>blockShift-1]); want != off {
					return nil, fmt.Errorf("path %q: skip pointer out of range: block %d at offset %d, decoder at %d (data %d bytes)",
						cp.Path, i>>blockShift, want, off, len(cp.Data))
				}
			}
			ds, k := checkedUvarint(cp.Data, off)
			if k <= 0 {
				return nil, fmt.Errorf("path %q: bad varint in truncated block %d (posting %d)", cp.Path, i>>blockShift, i)
			}
			off += k
			de, k := checkedUvarint(cp.Data, off)
			if k <= 0 {
				return nil, fmt.Errorf("path %q: bad varint in truncated block %d (posting %d)", cp.Path, i>>blockShift, i)
			}
			off += k
			if i&blockMask == 0 {
				start = int32(ds)
			} else {
				start += int32(ds)
			}
			sp.Starts[i] = start
			sp.Ends[i] = start + int32(de)
			sp.Levels[i] = cp.Level
		}
		if off != len(cp.Data) {
			return nil, fmt.Errorf("path %q: %d trailing bytes after last block", cp.Path, len(cp.Data)-off)
		}
		snap.Paths = append(snap.Paths, sp)
	}
	for _, cv := range cs.Values {
		n := int(cv.Count)
		if n < 0 {
			return nil, fmt.Errorf("value (%q, %q): bad posting count %d", cv.Path, cv.Text, cv.Count)
		}
		sv := SnapshotValue{Path: cv.Path, Text: cv.Text, Starts: make([]int32, n)}
		off, prev := 0, int32(0)
		for i := 0; i < n; i++ {
			ds, k := checkedUvarint(cv.Deltas, off)
			if k <= 0 {
				return nil, fmt.Errorf("value (%q, %q): bad varint at posting %d", cv.Path, cv.Text, i)
			}
			off += k
			prev += int32(ds)
			sv.Starts[i] = prev
		}
		if off != len(cv.Deltas) {
			return nil, fmt.Errorf("value (%q, %q): %d trailing bytes", cv.Path, cv.Text, len(cv.Deltas)-off)
		}
		snap.Values = append(snap.Values, sv)
	}
	return snap, nil
}

// checkedUvarint decodes one uvarint bounded to int32 range, returning
// k <= 0 on truncation or overflow — the untrusted-input counterpart of
// the trusted resident decoder.
func checkedUvarint(data []byte, off int) (uint64, int) {
	if off >= len(data) {
		return 0, 0
	}
	v, k := binary.Uvarint(data[off:])
	if k <= 0 || v > 1<<31-1 {
		return 0, -1
	}
	return v, k
}
