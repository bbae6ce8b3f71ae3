// Package index provides a positional document index and a
// holistic twig-pattern matcher over it — the document-side complement of
// the block tree of Cheng, Gong and Cheung (ICDE 2010). The block tree
// shares query work *across mappings*; the index shares document access
// across the whole mapping set: every mapping binds pattern nodes to
// dotted document paths, so one immutable per-path postings index serves
// every rewritten query of every mapping, and is built once per dataset.
//
// The index stores, per dotted path, the region encodings (start, end,
// level) of the path's document nodes in document order — the interval
// numbering of Al-Khalifa et al. (ICDE 2002) — in block-compressed
// postings lists (see postings.go: delta-encoded uvarint blocks with
// per-block skip pointers, decoded lazily per block), plus a value index
// keyed by (path, text) so value predicates become O(1) lookups instead
// of candidate-list scans. MatchTwig evaluates a rewritten twig pattern
// over these postings with a holistic two-phase join (TwigStack/TwigList
// family): block-galloping postings merges prune every candidate that
// cannot appear in a complete match before any intermediate match list is
// materialized, and the final enumeration emits twig.Match lists
// byte-identical in content and order to twig.MatchByPaths (the ordering
// contract the differential tests and FuzzMatchTwig pin down).
//
// An Index is immutable after Build and safe for unsynchronized concurrent
// readers; Attach hangs it off its document's accelerator slot, which is
// how internal/core's Matcher seam discovers it. The index is derived
// state: nothing persists it, and every load path (catalog, checkpoint)
// rebuilds it from its document.
package index

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmatch/internal/xmltree"
)

// Posting is one indexed document node: its region encoding plus the node
// itself. Start/End/Level mirror the node's interval numbering so the merge
// loops of the holistic join scan decoded arrays instead of chasing node
// pointers; the Node is touched only when a match is emitted.
type Posting struct {
	Start, End int32
	Level      int32
	Node       *xmltree.Node
}

// valueKey keys the value index: exact node text under one path.
type valueKey struct {
	path, text string
}

// Index is an immutable positional index over one document snapshot.
//
// An index is either self-contained (Build) or an overlay epoch derived
// from a base index by ApplyChanges: then its top layer holds only the
// entries mutations spliced — a nil entry marks a deleted one — and
// lookups fall through the layers below. Either way the index never
// changes after construction and is safe for unsynchronized concurrent
// readers; document mutation produces a new Index for the new snapshot
// rather than touching this one.
type Index struct {
	doc *xmltree.Document

	// The postings, by dotted path and by (path, text). An overlay
	// epoch's maps lay its spliced lists over its base's, sharing the
	// layers below; epochs share layers, never each other, so a superseded
	// epoch — its document, its result memo — is collected as soon as the
	// last reader that pinned it lets go.
	paths  xmltree.Layered[string, *PostingList]
	values xmltree.Layered[valueKey, *PostingList]

	epoch uint64

	// memo caches whole evaluations over this epoch (see resultMemo).
	memo resultMemo

	// ctr accumulates the chain's matcher counters (see Counters); shared
	// by every epoch ApplyChanges derives from this one.
	ctr *Counters

	// prof accumulates the chain's per-path observed selectivity (see
	// pathProfiles); shared exactly like ctr.
	prof *pathProfiles

	stats Stats
}

// Stats describes an index for observability (the per-shard xmatch_index_*
// gauges on /metricsz, the CLI's index subcommand) and capacity planning.
type Stats struct {
	// BuildTime is the wall time Build took.
	BuildTime time.Duration
	// Postings is the number of region postings (one per document node).
	Postings int
	// DistinctPaths is the number of distinct dotted paths indexed.
	DistinctPaths int
	// ValueKeys is the number of distinct (path, text) value-index keys.
	ValueKeys int
	// ResidentBytes estimates the index's actual in-memory footprint:
	// compressed postings blocks, node-pointer arrays, and map-key string
	// bytes. The document itself is not counted. For an overlay epoch this
	// is the effective (as-if-compacted) footprint; entries shared with
	// the base chain are counted once.
	ResidentBytes int
	// FlatBytes is the footprint the same index would have with every
	// list a plain []Posting, key strings included.
	FlatBytes int
	// PostingsBytes is the resident footprint of the postings lists alone
	// (delta blocks, skip pointers, node-pointer arrays — no map keys):
	// the numerator of CompressionRatio.
	PostingsBytes int
	// PostingsFlatBytes is the same postings as plain []Posting
	// (postingBytes per posting): the denominator of CompressionRatio.
	PostingsFlatBytes int
	// Epoch counts the mutations applied since the index was built: 0 for
	// a fresh Build, incremented by every ApplyChanges.
	Epoch uint64
	// Overlays is the current overlay chain length (0 for a
	// self-contained index) — the number of overlays a lookup may traverse
	// before it reaches the self-contained index. Overlays merge by size
	// (see ApplyChanges), so the length is logarithmic in the entries
	// spliced since the last compaction, not a count of writes.
	Overlays int
}

// CompressionRatio is PostingsBytes over PostingsFlatBytes — resident
// compressed postings against the same postings as plain []Posting.
// Below 1.0 the compression is paying for itself.
func (s Stats) CompressionRatio() float64 {
	if s.PostingsFlatBytes == 0 {
		return 1
	}
	return float64(s.PostingsBytes) / float64(s.PostingsFlatBytes)
}

// parallelBuildThreshold is the document size from which Build splits the
// preorder pass into per-chunk partial indexes merged at the end; below
// it a single pass wins.
const parallelBuildThreshold = 2048

// Build constructs the block-compressed index over doc. Large documents
// are indexed in parallel: the preorder node list is split into
// contiguous chunks, per-chunk partial postings are built concurrently
// and concatenated in chunk order (chunks are preorder-contiguous, so
// concatenation preserves document order), and the per-list compression
// is itself fanned out across workers.
func Build(doc *xmltree.Document) *Index {
	start := time.Now()
	nodes := doc.Nodes()
	workers := 1
	if len(nodes) >= parallelBuildThreshold {
		workers = runtime.GOMAXPROCS(0)
	}
	paths, values := collect(nodes, workers)
	pm, vm := compressAll(paths, workers), compressAll(values, workers)
	ix := &Index{
		doc:    doc,
		paths:  xmltree.NewLayered(pm, strings.Compare),
		values: xmltree.NewLayered(vm, compareValueKeys),
		ctr:    &Counters{},
		prof:   &pathProfiles{},
		stats:  computeStats(pm, vm),
	}
	ix.stats.BuildTime = time.Since(start)
	return ix
}

// fanOut runs f(0), ..., f(workers-1), each on a goroutine of its own
// when there is more than one.
func fanOut(workers int, f func(w int)) {
	if workers == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

// collect builds the postings of nodes by path and by value key, one
// contiguous preorder chunk per worker, and concatenates the chunks'
// lists in chunk order, which is document order.
func collect(nodes []*xmltree.Node, workers int) (map[string][]Posting, map[valueKey][]Posting) {
	paths := make([]map[string][]Posting, workers)
	values := make([]map[valueKey][]Posting, workers)
	chunk := (len(nodes) + workers - 1) / workers
	fanOut(workers, func(w int) {
		ps, vs := make(map[string][]Posting), make(map[valueKey][]Posting)
		for _, n := range nodes[min(w*chunk, len(nodes)):min((w+1)*chunk, len(nodes))] {
			ps[n.Path] = append(ps[n.Path], postingOf(n))
			if n.Text != "" {
				k := valueKey{n.Path, n.Text}
				vs[k] = append(vs[k], postingOf(n))
			}
		}
		paths[w], values[w] = ps, vs
	})
	for w := 1; w < workers; w++ {
		for p, ps := range paths[w] {
			paths[0][p] = append(paths[0][p], ps...)
		}
		for k, ps := range values[w] {
			values[0][k] = append(values[0][k], ps...)
		}
	}
	return paths[0], values[0]
}

// compressAll compresses every list of lists, fanned out across workers.
func compressAll[K comparable](lists map[K][]Posting, workers int) map[K]*PostingList {
	keys := make([]K, 0, len(lists))
	for k := range lists {
		keys = append(keys, k)
	}
	out := make([]*PostingList, len(keys))
	var next atomic.Int64
	fanOut(workers, func(int) {
		for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
			out[i] = compressPostings(lists[keys[i]])
		}
	})
	m := make(map[K]*PostingList, len(keys))
	for i, k := range keys {
		m[k] = out[i]
	}
	return m
}

// Attach builds an index over doc and attaches it to the document's
// accelerator slot, so internal/core's evaluation dispatches to the
// holistic matcher. It returns the index. Attaching must happen before the
// document is shared with concurrent readers.
func Attach(doc *xmltree.Document) *Index {
	ix := Build(doc)
	doc.SetAccel(ix)
	return ix
}

// For returns the index attached to doc, or nil.
func For(doc *xmltree.Document) *Index {
	ix, _ := doc.Accel().(*Index)
	return ix
}

// Install attaches an already-built index to its own document's
// accelerator slot — the counterpart of Attach for an index built apart
// from its document, such as a restored checkpoint's.
func (ix *Index) Install() { ix.doc.SetAccel(ix) }

// Document returns the document the index was built over.
func (ix *Index) Document() *xmltree.Document { return ix.doc }

// Stats returns the index statistics snapshot.
func (ix *Index) Stats() Stats { return ix.stats }

// Epoch returns the number of mutations applied since the index was
// built: 0 for a fresh Build.
func (ix *Index) Epoch() uint64 { return ix.epoch }

// SetEpoch overrides the epoch counter. An index restored from a
// checkpoint is rebuilt from its document — epoch 0 by construction — but
// must resume the mutation history at the epoch the checkpoint captured,
// so the consistency tokens handed to clients stay monotonic across a
// restart or a replica bootstrap. Call before the index is shared.
func (ix *Index) SetEpoch(e uint64) {
	ix.epoch = e
	ix.stats.Epoch = e
}

// Postings returns the region postings of the given dotted path in
// document order, decoded into a fresh slice. It is a diagnostic and test
// accessor; the matcher reads the compressed lists directly through
// cursors and never materializes whole lists it can gallop over.
func (ix *Index) Postings(path string) []Posting { return ix.paths.Get(path).appendAll(nil) }

// ValuePostings returns the postings of nodes under path whose text equals
// value, in document order, decoded into a fresh slice. Diagnostic and
// test accessor, like Postings.
func (ix *Index) ValuePostings(path, value string) []Posting {
	return ix.values.Get(valueKey{path, value}).appendAll(nil)
}

// Paths returns the indexed dotted paths, sorted. Used by tests and
// benchmarks; the hot path never calls it.
func (ix *Index) Paths() []string { return ix.paths.Keys() }

// PathStat is one path's row of the per-path postings report (the CLI's
// index -stats mode): the static postings footprint joined with the
// observed-selectivity funnel the workload has accumulated against the
// path (zero for paths no evaluation has bound).
type PathStat struct {
	Path          string
	Postings      int
	ResidentBytes int // actual bytes: compressed blocks and node pointers
	FlatBytes     int // the same list as a plain []Posting

	// Observed workload funnel (see PathProfile); zero-valued when the
	// workload never bound this path.
	Evals           uint64
	Candidates      uint64
	UsefulSurvivors uint64
	ReachSurvivors  uint64
}

// PathStats reports per-path postings counts, resident and uncompressed
// footprints, and the observed workload funnel, sorted by path.
// Diagnostic; materializes overlay chains.
func (ix *Index) PathStats() []PathStat {
	paths := ix.paths.Sorted()
	profiles := make(map[string]PathProfile)
	for _, pp := range ix.PathProfiles() {
		profiles[pp.Path] = pp
	}
	out := make([]PathStat, 0, len(paths))
	for _, e := range paths {
		p, pl := e.Key, e.Val
		pp := profiles[p]
		out = append(out, PathStat{
			Path:            p,
			Postings:        pl.Len(),
			ResidentBytes:   pl.residentBytes(),
			FlatBytes:       pl.flatBytes(),
			Evals:           pp.Evals,
			Candidates:      pp.Candidates,
			UsefulSurvivors: pp.UsefulSurvivors,
			ReachSurvivors:  pp.ReachSurvivors,
		})
	}
	return out
}

// postingBytes is one Posting's resident size as a plain []Posting
// element: 3×int32 (padded to 16) + pointer — the uncompressed baseline of
// the compression ratio.
const postingBytes = 24

func computeStats(paths map[string]*PostingList, values map[valueKey]*PostingList) (st Stats) {
	for p, pl := range paths {
		st.Postings += pl.Len()
		st.DistinctPaths += st.addPostings(nil, pl, len(p))
	}
	for k, pl := range values {
		st.ValueKeys += st.addPostings(nil, pl, len(k.path)+len(k.text))
	}
	return st
}
