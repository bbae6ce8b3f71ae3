// Package delta is the live document mutation subsystem: it applies
// batches of edits — insert subtree, delete subtree, rename label, set
// text — to an xmltree.Document and incrementally maintains the attached
// positional index (internal/index), so hot datasets absorb changes
// without rebuild stalls.
//
// The paper's PTQ algorithms assume a static document; everything above
// this package still does. The subsystem preserves that assumption per
// snapshot: a Handle owns a chain of immutable (document, index) snapshot
// pairs, writers serialize on the handle and publish a new snapshot per
// batch, and readers pin whichever snapshot is current when their request
// starts and use it unperturbed to completion. Structure sharing keeps
// publication cheap: the new document shares every untouched node with
// the old one (xmltree's revision layer), the new index shares every
// untouched postings list (index.ApplyChanges), and gap-based interval
// numbering means an edit almost never moves another node's numbers at
// all.
//
// The invariant every evaluation mode leans on — indexed, unindexed,
// sequential, engine-parallel answers are byte-identical to a from-scratch
// build over the mutated document — is pinned by this package's
// differential tests.
package delta

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xmatch/internal/index"
	"xmatch/internal/obs"
	"xmatch/internal/xmltree"
)

// Op names an edit operation. The string values are the wire form used by
// the JSON API, the CLI, and the persisted edit log.
type Op string

const (
	// OpInsert parses Edit.XML and inserts it as a child subtree of the
	// target node, at child position Pos (negative appends).
	OpInsert Op = "insert"
	// OpDelete removes the target node and its subtree. The root cannot
	// be deleted.
	OpDelete Op = "delete"
	// OpRename replaces the target node's label with Edit.Label,
	// rewriting the dotted paths of its subtree.
	OpRename Op = "rename"
	// OpSetText replaces the target node's text with Edit.Text.
	OpSetText Op = "settext"
)

// Edit is one document mutation. The target node is addressed either by
// its preorder start number (Start > 0; stable across edits that do not
// renumber its region) or by dotted label path plus ordinal (0-based
// position among the path's nodes in document order) — the form that is
// stable on the wire. For OpInsert the target is the parent under which
// the new subtree goes.
type Edit struct {
	Op Op `json:"op"`

	Start   int    `json:"start,omitempty"`
	Path    string `json:"path,omitempty"`
	Ordinal int    `json:"ordinal,omitempty"`

	// Pos is OpInsert's child position; negative or past-the-end appends.
	Pos int `json:"pos,omitempty"`
	// XML is OpInsert's subtree payload, a single well-formed element.
	XML string `json:"xml,omitempty"`
	// Label is OpRename's new element name.
	Label string `json:"label,omitempty"`
	// Text is OpSetText's new character data.
	Text string `json:"text,omitempty"`
}

// EditError reports a batch rejected because of the edits themselves — an
// unresolvable target, malformed payload XML, an unknown op — as opposed
// to an environmental failure (a log write error, say). Serving layers
// map it to a client error.
type EditError struct {
	// Index is the offending edit's position in the batch.
	Index int
	Err   error
}

func (e *EditError) Error() string {
	return fmt.Sprintf("delta: edit %d: %v", e.Index, e.Err)
}

func (e *EditError) Unwrap() error { return e.Err }

// Snapshot is one immutable (document, index) pair. The index is attached
// to the document's accelerator slot, so every core evaluation mode over
// Doc routes through it; both are safe for unsynchronized concurrent
// readers. A request must resolve the snapshot once and use its Doc for
// all evaluation — mixing documents from different snapshots within one
// request would mix numbering regimes.
type Snapshot struct {
	Doc   *xmltree.Document
	Index *index.Index
	// Epoch counts the batches applied since Open: the index's epoch
	// number.
	Epoch uint64
}

// Stats is a point-in-time summary of a handle's mutation history.
type Stats struct {
	// Epoch is the current snapshot's epoch.
	Epoch uint64
	// Batches is the number of successfully applied batches (equals Epoch
	// unless the handle adopted a pre-advanced index).
	Batches uint64
	// Edits is the total number of edits across applied batches.
	Edits uint64
	// ApplyMs is the cumulative wall time spent applying batches
	// (lock-wait excluded), in milliseconds.
	ApplyMs float64
}

// Handle owns the mutable identity of one live document: an atomically
// swapped current snapshot plus a write lock that serializes Apply. Any
// number of goroutines may call Snapshot concurrently with one another
// and with writers.
type Handle struct {
	mu       sync.Mutex
	cur      atomic.Pointer[Snapshot]
	changed  atomic.Pointer[chan struct{}] // closed-and-replaced on publish
	batches  atomic.Uint64
	edits    atomic.Uint64
	applyLat *obs.Histogram // per-batch apply latency, lock-wait excluded
}

// Open wraps a document in a live handle. An index already attached to
// the document (such as a restored checkpoint's) is adopted; otherwise
// one is built and attached. The caller must not mutate the document
// afterwards except through the handle.
func Open(doc *xmltree.Document) *Handle {
	ix := index.For(doc)
	if ix == nil {
		ix = index.Attach(doc)
	}
	h := &Handle{applyLat: obs.NewHistogram(nil)}
	h.cur.Store(&Snapshot{Doc: doc, Index: ix, Epoch: ix.Epoch()})
	ch := make(chan struct{})
	h.changed.Store(&ch)
	return h
}

// Snapshot returns the current snapshot. The returned pair never changes;
// later mutations publish new snapshots instead.
func (h *Handle) Snapshot() *Snapshot { return h.cur.Load() }

// Changed returns a channel closed the next time a snapshot is published
// (ApplyLogged or Adopt). Each publication closes the current channel and
// installs a fresh one, so an epoch waiter loops: read the epoch, grab
// Changed(), re-check the epoch (a publish between the two steps would
// otherwise be missed), then select on the channel alongside its
// deadline/cancellation — no polling.
func (h *Handle) Changed() <-chan struct{} { return *h.changed.Load() }

// publish swaps in snap and wakes epoch waiters. Must run under h.mu.
func (h *Handle) publish(snap *Snapshot) {
	h.cur.Store(snap)
	next := make(chan struct{})
	old := h.changed.Swap(&next)
	close(*old)
}

// Stats returns the handle's mutation counters.
func (h *Handle) Stats() Stats {
	return Stats{
		Epoch:   h.Snapshot().Epoch,
		Batches: h.batches.Load(),
		Edits:   h.edits.Load(),
		ApplyMs: h.applyLat.Snapshot().SumMs,
	}
}

// CollectMetrics emits the handle's mutation metrics and its current
// snapshot's document and index sizes onto e under the given labels — the
// delta subsystem's contribution to /metricsz.
func (h *Handle) CollectMetrics(e *obs.Exporter, labels ...obs.Label) {
	snap := h.Snapshot()
	xs := snap.Index.Stats()
	e.Counter("xmatch_delta_batches_total", "Edit batches applied.", float64(h.batches.Load()), labels...)
	e.Counter("xmatch_delta_edits_total", "Edits applied across batches.", float64(h.edits.Load()), labels...)
	e.Gauge("xmatch_delta_epoch", "Current snapshot epoch.", float64(snap.Epoch), labels...)
	e.Gauge("xmatch_delta_overlay_depth", "Index overlays a lookup may traverse above the self-contained index; merged by size, so logarithmic in the entries spliced since the last compaction.", float64(xs.Overlays), labels...)
	e.Histogram("xmatch_delta_apply_seconds", "Per-batch apply latency, lock-wait excluded.", h.applyLat.Snapshot(), labels...)
	e.Gauge("xmatch_delta_doc_nodes", "Nodes of the current snapshot's document.", float64(snap.Doc.Len()), labels...)
	e.Gauge("xmatch_index_build_seconds", "Wall time the current snapshot's index took to build (or splice).", xs.BuildTime.Seconds(), labels...)
	e.Gauge("xmatch_index_resident_bytes", "Estimated in-memory footprint of the current index, document excluded.", float64(xs.ResidentBytes), labels...)
	e.Gauge("xmatch_index_postings", "Region postings in the current index (one per document node).", float64(xs.Postings), labels...)
	e.Gauge("xmatch_index_postings_bytes", "Resident bytes of the compressed postings lists alone.", float64(xs.PostingsBytes), labels...)
	e.Gauge("xmatch_index_postings_flat_bytes", "Bytes the same postings would take in the flat layout.", float64(xs.PostingsFlatBytes), labels...)
	e.Gauge("xmatch_index_paths", "Distinct dotted paths indexed.", float64(xs.DistinctPaths), labels...)
}

// Apply applies one batch of edits atomically: either every edit applies
// and a new snapshot is published, or the document is unchanged. Edits
// apply in order, each resolving its target against the state left by its
// predecessors. Concurrent Apply calls serialize; readers are never
// blocked and never see a half-applied batch.
func (h *Handle) Apply(edits []Edit) (*Snapshot, error) {
	return h.ApplyLogged(edits, nil)
}

// ApplyLogged is Apply with a durability hook: after the batch has been
// validated and its snapshot built — but before publication — log is
// called (still under the write lock, so log invocations across writers
// are ordered exactly like the batches they record). log receives the
// epoch the batch produces (the epoch of the snapshot about to be
// published), so a persisted or shipped record carries the same
// consistency token clients see. If log fails the snapshot is discarded
// and the document is unchanged, so an edit log never misses a published
// batch and never records an unpublished one it cannot take back.
func (h *Handle) ApplyLogged(edits []Edit, log func(epoch uint64, edits []Edit) error) (*Snapshot, error) {
	return h.ApplyTraced(nil, edits, log)
}

// ApplyTraced is ApplyLogged recording where the write's time goes: the
// regions resolve (locating each target and applying the edit to the
// revision), commit (assembling the snapshot document), index (splicing
// the index) and log (the durability hook) on tr — children of whatever
// span the caller has open around the call. A nil trace records nothing.
func (h *Handle) ApplyTraced(tr *obs.Trace, edits []Edit, log func(epoch uint64, edits []Edit) error) (*Snapshot, error) {
	if len(edits) == 0 {
		return nil, &EditError{Index: 0, Err: fmt.Errorf("empty edit batch")}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	start := time.Now()
	cur := h.cur.Load()
	reg := tr.Region("resolve", "")
	rev := cur.Doc.BeginRevision()
	for i, e := range edits {
		if err := applyOne(rev, e); err != nil {
			reg.End()
			return nil, &EditError{Index: i, Err: err}
		}
	}
	reg.End()
	reg = tr.Region("commit", "")
	doc, cs := rev.Commit()
	reg.End()
	reg = tr.Region("index", "")
	ix := cur.Index.ApplyChanges(doc, cs)
	doc.SetAccel(ix)
	reg.End()
	if log != nil {
		reg = tr.Region("log", "")
		err := log(ix.Epoch(), edits)
		reg.End()
		if err != nil {
			return nil, fmt.Errorf("delta: logging batch: %w", err)
		}
	}
	snap := &Snapshot{Doc: doc, Index: ix, Epoch: ix.Epoch()}
	h.publish(snap)
	h.batches.Add(1)
	h.edits.Add(uint64(len(edits)))
	h.applyLat.Observe(time.Since(start))
	return snap, nil
}

// Freeze runs fn on the current snapshot while holding the write lock, so
// no Apply can publish — or log — a batch for the duration. Checkpointing
// uses it to persist the snapshot and truncate the edit log as one
// atomic-against-writers step: without the lock, a writer that had logged
// its record but not yet published could have that record destroyed by
// the truncation, silently unmapping an epoch the log had promised. fn
// must not call back into the handle's write path.
func (h *Handle) Freeze(fn func(*Snapshot) error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return fn(h.cur.Load())
}

// Adopt atomically replaces the handle's state with an externally
// restored document — a checkpoint bootstrap on a replica that fell
// behind the primary's retained log. The document must carry an installed
// index (index.For finds it) whose epoch has been set to the restored
// point in the mutation history; subsequent applies continue from there.
func (h *Handle) Adopt(doc *xmltree.Document) (*Snapshot, error) {
	ix := index.For(doc)
	if ix == nil {
		return nil, fmt.Errorf("delta: adopt: document has no installed index")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := &Snapshot{Doc: doc, Index: ix, Epoch: ix.Epoch()}
	h.publish(snap)
	return snap, nil
}

// resolve finds the edit's target in the revision's current tree.
func resolve(rev *xmltree.Revision, e Edit) (*xmltree.Node, error) {
	if e.Start > 0 {
		if n := rev.Locate(e.Start); n != nil {
			return n, nil
		}
		return nil, fmt.Errorf("no node with start %d", e.Start)
	}
	if e.Path == "" {
		return nil, fmt.Errorf("edit addresses no node: start and path both empty")
	}
	if n := rev.LocateByPath(e.Path, e.Ordinal); n != nil {
		return n, nil
	}
	return nil, fmt.Errorf("no node %d of path %q", e.Ordinal, e.Path)
}

func applyOne(rev *xmltree.Revision, e Edit) error {
	n, err := resolve(rev, e)
	if err != nil {
		return err
	}
	switch e.Op {
	case OpInsert:
		if strings.TrimSpace(e.XML) == "" {
			return fmt.Errorf("insert: empty xml payload")
		}
		frag, err := xmltree.ParseString(e.XML)
		if err != nil {
			return fmt.Errorf("insert: %w", err)
		}
		return rev.InsertSubtree(n.Start, e.Pos, frag.Root)
	case OpDelete:
		return rev.DeleteSubtree(n.Start)
	case OpRename:
		if e.Label == "" {
			return fmt.Errorf("rename: empty label")
		}
		return rev.Rename(n.Start, e.Label)
	case OpSetText:
		return rev.SetText(n.Start, e.Text)
	default:
		return fmt.Errorf("unknown op %q", e.Op)
	}
}

// Validate checks an edit batch's shape without applying it: known ops,
// an addressable target form, and op-specific payload presence. It cannot
// check target existence — that depends on the document state at apply
// time.
func Validate(edits []Edit) error {
	if len(edits) == 0 {
		return &EditError{Index: 0, Err: fmt.Errorf("empty edit batch")}
	}
	for i, e := range edits {
		var err error
		switch e.Op {
		case OpInsert:
			if strings.TrimSpace(e.XML) == "" {
				err = fmt.Errorf("insert: empty xml payload")
			}
		case OpRename:
			if e.Label == "" {
				err = fmt.Errorf("rename: empty label")
			}
		case OpDelete, OpSetText:
		default:
			err = fmt.Errorf("unknown op %q", e.Op)
		}
		if err == nil && e.Start <= 0 && e.Path == "" {
			err = fmt.Errorf("edit addresses no node: start and path both empty")
		}
		if err != nil {
			return &EditError{Index: i, Err: err}
		}
	}
	return nil
}
