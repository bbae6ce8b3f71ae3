// Package replica is the log-shipping replication substrate. A primary
// xmatchd owns one ShardLog per serving shard: the authoritative record
// of every applied edit batch since the last checkpoint, retained in
// memory for streaming and optionally appended to a durable edit-log
// file. Followers pull the retained records over HTTP (Client), replay
// them through the same delta.Handle path the primary applied them on
// (Follower), and land on byte-identical snapshots — the epoch number is
// the consistency token that names each state on both sides. When a
// follower has fallen behind the retained log (a checkpoint truncated the
// history it needed), it bootstraps from a checkpoint blob instead of
// replaying from genesis.
package replica

import (
	"fmt"
	"sync"
	"time"

	"xmatch/internal/delta"
	"xmatch/internal/obs"
	"xmatch/internal/store"
	"xmatch/internal/xmltree"
)

// ShardLog owns one shard's replication log: the records from base
// (exclusive) to the current epoch, kept in memory in their framed wire
// form so streaming re-encodes nothing, plus the durable edit-log
// file and checkpoint blob when the shard persists its mutations.
// Retention is bounded by checkpoints — Checkpoint folds the retained
// records into a checkpoint blob and drops them.
//
// A ShardLog belongs to one catalog generation. Reload retires the old
// generation's logs before publishing the new catalog, so a mutate or
// checkpoint still holding the old collection can never interleave its
// writes with the new generation's writer on the same file.
type ShardLog struct {
	path string // edit-log file; "" = memory-only (volatile shard)
	ckpt string // checkpoint file; "" when path is ""
	sync bool   // fsync each appended record

	mu      sync.Mutex
	retired bool
	repair  bool // last file append failed; recover before the next one
	base    uint64
	frames  [][]byte
	bytes   int64

	enc  store.RecordEncoder
	file *store.EditLogFile // opened by an append, closed by a failed one, a checkpoint and Retire

	// appendLat times the durable file append (fsync included) of each
	// logged record; empty on memory-only logs.
	appendLat *obs.Histogram
}

// Status is a point-in-time summary of a shard log, for its collector.
type Status struct {
	Base            uint64
	Epoch           uint64
	RetainedRecords int
	RetainedBytes   int64
	Durable         bool
	Retired         bool
}

// NewShardLog creates a memory-only shard log whose first record will
// apply on top of epoch base. Volatile shards (no edit-log path) still
// retain records so followers can stream them.
func NewShardLog(base uint64) *ShardLog {
	return &ShardLog{base: base, appendLat: obs.NewHistogram(nil)}
}

// CheckpointPath derives the checkpoint blob path from an edit-log path.
func CheckpointPath(logPath string) string { return logPath + ".ckpt" }

// OpenShardLog opens the durable shard log at path, repairing a torn
// tail (a crash mid-append) and reconciling the file against the shard's
// checkpoint epoch — the epoch of the checkpoint blob the caller has
// already restored, or 0 if there is none. Records the checkpoint
// already covers are dropped and the file rewritten at the checkpoint's
// base, which heals a crash that landed between checkpoint rename and
// log truncation. A log whose base is ahead of the checkpoint is a state
// gap — history was truncated but the checkpoint that replaced it is
// missing — and fails hard. The surviving records come back decoded, in
// epoch order, for the caller to replay onto the restored document; the
// log retains them framed.
func OpenShardLog(path string, syncEach bool, ckptEpoch uint64) (*ShardLog, []store.EditRecord, error) {
	lg, err := store.RecoverEditLogFile(path)
	if err != nil {
		return nil, nil, err
	}
	if lg.Base > ckptEpoch {
		return nil, nil, fmt.Errorf("replica: edit log %s starts at epoch %d but the checkpoint is at %d: compacted history is missing", path, lg.Base, ckptEpoch)
	}
	l := &ShardLog{path: path, ckpt: CheckpointPath(path), sync: syncEach, base: ckptEpoch, appendLat: obs.NewHistogram(nil)}
	var recs []store.EditRecord
	for _, rec := range lg.Records {
		if rec.Epoch <= ckptEpoch {
			continue // already folded into the checkpoint
		}
		frame, err := l.enc.Encode(rec)
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, rec)
		l.frames = append(l.frames, frame)
		l.bytes += int64(len(frame))
	}
	if lg.Base != ckptEpoch {
		// The file predates the checkpoint (crash between checkpoint
		// rename and log reset, typically): rewrite it so file and memory
		// agree on the base and the dead prefix stops accumulating.
		if err := store.WriteEditLogFile(path, ckptEpoch, l.frames); err != nil {
			return nil, nil, err
		}
	}
	return l, recs, nil
}

// Durable reports whether appended records are persisted to a file.
func (l *ShardLog) Durable() bool { return l.path != "" }

// Base returns the epoch the first retained record applies on top of —
// the latest checkpoint's epoch.
func (l *ShardLog) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// Status returns the log's current summary.
func (l *ShardLog) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Status{
		Base:            l.base,
		Epoch:           l.base + uint64(len(l.frames)),
		RetainedRecords: len(l.frames),
		RetainedBytes:   l.bytes,
		Durable:         l.path != "",
		Retired:         l.retired,
	}
}

// Append records one applied batch at the given epoch — the hook handed
// to delta.Handle.ApplyLogged, called under the handle's write lock
// before the batch publishes. The epoch must be dense (previous epoch +
// 1); a retired log refuses, failing the mutate, so a caller holding a
// reloaded-away collection cannot write to a file the new catalog
// generation now owns.
func (l *ShardLog) Append(epoch uint64, edits []delta.Edit) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retired {
		return fmt.Errorf("replica: edit log retired")
	}
	if want := l.base + uint64(len(l.frames)) + 1; epoch != want {
		return fmt.Errorf("replica: append at epoch %d, want %d", epoch, want)
	}
	frame, err := l.enc.Encode(store.EditRecord{Epoch: epoch, Edits: edits})
	if err != nil {
		return err
	}
	if l.path != "" {
		if l.repair {
			// The previous append failed and may have left a torn tail it
			// could not truncate; appending after torn garbage would turn
			// it into mid-log corruption, so repair first.
			if _, err := store.RecoverEditLogFile(l.path); err != nil {
				return err
			}
			l.repair = false
		}
		if l.file == nil {
			if l.file, err = store.OpenEditLogFile(l.path); err != nil {
				return err
			}
		}
		start := time.Now()
		if err := l.file.Append(epoch, frame, l.sync); err != nil {
			l.closeFile() // the repair reopens it
			l.repair = true
			return err
		}
		l.appendLat.Observe(time.Since(start))
	}
	l.frames = append(l.frames, frame)
	l.bytes += int64(len(frame))
	return nil
}

// closeFile closes the edit-log handle, if open. Each append has reported
// its own write and fsync, so the close error is dropped.
func (l *ShardLog) closeFile() {
	if l.file != nil {
		_ = l.file.Close()
		l.file = nil
	}
}

// Stream describes one streaming response: either the framed records
// after epoch From (possibly none, when the follower is caught up), or
// NeedCheckpoint when From predates the retained history and the
// follower must bootstrap from the checkpoint at CheckpointEpoch.
type Stream struct {
	From            uint64
	Frames          [][]byte
	Bytes           int64
	NeedCheckpoint  bool
	CheckpointEpoch uint64
}

// StreamFrom returns the retained records with epochs above from, in
// their framed wire form (shared, not copied — frames are immutable).
func (l *ShardLog) StreamFrom(from uint64) Stream {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		return Stream{From: from, NeedCheckpoint: true, CheckpointEpoch: l.base}
	}
	idx := from - l.base
	if idx >= uint64(len(l.frames)) {
		return Stream{From: from}
	}
	out := Stream{From: from, Frames: l.frames[idx:]}
	for _, f := range out.Frames {
		out.Bytes += int64(len(f))
	}
	return out
}

// Checkpoint persists the given state as the shard's checkpoint, resets
// the edit-log file to an empty log based at the checkpoint epoch, and
// drops the retained records the checkpoint now covers. The caller must
// pin the state under the handle's write lock (delta.Handle.Freeze) so
// no writer can log a record between the snapshot and the truncation —
// otherwise a logged-but-unpublished batch could be silently destroyed.
// Both file replacements are atomic (temp + rename); a crash between the
// two leaves a checkpoint plus a stale log, which OpenShardLog heals on
// the next start. On a memory-only log, Checkpoint just compacts the
// retained records (followers further behind re-bootstrap).
func (l *ShardLog) Checkpoint(doc *xmltree.Document, epoch uint64) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retired {
		return 0, fmt.Errorf("replica: edit log retired")
	}
	if cur := l.base + uint64(len(l.frames)); epoch != cur {
		return 0, fmt.Errorf("replica: checkpoint at epoch %d but log is at %d", epoch, cur)
	}
	freed := l.bytes
	if l.path != "" {
		if err := store.SaveCheckpointFile(l.ckpt, doc, nil, epoch); err != nil {
			return 0, err
		}
		l.closeFile() // the rewrite renames a new file over the path
		if err := store.WriteEditLogFile(l.path, epoch, nil); err != nil {
			return 0, err
		}
		l.repair = false
	}
	l.base = epoch
	l.frames, l.bytes = nil, 0
	return freed, nil
}

// ResetTo drops every retained record and rebases the log at epoch — a
// follower adopting a checkpoint discards the history it replayed so
// far. Memory-only.
func (l *ShardLog) ResetTo(epoch uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.base = epoch
	l.frames, l.bytes = nil, 0
}

// CollectMetrics emits the log's retention state and append latency onto
// e under the given labels — the replica subsystem's primary-side
// contribution to /metricsz.
func (l *ShardLog) CollectMetrics(e *obs.Exporter, labels ...obs.Label) {
	st := l.Status()
	e.Gauge("xmatch_replica_log_epoch", "Shard log's current epoch.", float64(st.Epoch), labels...)
	e.Gauge("xmatch_replica_log_retained_records", "Records retained since the last checkpoint.", float64(st.RetainedRecords), labels...)
	e.Gauge("xmatch_replica_log_retained_bytes", "Framed bytes retained since the last checkpoint.", float64(st.RetainedBytes), labels...)
	e.Gauge("xmatch_replica_log_checkpoint_epoch", "Epoch of the latest checkpoint, the base of the retained log; a follower further behind must bootstrap.", float64(st.Base), labels...)
	e.Gauge("xmatch_replica_log_durable", "Whether appended records are persisted to an edit-log file.", obs.Bool(st.Durable), labels...)
	if st.Durable {
		e.Histogram("xmatch_replica_log_append_seconds", "Durable edit-log append latency, fsync included.", l.appendLat.Snapshot(), labels...)
	}
}

// Retire permanently refuses further appends and checkpoints, and closes
// the edit-log file. Reload retires the outgoing catalog generation's
// logs so no straggling writer can interleave with the new generation on
// the same file; Server.Close retires the current generation's.
func (l *ShardLog) Retire() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retired = true
	l.closeFile()
}
