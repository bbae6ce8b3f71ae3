package replica

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmatch/internal/delta"
	"xmatch/internal/store"
	"xmatch/internal/xmltree"
)

func batch(text string) []delta.Edit {
	return []delta.Edit{{Op: delta.OpSetText, Path: "r.a", Text: text}}
}

func TestShardLogAppendAndStream(t *testing.T) {
	l := NewShardLog(0)
	if err := l.Append(2, batch("x")); err == nil {
		t.Fatal("sparse first epoch accepted")
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(i, batch("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(3, batch("x")); err == nil {
		t.Fatal("repeated epoch accepted")
	}
	st := l.Status()
	if st.Base != 0 || st.Epoch != 3 || st.RetainedRecords != 3 || st.Durable || st.Retired {
		t.Fatalf("status %+v", st)
	}

	// A caught-up follower gets nothing; a lagging one gets the exact
	// suffix; one behind the base is told to bootstrap.
	if s := l.StreamFrom(3); len(s.Frames) != 0 || s.NeedCheckpoint {
		t.Fatalf("caught-up stream %+v", s)
	}
	s := l.StreamFrom(1)
	if len(s.Frames) != 2 || s.NeedCheckpoint || s.Bytes <= 0 {
		t.Fatalf("suffix stream %+v", s)
	}
	// The frames are literal edit-log frames: an edit-log blob based at
	// From, holding epochs From+1..3.
	var blob bytes.Buffer
	if err := store.CreateEditLogAt(&blob, 1); err != nil {
		t.Fatal(err)
	}
	for _, f := range s.Frames {
		blob.Write(f)
	}
	lg, err := store.LoadEditLog(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lg.Base != 1 || len(lg.Records) != 2 || lg.Records[0].Epoch != 2 || lg.Records[1].Epoch != 3 {
		t.Fatalf("reframed stream diverged: %+v", lg)
	}

	l.ResetTo(10)
	if s := l.StreamFrom(3); !s.NeedCheckpoint || s.CheckpointEpoch != 10 {
		t.Fatalf("pre-base stream %+v", s)
	}

	l.Retire()
	if err := l.Append(11, batch("x")); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("retired log accepted append: %v", err)
	}
}

// shardState builds a live handle over a small document.
func shardState(t *testing.T) *delta.Handle {
	t.Helper()
	doc, err := xmltree.ParseString(`<r><a>0</a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	return delta.Open(doc)
}

func TestShardLogDurableCycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s0.editlog")
	h := shardState(t)

	// Fresh durable log at base 0 (no checkpoint yet).
	l, recs, err := OpenShardLog(path, true, 0)
	if err != nil || len(recs) != 0 {
		t.Fatal(err, recs)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.ApplyLogged(batch("v"+string(rune('0'+i))), l.Append); err != nil {
			t.Fatal(err)
		}
	}
	// The file holds what memory holds: its records frame to the
	// retained frames, byte for byte.
	lg, err := store.LoadEditLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	retained := l.StreamFrom(0).Frames
	if len(lg.Records) != 3 || len(retained) != 3 {
		t.Fatalf("file %d records, memory %d frames", len(lg.Records), len(retained))
	}
	for i, rec := range lg.Records {
		if f, err := store.EncodeEditRecord(rec); err != nil || !bytes.Equal(f, retained[i]) {
			t.Fatalf("record %d: file and memory disagree (%v)", i, err)
		}
	}

	// Checkpoint under Freeze: file resets to base 3, checkpoint blob
	// exists, retention drops.
	snap := h.Snapshot()
	var freed int64
	if err := h.Freeze(func(s *delta.Snapshot) error {
		var ferr error
		freed, ferr = l.Checkpoint(s.Doc, s.Epoch)
		return ferr
	}); err != nil {
		t.Fatal(err)
	}
	if freed <= 0 {
		t.Fatalf("freed %d", freed)
	}
	if st := l.Status(); st.Base != 3 || st.RetainedRecords != 0 {
		t.Fatalf("post-checkpoint status %+v", st)
	}
	ck, err := store.LoadCheckpointFile(CheckpointPath(path))
	if err != nil || ck == nil {
		t.Fatalf("checkpoint blob: %v, %v", err, ck)
	}
	if ck.Epoch != 3 || ck.Doc.String() != snap.Doc.String() {
		t.Fatal("checkpoint state diverged")
	}

	// More appends after the checkpoint, then reopen: replaying the
	// checkpoint + surviving records reproduces the live state.
	if _, err := h.ApplyLogged(batch("after"), l.Append); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := OpenShardLog(path, true, ck.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if st := l2.Status(); st.Base != 3 || st.RetainedRecords != len(recs) || len(recs) != 1 {
		t.Fatalf("reopened status %+v, %d records to replay", st, len(recs))
	}
	h2 := delta.Open(ck.Doc)
	for _, rec := range recs {
		snap2, err := h2.Apply(rec.Edits)
		if err != nil {
			t.Fatal(err)
		}
		if snap2.Epoch != rec.Epoch {
			t.Fatalf("replay epoch %d, record %d", snap2.Epoch, rec.Epoch)
		}
	}
	if h2.Snapshot().Doc.String() != h.Snapshot().Doc.String() {
		t.Fatal("restart state diverged from live state")
	}
}

func TestShardLogOpenReconciliation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s0.editlog")
	h := shardState(t)
	l, _, err := OpenShardLog(path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := h.ApplyLogged(batch("x"), l.Append); err != nil {
			t.Fatal(err)
		}
	}

	// Crash between checkpoint rename and log reset: checkpoint at 2, log
	// still based at 0 with records 1..4. Open must drop 1..2, keep 3..4,
	// and rewrite the file at base 2.
	snapAt4 := h.Snapshot()
	l2, recs, err := OpenShardLog(path, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Epoch != 3 || recs[1].Epoch != 4 {
		t.Fatalf("reconciled records %+v", recs)
	}
	if st := l2.Status(); st.Base != 2 || st.Epoch != 4 || st.RetainedRecords != 2 {
		t.Fatalf("reconciled status %+v", st)
	}
	lg, err := store.LoadEditLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Base != 2 || len(lg.Records) != 2 {
		t.Fatalf("rewritten file: base %d, %d records", lg.Base, len(lg.Records))
	}
	_ = snapAt4

	// A log whose base is ahead of the checkpoint means the compacted
	// history is gone: hard error, not silent data loss.
	if err := store.WriteEditLogFile(path, 9, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShardLog(path, false, 2); err == nil || !strings.Contains(err.Error(), "compacted history") {
		t.Fatalf("missing-history open: %v", err)
	}

	// A torn tail on open is repaired, not fatal.
	frames := make([][]byte, 0, 2)
	for i := uint64(1); i <= 2; i++ {
		f, err := store.EncodeEditRecord(store.EditRecord{Epoch: i, Edits: batch("x")})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	if err := store.WriteEditLogFile(path, 0, frames); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l3, recs, err := OpenShardLog(path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Epoch != 1 {
		t.Fatalf("torn open kept %+v", recs)
	}
	// And appends resume cleanly at the next epoch.
	if err := l3.Append(2, batch("y")); err != nil {
		t.Fatal(err)
	}
	if lg, err := store.LoadEditLogFile(path); err != nil || lg.Torn || len(lg.Records) != 2 {
		t.Fatalf("post-repair file: %v, %+v", err, lg)
	}
}

// TestShardLogWritesAppendEditRecordFileBytes records a mutate sequence
// over every op through a durable log and checks that the log's file —
// written through one handle, from one warm encoder — is byte-identical
// to the file AppendEditRecordFile writes for the same records, and loads.
func TestShardLogWritesAppendEditRecordFileBytes(t *testing.T) {
	dir := t.TempDir()
	path, ref := filepath.Join(dir, "s0.editlog"), filepath.Join(dir, "ref.editlog")
	l, _, err := OpenShardLog(path, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Retire()
	h := shardState(t)
	var recs []store.EditRecord
	record := func(epoch uint64, edits []delta.Edit) error {
		recs = append(recs, store.EditRecord{Epoch: epoch, Edits: edits})
		return l.Append(epoch, edits)
	}
	for i := 0; i < 40; i++ {
		var edits []delta.Edit
		switch i % 4 {
		case 0:
			edits = []delta.Edit{{Op: delta.OpSetText, Path: "r.a", Text: strings.Repeat("é", i)}}
		case 1:
			edits = []delta.Edit{{Op: delta.OpInsert, Path: "r", Pos: -1, XML: "<b><c>x</c></b>"}}
		case 2:
			edits = []delta.Edit{{Op: delta.OpRename, Path: "r.b", Label: "d"}, {Op: delta.OpSetText, Path: "r.d.c", Text: ""}}
		case 3:
			edits = []delta.Edit{{Op: delta.OpDelete, Path: "r.d"}}
		}
		if _, err := h.ApplyLogged(edits, record); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	for _, rec := range recs {
		if err := store.AppendEditRecordFile(ref, rec, false); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("shard log file (%d bytes) differs from AppendEditRecordFile's (%d bytes)", len(got), len(want))
	}
	if lg, err := store.LoadEditLogFile(path); err != nil || len(lg.Records) != len(recs) {
		t.Fatalf("load: %v, %+v", err, lg)
	}
}

// TestShardLogTornAppendThenAppend injects a torn append through the
// store's hook: the append fails, the next one repairs the file by path,
// reopens it and succeeds, and the log loads with every acknowledged
// record and nothing else.
func TestShardLogTornAppendThenAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s0.editlog")
	l, _, err := OpenShardLog(path, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Retire()
	if err := l.Append(1, batch("one")); err != nil {
		t.Fatal(err)
	}
	tear := true
	store.SetHooks(&store.Hooks{AppendFrame: func(_ string, frame []byte) (int, error) {
		if tear {
			tear = false
			return len(frame) / 2, os.ErrDeadlineExceeded
		}
		return len(frame), nil
	}})
	t.Cleanup(func() { store.SetHooks(nil) })
	if err := l.Append(2, batch("torn")); err == nil {
		t.Fatal("torn append reported success")
	}
	if lg, err := store.LoadEditLogFile(path); err != nil || !lg.Torn || len(lg.Records) != 1 {
		t.Fatalf("after the torn append: %v, %+v", err, lg)
	}
	for i, text := range []string{"two", "three"} {
		if err := l.Append(uint64(2+i), batch(text)); err != nil {
			t.Fatal(err)
		}
	}
	lg, err := store.LoadEditLogFile(path)
	if err != nil || lg.Torn || len(lg.Records) != 3 {
		t.Fatalf("after the repair: %v, %+v", err, lg)
	}
	for i, text := range []string{"one", "two", "three"} {
		if rec := lg.Records[i]; rec.Epoch != uint64(i+1) || rec.Edits[0].Text != text {
			t.Fatalf("record %d: %+v", i, rec)
		}
	}
}
