package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"xmatch/internal/delta"
	"xmatch/internal/xmltree"
)

// appendRecord writes rec's frame to the end of a log started with
// CreateEditLogAt, in one Write, as AppendEditRecordFile does.
func appendRecord(w io.Writer, rec EditRecord) error {
	frame, err := EncodeEditRecord(rec)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

func sampleBatches() [][]delta.Edit {
	return [][]delta.Edit{
		{
			{Op: delta.OpSetText, Path: "r.a", Text: "2"},
			{Op: delta.OpInsert, Path: "r", XML: "<c>x</c>", Pos: -1},
		},
		{
			{Op: delta.OpRename, Start: 17, Label: "b2"},
		},
		{
			{Op: delta.OpDelete, Path: "r.c"},
		},
	}
}

// sampleRecords frames sampleBatches as epoch-dense records above base.
func sampleRecords(base uint64) []EditRecord {
	batches := sampleBatches()
	recs := make([]EditRecord, len(batches))
	for i, b := range batches {
		recs[i] = EditRecord{Epoch: base + uint64(i) + 1, Edits: b}
	}
	return recs
}

func TestEditLogRoundTrip(t *testing.T) {
	for _, base := range []uint64{0, 41} {
		var buf bytes.Buffer
		if err := CreateEditLogAt(&buf, base); err != nil {
			t.Fatal(err)
		}
		want := sampleRecords(base)
		for _, rec := range want {
			if err := appendRecord(&buf, rec); err != nil {
				t.Fatal(err)
			}
		}
		got, err := LoadEditLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got.Base != base || got.Torn {
			t.Fatalf("base %d: loaded base %d, torn %v", base, got.Base, got.Torn)
		}
		if !reflect.DeepEqual(got.Records, want) {
			t.Fatalf("round trip changed the log:\ngot  %+v\nwant %+v", got.Records, want)
		}
		if got.Epoch() != base+uint64(len(want)) {
			t.Fatalf("log epoch %d, want %d", got.Epoch(), base+uint64(len(want)))
		}
		if got.ValidSize != int64(buf.Len()) {
			t.Fatalf("ValidSize %d, blob is %d bytes", got.ValidSize, buf.Len())
		}
		// An empty log (envelope only) loads as no records at the base.
		var empty bytes.Buffer
		if err := CreateEditLogAt(&empty, base); err != nil {
			t.Fatal(err)
		}
		got, err = LoadEditLog(bytes.NewReader(empty.Bytes()))
		if err != nil || len(got.Records) != 0 || got.Epoch() != base {
			t.Fatalf("empty log: %v, %+v", err, got)
		}
	}
}

func TestEditLogEpochDensity(t *testing.T) {
	// Records must advance the epoch by exactly one each; a gap or
	// repetition means the log and the state it claims to reproduce have
	// diverged, which replay must refuse rather than paper over.
	for name, epochs := range map[string][]uint64{
		"gap":        {1, 3},
		"repeat":     {1, 1},
		"regression": {2, 1},
		"wrong base": {5, 6},
		"zero epoch": {0},
	} {
		var buf bytes.Buffer
		if err := CreateEditLogAt(&buf, 0); err != nil {
			t.Fatal(err)
		}
		batch := sampleBatches()[0]
		for _, e := range epochs {
			if err := appendRecord(&buf, EditRecord{Epoch: e, Edits: batch}); err != nil {
				t.Fatal(err)
			}
		}
		_, err := LoadEditLog(bytes.NewReader(buf.Bytes()))
		var fe *FormatError
		if err == nil || !errors.As(err, &fe) {
			t.Errorf("%s: epochs %v accepted or misclassified: %v", name, epochs, err)
		}
	}
}

// TestEditLogFileAppendAcrossOpens mirrors the daemon's usage: every
// applied batch reopens the file and appends, and the log must replay to
// the same document state the live handle reached.
func TestEditLogFileAppendAcrossOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "orders.editlog")
	// Missing file: empty history.
	if got, err := LoadEditLogFile(path); err != nil || len(got.Records) != 0 || got.Base != 0 {
		t.Fatalf("missing file: %v, %+v", err, got)
	}
	doc, err := xmltree.ParseString(`<r><a>1</a><b>9</b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	h := delta.Open(doc)
	batches := [][]delta.Edit{
		{{Op: delta.OpSetText, Path: "r.a", Text: "2"}},
		{{Op: delta.OpInsert, Path: "r", XML: "<c><d>deep</d></c>", Pos: 0}},
		{{Op: delta.OpDelete, Path: "r.b"}, {Op: delta.OpRename, Path: "r.c", Label: "e"}},
	}
	for _, b := range batches {
		if _, err := h.ApplyLogged(b, func(epoch uint64, es []delta.Edit) error {
			return AppendEditRecordFile(path, EditRecord{Epoch: epoch, Edits: es}, true)
		}); err != nil {
			t.Fatal(err)
		}
	}
	replayed, err := LoadEditLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.Records) != len(batches) {
		t.Fatalf("%d records replayed, want %d", len(replayed.Records), len(batches))
	}
	doc2, err := xmltree.ParseString(`<r><a>1</a><b>9</b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	h2 := delta.Open(doc2)
	for _, rec := range replayed.Records {
		snap, err := h2.Apply(rec.Edits)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch != rec.Epoch {
			t.Fatalf("replay reached epoch %d, record says %d", snap.Epoch, rec.Epoch)
		}
	}
	if h2.Snapshot().Doc.String() != h.Snapshot().Doc.String() {
		t.Fatalf("replayed document diverged:\n%s\nvs\n%s", h2.Snapshot().Doc, h.Snapshot().Doc)
	}
}

func TestEditLogCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := CreateEditLogAt(&buf, 0); err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(0)
	for _, rec := range recs {
		if err := appendRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	good := buf.Bytes()

	// A flipped byte inside a record's string payload can decode into a
	// different but shape-valid batch, so only structural damage —
	// envelope corruption, kind confusion, implausible framing — is
	// detectable and fatal.
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XMATCH9\n"), good[len(magic):]...),
	}
	var cat bytes.Buffer
	if err := SaveCatalog(&cat, testCatalog()); err != nil {
		t.Fatal(err)
	}
	cases["wrong kind"] = cat.Bytes()

	for name, data := range cases {
		_, err := LoadEditLog(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: load succeeded", name)
			continue
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v (%T) is not a *FormatError", name, err, err)
		}
	}

	// A record carrying an invalid batch (bad shape) must be rejected
	// even though it decodes.
	var bad bytes.Buffer
	if err := CreateEditLogAt(&bad, 0); err != nil {
		t.Fatal(err)
	}
	if err := appendRecord(&bad, EditRecord{Epoch: 1, Edits: []delta.Edit{{Op: delta.OpDelete, Path: "r"}}}); err != nil {
		t.Fatal(err)
	}
	// Hand-corrupt the op by round-tripping through the record layer.
	raw := bad.Bytes()
	idx := bytes.LastIndex(raw, []byte("delete"))
	if idx < 0 {
		t.Fatal("op bytes not found")
	}
	copy(raw[idx:], "deIete")
	if _, err := LoadEditLog(bytes.NewReader(raw)); err == nil {
		t.Error("invalid op in log accepted")
	}

	// Encoding an empty batch is refused.
	if _, err := EncodeEditRecord(EditRecord{Epoch: 1}); err == nil {
		t.Error("empty batch encoded")
	}
}

// TestEditLogTornTailMatrix truncates a log at every byte offset inside
// its final record — every possible footprint of a crash mid-append —
// and requires each one to load as a benign torn tail: the completed
// records intact, the torn record dropped, ValidSize naming the exact
// repair point.
func TestEditLogTornTailMatrix(t *testing.T) {
	var buf bytes.Buffer
	if err := CreateEditLogAt(&buf, 0); err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(0)
	var tail int // offset where the final record begins
	for i, rec := range recs {
		if i == len(recs)-1 {
			tail = buf.Len()
		}
		if err := appendRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	good := buf.Bytes()

	for cut := tail; cut < len(good); cut++ {
		got, err := LoadEditLog(bytes.NewReader(good[:cut]))
		if err != nil {
			t.Fatalf("cut at %d/%d: torn tail not tolerated: %v", cut, len(good), err)
		}
		if cut == tail {
			// Truncation exactly at a record boundary is not torn at all.
			if got.Torn {
				t.Errorf("cut at boundary %d flagged torn", cut)
			}
		} else if !got.Torn {
			t.Errorf("cut at %d/%d not flagged torn", cut, len(good))
		}
		if len(got.Records) != len(recs)-1 {
			t.Errorf("cut at %d: %d records survived, want %d", cut, len(got.Records), len(recs)-1)
			continue
		}
		if !reflect.DeepEqual(got.Records, recs[:len(recs)-1]) {
			t.Errorf("cut at %d: surviving records changed", cut)
		}
		if got.ValidSize != int64(tail) {
			t.Errorf("cut at %d: ValidSize %d, want %d", cut, got.ValidSize, tail)
		}
	}

	// The whole blob, untouched, is not torn.
	if got, err := LoadEditLog(bytes.NewReader(good)); err != nil || got.Torn {
		t.Fatalf("intact log: %v, torn %v", err, got.Torn)
	}

	// A cut inside the envelope — a crash during the write that creates
	// the log — is an empty torn log whose repair point is the start.
	envelope := envelopeBytes(t)
	for cut := 1; cut < len(envelope); cut++ {
		got, err := LoadEditLog(bytes.NewReader(good[:cut]))
		if err != nil || !got.Torn || got.ValidSize != 0 || got.Base != 0 || len(got.Records) != 0 {
			t.Errorf("cut at %d inside the %d-byte envelope: %+v, %v; want an empty torn log", cut, len(envelope), got, err)
		}
	}
}

// envelopeBytes is the envelope of an empty log at base 0.
func envelopeBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := CreateEditLogAt(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEditLogTornEnvelopeRecovers: a crash while a log file is created
// leaves it holding a prefix of its envelope, possibly none of it.
// Recovery — twice, as a restart before the next append does — must leave
// a file that the next append extends and a load reads back.
func TestEditLogTornEnvelopeRecovers(t *testing.T) {
	envelope := envelopeBytes(t)
	rec := sampleRecords(0)[0]
	dir := t.TempDir()
	for cut := 0; cut < len(envelope); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("log-%d", cut))
		if err := os.WriteFile(path, envelope[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if lg, err := RecoverEditLogFile(path); err != nil || lg.Torn || len(lg.Records) != 0 {
				t.Fatalf("cut at %d: recovery %d: %+v, %v", cut, i, lg, err)
			}
		}
		if err := AppendEditRecordFile(path, rec, false); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		got, err := LoadEditLogFile(path)
		if err != nil || got.Torn || !reflect.DeepEqual(got.Records, []EditRecord{rec}) {
			t.Fatalf("cut at %d: load after append: %+v, %v", cut, got, err)
		}
	}
}

// TestEditLogRecoverAndResume exercises the append-after-crash sequence
// at every truncation offset: recover (which must physically truncate
// the torn bytes), then append the batch again, then load clean. Without
// the recovery step the re-append would land after torn garbage and turn
// a benign tear into mid-log corruption — the durability bug this
// package refuses to allow.
func TestEditLogRecoverAndResume(t *testing.T) {
	var buf bytes.Buffer
	if err := CreateEditLogAt(&buf, 0); err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords(0)
	var tail int
	for i, rec := range recs {
		if i == len(recs)-1 {
			tail = buf.Len()
		}
		if err := appendRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	good := buf.Bytes()
	dir := t.TempDir()

	for cut := tail; cut < len(good); cut++ {
		path := filepath.Join(dir, "log")
		if err := os.WriteFile(path, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lg, err := RecoverEditLogFile(path)
		if err != nil {
			t.Fatalf("cut at %d: recover: %v", cut, err)
		}
		if lg.Torn {
			t.Fatalf("cut at %d: recover left the log torn", cut)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(tail) {
			t.Fatalf("cut at %d: file is %d bytes after recovery, want %d", cut, st.Size(), tail)
		}
		// Resume: re-append the batch the tear ate, then load clean.
		last := recs[len(recs)-1]
		if err := AppendEditRecordFile(path, last, true); err != nil {
			t.Fatalf("cut at %d: resume append: %v", cut, err)
		}
		final, err := LoadEditLogFile(path)
		if err != nil || final.Torn {
			t.Fatalf("cut at %d: post-resume load: %v, torn %v", cut, err, final.Torn)
		}
		if !reflect.DeepEqual(final.Records, recs) {
			t.Fatalf("cut at %d: post-resume records diverged", cut)
		}
	}

	// Appending to a torn file without recovering first strands the new
	// record behind garbage: depending on where the tear fell, the load
	// either fails outright or silently drops the acknowledged record.
	// Either way the log no longer reproduces the acknowledged history —
	// exactly the corruption recovery exists to prevent.
	for cut := tail + 1; cut < len(good); cut++ {
		path := filepath.Join(dir, "unrepaired")
		if err := os.WriteFile(path, good[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := AppendEditRecordFile(path, recs[len(recs)-1], false); err != nil {
			t.Fatal(err)
		}
		lg, err := LoadEditLogFile(path)
		if err == nil && !lg.Torn && len(lg.Records) == len(recs) {
			t.Fatalf("cut at %d: append after torn garbage produced an apparently healthy log", cut)
		}
	}
}

func TestWriteEditLogFile(t *testing.T) {
	// Atomic rewrite at a nonzero base: the checkpoint truncation path.
	path := filepath.Join(t.TempDir(), "log")
	recs := sampleRecords(7)
	frames := make([][]byte, len(recs))
	for i, rec := range recs {
		frame, err := EncodeEditRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	if err := WriteEditLogFile(path, 7, frames); err != nil {
		t.Fatal(err)
	}
	lg, err := LoadEditLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Base != 7 || !reflect.DeepEqual(lg.Records, recs) {
		t.Fatalf("rewritten log diverged: base %d, %+v", lg.Base, lg.Records)
	}
	// Rewriting to empty resets the history to the base alone.
	if err := WriteEditLogFile(path, 10, nil); err != nil {
		t.Fatal(err)
	}
	if lg, err = LoadEditLogFile(path); err != nil || lg.Base != 10 || len(lg.Records) != 0 {
		t.Fatalf("reset log: %v, %+v", err, lg)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

func TestEditLogVersioning(t *testing.T) {
	// An edit log claiming a future version is rejected.
	var future bytes.Buffer
	if err := writeHeaderVersion(&future, "editlog", version+1); err != nil {
		t.Fatal(err)
	}
	_, err := LoadEditLog(bytes.NewReader(future.Bytes()))
	var fe *FormatError
	if err == nil || !errors.As(err, &fe) {
		t.Errorf("future edit log accepted or misclassified: %v", err)
	}
	// Catalog entries carrying EditLogPath survive a save/load cycle.
	c := &Catalog{Entries: []CatalogEntry{{Name: "a", SetPath: "a.set", EditLogPath: "a.editlog"}}}
	var buf bytes.Buffer
	if err := SaveCatalog(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCatalog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].EditLogPath != "a.editlog" {
		t.Errorf("EditLogPath lost: %+v", got.Entries[0])
	}
	// Appends to a file created by a foreign writer with a stale size-0
	// header path: AppendEditRecordFile on an empty existing file writes
	// the envelope first, based at the record's predecessor epoch.
	path := filepath.Join(t.TempDir(), "x.editlog")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := EditRecord{Epoch: 5, Edits: []delta.Edit{{Op: delta.OpSetText, Path: "r", Text: "t"}}}
	if err := AppendEditRecordFile(path, rec, false); err != nil {
		t.Fatal(err)
	}
	if lg, err := LoadEditLogFile(path); err != nil || lg.Base != 4 || len(lg.Records) != 1 {
		t.Fatalf("append to empty file: %v, %+v", err, lg)
	}
	// A record with no epoch cannot seed a fresh file.
	if err := AppendEditRecordFile(filepath.Join(t.TempDir(), "y"), EditRecord{Edits: rec.Edits}, false); err == nil {
		t.Error("epoch-less record seeded a log")
	}
}

// allocatedBytes is the heap f allocates, by the runtime's running total.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// framedBlob is an envelope followed by one record frame whose length
// prefix claims size and whose payload is body.
func framedBlob(t *testing.T, create func(*bytes.Buffer) error, size uint64, body string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := create(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Write(binary.AppendUvarint(nil, size))
	buf.WriteString(body)
	return buf.Bytes()
}

// TestLoadAllocatesWhatArrives: a record's length prefix is a claim, not
// a size. A blob of a hundred-odd bytes that promises the largest record a
// loader accepts and then ends loads as a torn tail at the envelope
// without the loader allocating what was promised; one byte over the
// limit, or a complete record that does not decode, is a *FormatError.
// Followers decode /v1/replicate/stream bodies through LoadEditLog.
func TestLoadAllocatesWhatArrives(t *testing.T) {
	createLog := func(b *bytes.Buffer) error { return CreateEditLogAt(b, 0) }
	createWorkload := func(b *bytes.Buffer) error { return CreateWorkload(b, 1) }
	loadLog := func(blob []byte) (bool, int64, error) {
		l, err := LoadEditLog(bytes.NewReader(blob))
		if err != nil {
			return false, 0, err
		}
		return l.Torn, l.ValidSize, nil
	}
	loadWorkload := func(blob []byte) (bool, int64, error) {
		w, err := LoadWorkload(bytes.NewReader(blob))
		if err != nil {
			return false, 0, err
		}
		return w.Torn, w.ValidSize, nil
	}
	for _, c := range []struct {
		name   string
		create func(*bytes.Buffer) error
		load   func([]byte) (torn bool, validSize int64, err error)
		limit  uint64
	}{
		{"editlog", createLog, loadLog, 64 << 20},
		{"workload", createWorkload, loadWorkload, 1 << 20},
	} {
		var envelope bytes.Buffer
		if err := c.create(&envelope); err != nil {
			t.Fatal(err)
		}

		blob := framedBlob(t, c.create, c.limit, "xyz")
		var torn bool
		var valid int64
		var err error
		alloc := allocatedBytes(func() { torn, valid, err = c.load(blob) })
		if err != nil || !torn || valid != int64(envelope.Len()) {
			t.Errorf("%s: %d-byte blob claiming %d: torn=%v validSize=%d err=%v, want a torn tail at %d",
				c.name, len(blob), c.limit, torn, valid, err, envelope.Len())
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: loading a %d-byte blob allocated %d bytes", c.name, len(blob), alloc)
		}

		var fe *FormatError
		for _, bad := range []struct {
			what string
			blob []byte
		}{
			{"over the limit", framedBlob(t, c.create, c.limit+1, "xyz")},
			{"undecodable", framedBlob(t, c.create, 3, "xyz")},
		} {
			if _, _, err := c.load(bad.blob); !errors.As(err, &fe) {
				t.Errorf("%s: record %s: err = %v, want a *FormatError", c.name, bad.what, err)
			}
		}
	}
}

// FuzzLoadEditLog: edit-log records arrive over the network
// (/v1/replicate/stream bodies decode through LoadEditLog). Whatever the
// bytes, loading yields a *FormatError or a log whose records re-encode
// and reload to the same records; it never panics.
func FuzzLoadEditLog(f *testing.F) {
	var today bytes.Buffer
	if err := CreateEditLogAt(&today, 41); err != nil {
		f.Fatal(err)
	}
	for _, rec := range sampleRecords(41) {
		if err := appendRecord(&today, rec); err != nil {
			f.Fatal(err)
		}
	}
	blob := today.Bytes()
	f.Add(blob)
	for _, n := range []int{0, len(magic), len(magic) + 5, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:n])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		log, err := LoadEditLog(bytes.NewReader(blob))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v (%T) is not a *FormatError", err, err)
			}
			return
		}
		var again bytes.Buffer
		if err := CreateEditLogAt(&again, log.Base); err != nil {
			t.Fatal(err)
		}
		for _, rec := range log.Records {
			if err := appendRecord(&again, rec); err != nil {
				t.Fatalf("re-encoding loaded record %+v: %v", rec, err)
			}
		}
		reloaded, err := LoadEditLog(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("reloading a re-encoded log: %v", err)
		}
		if reloaded.Torn || reloaded.Base != log.Base || !reflect.DeepEqual(reloaded.Records, log.Records) {
			t.Fatalf("re-encoded log reloads differently:\ngot  base %d %+v\nwant base %d %+v",
				reloaded.Base, reloaded.Records, log.Base, log.Records)
		}
	})
}
