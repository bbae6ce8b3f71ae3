package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"xmatch/internal/delta"
)

// Edit-log blobs persist a dataset's mutation history as an append-only
// sequence of applied edit batches. Replaying the log over the dataset's
// pristine document (in order, through delta.Apply) restores its edited
// state exactly, so a serving daemon can restart — or hot-reload —
// without re-deriving edits or re-shipping mutated XML. The same framing
// doubles as the replication wire format: a primary ships a suffix of its
// log to followers as a literal edit-log blob (see internal/replica).
//
// Unlike the other store blobs, an edit log grows in place: records are
// appended to an existing file without rewriting it. A single gob stream
// cannot be appended to (each Encoder emits its own type descriptors), so
// the payload after the usual magic + header envelope is a sequence of
// self-contained records, each a uvarint length prefix followed by one
// gob-encoded record. A torn tail — a crash mid-append — therefore
// damages only the final record.
//
// Each record carries the epoch its batch produced, so a shipped record
// names the snapshot it reproduces; and the envelope is followed by a meta
// message carrying the log's base epoch — the epoch of the state the first
// record applies on top of. A pristine log has base 0; a log reset by a
// checkpoint has the checkpoint's epoch as its base, which is how replay
// knows the records compacted into the checkpoint are gone on purpose.
// Records must be epoch-dense: record i carries epoch base+i+1.

// EditRecord is one persisted or shipped record: the edits of one applied
// batch, tagged with the snapshot epoch the batch produced.
type EditRecord struct {
	Epoch uint64
	Edits []delta.Edit
}

// editLogMeta is the gob message between the envelope and the record
// stream.
type editLogMeta struct {
	Base uint64
}

// EditLog is a loaded edit log: the base epoch plus the records that
// survived, in append order.
type EditLog struct {
	Base    uint64
	Records []EditRecord

	// Torn reports that the file ended inside the final record — the
	// footprint of a crash mid-append — or inside the envelope, before
	// any record: a crash while the file was created. The torn bytes are
	// dropped (the mutate path logs before it publishes, so a torn tail is
	// by construction a batch that was never acknowledged), but the file
	// still holds them: an append landing after torn garbage would turn a
	// benign torn tail into fatal mid-log corruption, so writers must
	// repair the file first (RecoverEditLogFile) before resuming appends.
	Torn bool
	// ValidSize is the byte length of the longest valid prefix of the
	// blob: the envelope, meta, and every complete record. Truncating the
	// file to ValidSize repairs a torn tail.
	ValidSize int64
}

// Epoch returns the epoch of the state the log reproduces when fully
// replayed: the base for an empty log, else the last record's epoch.
func (l *EditLog) Epoch() uint64 {
	if n := len(l.Records); n > 0 {
		return l.Records[n-1].Epoch
	}
	return l.Base
}

// CreateEditLogAt writes an empty edit-log blob whose first record will
// apply on top of epoch base — the envelope of a log reset by a
// checkpoint at that epoch.
func CreateEditLogAt(w io.Writer, base uint64) error {
	if err := writeHeader(w, "editlog"); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(editLogMeta{Base: base})
}

// EncodeEditRecord renders one record in its framed on-disk/wire form:
// uvarint length prefix followed by the gob-encoded record. The frame is
// what AppendEditRecordFile writes and what the replication stream ships,
// so a record is encoded once and reused byte-for-byte.
func EncodeEditRecord(rec EditRecord) ([]byte, error) {
	if len(rec.Edits) == 0 {
		return nil, fmt.Errorf("store: edit log: empty batch")
	}
	var record bytes.Buffer
	record.Write(make([]byte, binary.MaxVarintLen64)) // frame placeholder
	if err := gob.NewEncoder(&record).Encode(rec); err != nil {
		return nil, fmt.Errorf("store: encoding edit record: %w", err)
	}
	payloadLen := record.Len() - binary.MaxVarintLen64
	var frame [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(frame[:], uint64(payloadLen))
	buf := record.Bytes()
	copy(buf[binary.MaxVarintLen64-n:], frame[:n])
	return buf[binary.MaxVarintLen64-n:], nil
}

// LoadEditLog reads an edit log, returning the base epoch and the applied
// records in append order. A final record truncated by end-of-file is
// dropped and reported via Torn/ValidSize rather than failing the load; so
// is a non-empty stream that ends inside the envelope, which loads as an
// empty log with ValidSize 0. Everything else — a damaged envelope, an
// undecodable or implausible record, a batch that fails delta.Validate, an
// epoch out of sequence — is a *FormatError; genuine read failures stay
// unclassified.
func LoadEditLog(r io.Reader) (*EditLog, error) {
	dec, err := readHeader(r, "editlog")
	var meta editLogMeta
	if err == nil {
		err = dec.classify(dec.Decode(&meta), "edit log meta")
	}
	if err != nil {
		if dec.tr.n > 0 && dec.tr.err == nil && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
			// The bytes that arrived begin an envelope and then stop.
			return &EditLog{Torn: true}, nil
		}
		return nil, err
	}
	// The envelope decoder reads exact message bounds (trackingReader is
	// a ByteReader), so the record stream continues right where the
	// meta ended, and the reader's byte count is the stream position.
	log := &EditLog{Base: meta.Base, ValidSize: dec.tr.n}
	var payload bytes.Buffer
	for {
		ok, torn, err := dec.nextRecord(&payload, 64<<20, "edit log", len(log.Records))
		if err != nil {
			return nil, err
		}
		if !ok {
			log.Torn = torn // a torn tail is an unacknowledged append
			return log, nil
		}
		var rec EditRecord
		if err := gob.NewDecoder(&payload).Decode(&rec); err != nil {
			return nil, dec.classify(err, fmt.Sprintf("edit log record %d: decoding", len(log.Records)))
		}
		if err := delta.Validate(rec.Edits); err != nil {
			return nil, &FormatError{Msg: fmt.Sprintf("edit log record %d: %v", len(log.Records), err), Err: err}
		}
		if want := log.Base + uint64(len(log.Records)) + 1; rec.Epoch != want {
			return nil, formatErrorf("edit log record %d: epoch %d out of sequence (want %d, base %d)",
				len(log.Records), rec.Epoch, want, log.Base)
		}
		log.Records = append(log.Records, rec)
		log.ValidSize = dec.tr.n
	}
}

// AppendEditRecordFile appends one record to the edit-log file at path,
// creating the file (with its envelope, at the record's predecessor
// epoch) if it does not exist or is empty. The append is a single write
// on a file opened with O_APPEND; if it fails partway (disk full, say)
// the file is truncated back to its pre-append size, so a failed — and
// therefore unacknowledged — append cannot leave garbage in front of
// later successful records. With sync set the record is fsynced before
// success is reported, so an acknowledged batch survives a process or
// machine crash.
//
// The caller is responsible for having repaired any torn tail first
// (RecoverEditLogFile): appending after torn garbage would strand an
// intact record behind undecodable bytes, which LoadEditLog rightly
// refuses as mid-log corruption.
func AppendEditRecordFile(path string, rec EditRecord, sync bool) error {
	return appendEditFrame(path, rec.Epoch, sync, func() ([]byte, error) { return EncodeEditRecord(rec) })
}

// AppendEditFrameFile is AppendEditRecordFile for a record already framed
// by EncodeEditRecord — a caller that keeps the frame (the replication log
// retains it for streaming) encodes once and hands it down. epoch is the
// record's epoch, which bases the envelope when the file is new.
func AppendEditFrameFile(path string, epoch uint64, frame []byte, sync bool) error {
	return appendEditFrame(path, epoch, sync, func() ([]byte, error) { return frame, nil })
}

// appendEditFrame appends the frame that encode yields. A new file gets
// its envelope in the same write as its first frame, so a failed write
// leaves no envelope without a record. encode runs after the envelope is
// encoded, where AppendEditRecordFile has always encoded, so that entry
// point writes the bytes it always wrote (gob numbers types in order of
// first use within a process).
func appendEditFrame(path string, epoch uint64, sync bool, encode func() ([]byte, error)) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	pre := st.Size()
	var head []byte
	if pre == 0 {
		if epoch == 0 {
			return fmt.Errorf("store: edit log %s: record carries no epoch", path)
		}
		var envelope bytes.Buffer
		if err := CreateEditLogAt(&envelope, epoch-1); err != nil {
			return err
		}
		head = envelope.Bytes()
	}
	frame, err := encode()
	if err != nil {
		return err
	}
	out := frame
	if head != nil {
		out = append(head, frame...)
	}
	if keep, herr := hookAppendFrame(path, frame); herr != nil {
		// Injected fault. A torn variant (keep > 0) leaves a partial frame
		// on disk and skips the truncate repair — the state a crash
		// mid-write leaves; a clean variant writes nothing. Either way the
		// append fails, so the batch is not acknowledged.
		if keep > 0 {
			_, _ = f.Write(out[:len(out)-len(frame)+min(keep, len(frame))])
		}
		return herr
	}
	if _, err := f.Write(out); err != nil {
		// Best effort: a tail we cannot truncate is still recoverable on
		// load (torn-tail tolerance) as long as no later append lands
		// after it; returning the error makes the mutate fail, so the
		// batch is not acknowledged either way.
		_ = f.Truncate(pre)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			_ = f.Truncate(pre)
			return err
		}
	}
	return nil
}

// LoadEditLogFile reads the edit-log file at path. A missing or empty file
// is an empty history (base 0), not an error — a dataset that has never
// been mutated has no log yet, and a crash after a log file is created
// but before its first write leaves it empty.
func LoadEditLogFile(path string) (*EditLog, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return &EditLog{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if st, err := f.Stat(); err != nil {
		return nil, err
	} else if st.Size() == 0 {
		return &EditLog{}, nil
	}
	return LoadEditLog(f)
}

// RecoverEditLogFile loads the edit-log file at path and, if it ends in a
// torn record, truncates the file back to its last complete record so
// appends may safely resume. This is the mandatory first step before
// writing to a log that may have seen a crash; load-only callers can keep
// using LoadEditLogFile. A missing file is an empty history. Mid-log
// corruption still fails with a *FormatError — truncation only ever eats
// bytes that were never acknowledged.
func RecoverEditLogFile(path string) (*EditLog, error) {
	log, err := LoadEditLogFile(path)
	if err != nil {
		return nil, err
	}
	if log.Torn {
		if err := os.Truncate(path, log.ValidSize); err != nil {
			return nil, fmt.Errorf("store: repairing torn edit log %s: %w", path, err)
		}
		log.Torn = false
	}
	return log, nil
}

// WriteEditLogFile atomically replaces the edit-log file at path with a
// fresh log at the given base epoch holding the given pre-framed records
// (EncodeEditRecord output). The new log is written to a temporary file,
// synced, and renamed over path, so a crash leaves either the old log or
// the new one — never a hybrid. Checkpointing uses this to truncate the
// shipped history.
func WriteEditLogFile(path string, base uint64, frames [][]byte) error {
	if err := hookWriteFile(path); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = CreateEditLogAt(f, base)
	for _, frame := range frames {
		if err != nil {
			break
		}
		_, err = f.Write(frame)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
