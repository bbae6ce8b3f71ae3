package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// Workload-capture blobs persist a sampled log of served queries: for
// each captured request, the query's fingerprint, its canonical pattern
// text, evaluation mode, the snapshot epoch it ran against, its latency,
// and a digest of the wire-form result. A capture is a replayable
// record of production traffic — `xmatch workload replay` re-runs each
// record against a live daemon or a locally rebuilt catalog and diffs
// the digests, which turns any capture into a differential oracle for
// refactors — and the raw material for workload analysis (which shapes
// dominate, how their latency moved).
//
// Like the edit log, a capture grows in place, so the payload after the
// envelope is a sequence of uvarint-length-prefixed gob records: a
// crash mid-append tears at most the final record, which the loader
// drops and reports via Torn/ValidSize instead of failing.

// WorkloadRecord is one captured query.
type WorkloadRecord struct {
	Fingerprint uint64 // canonical hash of (dataset, pattern, mode, k)
	Dataset     string
	Pattern     string // canonical (re-parseable) pattern text
	Mode        string // "full", "compact", or "topk"
	K           int    // top-k bound; 0 outside topk mode
	Epoch       uint64 // snapshot epoch the query evaluated against
	LatencyUs   int64  // server-side handling latency, microseconds
	Digest      uint64 // FNV-64a over the wire-form results
}

// workloadMeta is the gob message between the envelope and the record
// stream. SampleN records the capture's sampling stride (1 = every
// request) so replay reports can state what fraction of traffic the
// capture represents.
type workloadMeta struct {
	SampleN int
}

// Workload is a loaded capture.
type Workload struct {
	SampleN int
	Records []WorkloadRecord

	// Torn and ValidSize mirror EditLog: a final record truncated by a
	// crash is dropped, and truncating the file to ValidSize repairs it.
	Torn      bool
	ValidSize int64
}

// CreateWorkload writes an empty workload-capture blob with the given
// sampling stride (clamped to >= 1).
func CreateWorkload(w io.Writer, sampleN int) error {
	if sampleN < 1 {
		sampleN = 1
	}
	if err := writeHeader(w, "workload"); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(workloadMeta{SampleN: sampleN})
}

// EncodeWorkloadRecord renders one record in its framed on-disk form:
// uvarint length prefix followed by the gob-encoded record.
func EncodeWorkloadRecord(rec WorkloadRecord) ([]byte, error) {
	if rec.Pattern == "" {
		return nil, fmt.Errorf("store: workload record: empty pattern")
	}
	var record bytes.Buffer
	record.Write(make([]byte, binary.MaxVarintLen64)) // frame placeholder
	if err := gob.NewEncoder(&record).Encode(rec); err != nil {
		return nil, fmt.Errorf("store: encoding workload record: %w", err)
	}
	payloadLen := record.Len() - binary.MaxVarintLen64
	var frame [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(frame[:], uint64(payloadLen))
	buf := record.Bytes()
	copy(buf[binary.MaxVarintLen64-n:], frame[:n])
	return buf[binary.MaxVarintLen64-n:], nil
}

// AppendWorkloadRecord appends one record to a capture previously
// started with CreateWorkload. The writer must be positioned at the end
// of the blob (an *os.File opened with O_APPEND, typically). Frame and
// payload go down in a single Write, so a crash leaves at worst one
// torn record at the tail.
func AppendWorkloadRecord(w io.Writer, rec WorkloadRecord) (int, error) {
	frame, err := EncodeWorkloadRecord(rec)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// LoadWorkload reads a capture, dropping (and reporting) a torn tail
// like LoadEditLog does. Mid-stream damage is a *FormatError; genuine
// read failures stay unclassified.
func LoadWorkload(r io.Reader) (*Workload, error) {
	dec, err := readHeader(r, "workload")
	if err != nil {
		return nil, err
	}
	wl := &Workload{}
	var meta workloadMeta
	if err := dec.Decode(&meta); err != nil {
		return nil, dec.classify(err, "workload meta")
	}
	wl.SampleN = meta.SampleN
	if wl.SampleN < 1 {
		wl.SampleN = 1
	}
	wl.ValidSize = dec.tr.n
	var payload bytes.Buffer
	for {
		ok, torn, err := dec.nextRecord(&payload, 1<<20, "workload", len(wl.Records))
		if err != nil {
			return nil, err
		}
		if !ok {
			wl.Torn = torn
			return wl, nil
		}
		var rec WorkloadRecord
		if err := gob.NewDecoder(&payload).Decode(&rec); err != nil {
			return nil, dec.classify(err, fmt.Sprintf("workload record %d: decoding", len(wl.Records)))
		}
		if rec.Pattern == "" {
			return nil, formatErrorf("workload record %d: empty pattern", len(wl.Records))
		}
		wl.Records = append(wl.Records, rec)
		wl.ValidSize = dec.tr.n
	}
}

// LoadWorkloadFile reads the capture file at path.
func LoadWorkloadFile(path string) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWorkload(f)
}
