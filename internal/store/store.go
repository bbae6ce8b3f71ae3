// Package store persists the library's artifacts — possible-mapping sets
// with their schemas, serving catalogs, edit logs, checkpoints and
// workload captures — in a versioned binary format (gob-encoded with a
// magic header), so that expensive steps of the pipeline (top-h
// generation) can be computed once and reloaded.
// Derived state is deliberately not persisted. Block trees are rebuilt
// from the mapping set on load: construction is deterministic and takes
// well under a millisecond (Figure 9(d)). Positional indexes are rebuilt
// from the document on load (index.Build), which costs less than
// decoding and verifying a persisted copy did.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"xmatch/internal/mapping"
	"xmatch/internal/schema"
)

const (
	magic = "XMATCH1\n"
	// version is the one blob format this build writes and reads; any
	// other version is a *FormatError. Every blob is the magic, a gob
	// header naming the version and the kind, and the kind's gob payload:
	// a mapping set with its two schemas; a catalog manifest; an edit log
	// or a workload capture, whose meta message (base epoch, sampling
	// stride) is followed by length-prefixed records appended in place; or
	// a checkpoint of one document and its epoch. gob skips fields the
	// reader no longer declares, so blobs written by earlier builds of
	// this version still load: a manifest entry's index-blob reference and
	// a checkpoint's index payload are read past.
	version = 7
)

// FormatError reports a structurally invalid or corrupted store blob: bad
// magic, truncation, unsupported version, wrong kind, or an undecodable or
// inconsistent payload. Callers that load untrusted or possibly-damaged
// files (the xmatchd catalog loader) can distinguish corruption from
// transient I/O errors with errors.As: genuine read failures (a device
// error mid-read, say) are returned unclassified. A FormatError caused by
// an underlying error keeps it on the chain via Unwrap.
type FormatError struct {
	Msg string
	Err error // underlying cause, if any
}

func (e *FormatError) Error() string { return "store: " + e.Msg }

func (e *FormatError) Unwrap() error { return e.Err }

func formatErrorf(format string, args ...any) error {
	return &FormatError{Msg: fmt.Sprintf(format, args...)}
}

type header struct {
	Version int
	Kind    string // "mappingset", "catalog", "editlog", "checkpoint", "workload"
}

type schemaDTO struct {
	Name string
	// Names and Parents describe the element tree in preorder; the root
	// has Parents[0] == -1.
	Names   []string
	Parents []int32
}

func schemaToDTO(s *schema.Schema) schemaDTO {
	d := schemaDTO{Name: s.Name}
	for _, e := range s.Elements() {
		d.Names = append(d.Names, e.Name)
		if e.Parent == nil {
			d.Parents = append(d.Parents, -1)
		} else {
			d.Parents = append(d.Parents, int32(e.Parent.ID))
		}
	}
	return d
}

// schemaFromDTO rebuilds a schema, refusing with *FormatError anything
// that is not a tree with one element per path.
func schemaFromDTO(d schemaDTO) (*schema.Schema, error) {
	if len(d.Names) == 0 {
		return nil, formatErrorf("schema %q has no elements", d.Name)
	}
	if len(d.Parents) != len(d.Names) {
		return nil, formatErrorf("schema %q: %d parents for %d elements", d.Name, len(d.Parents), len(d.Names))
	}
	if d.Parents[0] != -1 {
		return nil, formatErrorf("schema %q: first element is not the root", d.Name)
	}
	b := schema.NewBuilder(d.Name, d.Names[0])
	elems := make([]*schema.Element, len(d.Names))
	elems[0] = b.Root
	for i := 1; i < len(d.Names); i++ {
		p := d.Parents[i]
		if p < 0 || int(p) >= i {
			return nil, formatErrorf("schema %q: element %d has invalid parent %d", d.Name, i, p)
		}
		elems[i] = elems[p].AddChild(d.Names[i])
	}
	s, err := b.FreezeChecked()
	if err != nil {
		return nil, &FormatError{Msg: err.Error(), Err: err}
	}
	return s, nil
}

type mappingDTO struct {
	S, T  []int32
	Score float64
}

type setDTO struct {
	Source, Target schemaDTO
	Mappings       []mappingDTO
}

func writeHeader(w io.Writer, kind string) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(header{Version: version, Kind: kind})
}

// trackingReader remembers the first non-EOF error its underlying reader
// produced, so decode failures can be told apart: a gob error with a clean
// reader is corruption, a gob error after a reader failure is I/O. It
// implements io.ByteReader so gob decoders read exactly the bytes of each
// message instead of wrapping the stream in a buffered reader — which is
// what lets the edit-log loader resume reading length-prefixed records
// right after the envelope. It also counts the bytes consumed: with exact
// reads, that count is the stream position, which is how the edit-log
// loader locates the last complete record when repairing a torn tail.
type trackingReader struct {
	r   io.Reader
	n   int64
	err error
	buf [1]byte
}

func (t *trackingReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.n += int64(n)
	if err != nil && err != io.EOF && t.err == nil {
		t.err = err
	}
	return n, err
}

func (t *trackingReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(t, t.buf[:]); err != nil {
		return 0, err
	}
	return t.buf[0], nil
}

// blobReader decodes a store blob's payload after readHeader validated the
// envelope.
type blobReader struct {
	*gob.Decoder
	tr *trackingReader
}

// classify wraps a payload decode error: *FormatError (corruption or
// truncation) unless the underlying reader itself failed mid-read, which
// stays an unclassified I/O error.
func (b *blobReader) classify(err error, what string) error {
	if err == nil {
		return nil
	}
	if b.tr.err != nil {
		return fmt.Errorf("store: %s: %w", what, b.tr.err)
	}
	return &FormatError{Msg: what + ": " + err.Error(), Err: err}
}

// nextRecord reads the next record of the uvarint-length-prefixed record
// stream that follows a growable blob's envelope (edit logs, workload
// captures) into payload. It reports ok when a record was read. Otherwise
// the stream has ended: cleanly, or inside a record (torn), the footprint
// of a crash mid-append. A length prefix is a claim, not a size: payload
// grows with the bytes that actually arrive, so a short blob promising a
// record of max bytes cannot make the loader allocate max. kind and i name
// the record in errors.
func (b *blobReader) nextRecord(payload *bytes.Buffer, max uint64, kind string, i int) (ok, torn bool, err error) {
	size, err := binary.ReadUvarint(b.tr)
	if err == io.EOF {
		return false, false, nil
	}
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) && b.tr.err == nil {
			return false, true, nil
		}
		return false, false, b.classify(err, fmt.Sprintf("%s record %d: length prefix", kind, i))
	}
	if size == 0 || size > max {
		return false, false, formatErrorf("%s record %d: implausible size %d", kind, i, size)
	}
	payload.Reset()
	if _, err := io.CopyN(payload, b.tr, int64(size)); err != nil {
		if errors.Is(err, io.EOF) && b.tr.err == nil {
			return false, true, nil
		}
		return false, false, b.classify(err, fmt.Sprintf("%s record %d: torn record", kind, i))
	}
	return true, false, nil
}

// readHeader consumes and validates the magic and header, returning the
// remaining gob stream decoder — also on error, so a caller can tell how
// far the stream got. Validation failures and truncation are
// *FormatError; genuine read failures stay unclassified.
func readHeader(r io.Reader, wantKind string) (*blobReader, error) {
	tr := &trackingReader{r: r}
	b := &blobReader{Decoder: gob.NewDecoder(tr), tr: tr}
	buf := make([]byte, len(magic))
	if n, err := io.ReadFull(tr, buf); err != nil {
		if tr.err != nil {
			return b, fmt.Errorf("store: reading magic: %w", tr.err)
		}
		if string(buf[:n]) != magic[:n] {
			return b, formatErrorf("bad magic %q", buf[:n])
		}
		return b, &FormatError{Msg: fmt.Sprintf("truncated magic (%d bytes)", n), Err: err}
	}
	if string(buf) != magic {
		return b, formatErrorf("bad magic %q", buf)
	}
	var h header
	if err := b.Decode(&h); err != nil {
		return b, b.classify(err, "reading header")
	}
	if h.Version != version {
		return b, formatErrorf("unsupported version %d (want %d)", h.Version, version)
	}
	if h.Kind != wantKind {
		return b, formatErrorf("file contains a %s, want a %s", h.Kind, wantKind)
	}
	return b, nil
}

// SaveSet writes a possible-mapping set together with its schemas.
func SaveSet(w io.Writer, set *mapping.Set) error {
	if err := writeHeader(w, "mappingset"); err != nil {
		return err
	}
	d := setDTO{Source: schemaToDTO(set.Source), Target: schemaToDTO(set.Target)}
	for _, m := range set.Mappings {
		md := mappingDTO{Score: m.Score}
		for _, p := range m.Pairs {
			md.S = append(md.S, int32(p.S))
			md.T = append(md.T, int32(p.T))
		}
		d.Mappings = append(d.Mappings, md)
	}
	return gob.NewEncoder(w).Encode(d)
}

// LoadSet reads a mapping set written by SaveSet, rebuilding probabilities
// via the usual score normalization. A blob that does not decode to a
// valid set is a *FormatError; genuine read failures stay unclassified.
func LoadSet(r io.Reader) (*mapping.Set, error) {
	dec, err := readHeader(r, "mappingset")
	if err != nil {
		return nil, err
	}
	var d setDTO
	if err := dec.Decode(&d); err != nil {
		return nil, dec.classify(err, "decoding mapping set")
	}
	src, err := schemaFromDTO(d.Source)
	if err != nil {
		return nil, err
	}
	tgt, err := schemaFromDTO(d.Target)
	if err != nil {
		return nil, err
	}
	mappings := make([]*mapping.Mapping, len(d.Mappings))
	for i, md := range d.Mappings {
		if len(md.S) != len(md.T) {
			return nil, formatErrorf("mapping %d arrays disagree", i)
		}
		m := &mapping.Mapping{Score: md.Score}
		for j := range md.S {
			m.Pairs = append(m.Pairs, mapping.Pair{S: int(md.S[j]), T: int(md.T[j])})
		}
		mappings[i] = m
	}
	set, err := mapping.NewSet(src, tgt, mappings)
	if err != nil {
		return nil, &FormatError{Msg: err.Error(), Err: err}
	}
	return set, nil
}
