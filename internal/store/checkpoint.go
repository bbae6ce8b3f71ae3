package store

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"xmatch/internal/index"
	"xmatch/internal/xmltree"
)

// Checkpoint blobs (format version 6) persist one shard's mutated state
// as a single file: the document in its persisted preorder form — labels,
// texts, parents, and crucially the exact interval numbers plus the
// numbering base — and the epoch the state sits at. The index is not in
// the blob: it is derived state, and index.Build over the reassembled
// document is cheaper than decoding and verifying a persisted copy would
// be. Reloading re-parses nothing: the document is reassembled with its
// recorded numbering (xmltree.Assemble; a fresh parse would renumber,
// breaking Start-addressed edits, collection ordering, and byte-identical
// replication), the index is rebuilt over it, and the epoch is stamped
// back so consistency tokens stay monotonic. Version 6 and 7 checkpoints
// written while the blob still carried an index payload load unchanged:
// gob skips the field the DTO no longer declares.
//
// Checkpoints are what lets an edit log be truncated: a log reset to base
// epoch E plus a checkpoint at E reproduce the same state as the full
// log from genesis, and a follower that fell behind the retained log
// bootstraps from the checkpoint instead of replaying history that no
// longer exists. Two saves of the same state produce identical bytes, so
// primary and replica state can be compared by comparing checkpoints.

// checkpointDTO is the persisted payload. Node arrays are parallel,
// indexed by preorder position; Parents[0] == -1.
type checkpointDTO struct {
	Epoch   uint64
	NumBase int
	Labels  []string
	Texts   []string
	Parents []int32
	Starts  []int32
	Ends    []int32
}

// Checkpoint is a restored checkpoint: the reassembled document with its
// rebuilt index installed (epoch already stamped), ready for delta.Open
// or Handle.Adopt.
type Checkpoint struct {
	Epoch uint64
	Doc   *xmltree.Document
	Index *index.Index
}

// SaveCheckpoint writes a checkpoint blob for one shard's state: the
// document and the epoch it sits at. The caller must hold the state still
// for the duration (delta.Handle.Freeze).
func SaveCheckpoint(w io.Writer, doc *xmltree.Document, epoch uint64) error {
	if err := writeHeader(w, "checkpoint"); err != nil {
		return err
	}
	nodes := doc.Nodes()
	d := checkpointDTO{
		Epoch:   epoch,
		NumBase: doc.NumBase(),
		Labels:  make([]string, len(nodes)),
		Texts:   make([]string, len(nodes)),
		Parents: xmltree.ParentPositions(nodes),
		Starts:  make([]int32, len(nodes)),
		Ends:    make([]int32, len(nodes)),
	}
	for i, n := range nodes {
		d.Labels[i] = n.Label
		d.Texts[i] = n.Text
		d.Starts[i] = int32(n.Start)
		d.Ends[i] = int32(n.End)
	}
	return gob.NewEncoder(w).Encode(d)
}

// LoadCheckpoint reads a checkpoint blob, reassembles the document with
// its persisted numbering, builds the index over it, stamps the epoch,
// and installs the index on the document. Structural damage anywhere —
// envelope, node arrays, interval invariants — is a *FormatError.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	dec, err := readHeader(r, "checkpoint")
	if err != nil {
		return nil, err
	}
	var d checkpointDTO
	if err := dec.Decode(&d); err != nil {
		return nil, dec.classify(err, "decoding checkpoint")
	}
	n := len(d.Labels)
	if len(d.Texts) != n || len(d.Parents) != n || len(d.Starts) != n || len(d.Ends) != n {
		return nil, formatErrorf("checkpoint node arrays disagree: %d/%d/%d/%d/%d",
			n, len(d.Texts), len(d.Parents), len(d.Starts), len(d.Ends))
	}
	specs := make([]xmltree.NodeSpec, n)
	for i := 0; i < n; i++ {
		specs[i] = xmltree.NodeSpec{
			Label:  d.Labels[i],
			Text:   d.Texts[i],
			Parent: int(d.Parents[i]),
			Start:  int(d.Starts[i]),
			End:    int(d.Ends[i]),
		}
	}
	doc, err := xmltree.Assemble(specs, d.NumBase)
	if err != nil {
		return nil, &FormatError{Msg: "checkpoint document: " + err.Error(), Err: err}
	}
	ix := index.Build(doc)
	ix.SetEpoch(d.Epoch)
	ix.Install()
	return &Checkpoint{Epoch: d.Epoch, Doc: doc, Index: ix}, nil
}

// SaveCheckpointFile atomically writes a checkpoint blob to path via a
// temporary file, fsync, and rename — a crash leaves either the old
// checkpoint or the new one, never a torn hybrid. The index argument is
// ignored (the blob holds no index); it stays so that existing callers
// which pass a snapshot's index keep compiling.
func SaveCheckpointFile(path string, doc *xmltree.Document, _ *index.Index, epoch uint64) error {
	if err := hookWriteFile(path); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = SaveCheckpoint(f, doc, epoch)
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

// LoadCheckpointFile reads the checkpoint blob at path. A missing file
// returns (nil, nil): a shard that has never been checkpointed replays
// its full log over the pristine document instead.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return ck, nil
}
