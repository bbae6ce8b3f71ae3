package store

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"testing"

	"xmatch/internal/delta"
)

// randomRecord draws a record over every op, with zero, negative and
// large ints, empty and non-ASCII strings, and epochs up to 2^64-1.
func randomRecord(rng *rand.Rand) EditRecord {
	ints := []int{0, -1, 1, math.MinInt64, math.MaxInt64, 63, 64, -65, 1 << 20}
	strs := []string{"", "r.a", "Größe", "日本語", "<c>x</c>", "a\x00b", "\U0001F600 é"}
	num := func() int {
		if rng.Intn(2) == 0 {
			return ints[rng.Intn(len(ints))]
		}
		return rng.Intn(1<<31) - 1<<30
	}
	str := func() string { return strs[rng.Intn(len(strs))] }
	ops := []delta.Op{delta.OpInsert, delta.OpDelete, delta.OpRename, delta.OpSetText}
	edits := make([]delta.Edit, 1+rng.Intn(4))
	for i := range edits {
		edits[i] = delta.Edit{Op: ops[rng.Intn(len(ops))], Start: num(), Path: str(), Ordinal: num(), Pos: num(), XML: str(), Label: str(), Text: str()}
	}
	epochs := []uint64{1, 2, 127, 128, math.MaxUint32, math.MaxUint64 - 1, math.MaxUint64}
	epoch := epochs[rng.Intn(len(epochs))]
	if rng.Intn(2) == 0 {
		epoch = rng.Uint64()
	}
	return EditRecord{Epoch: epoch, Edits: edits}
}

// TestRecordEncoderMatchesEncodeEditRecord checks that the frames of one
// warm encoder are EncodeEditRecord's, byte for byte, record after record.
func TestRecordEncoderMatchesEncodeEditRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	var enc RecordEncoder
	for i := 0; i < 2000; i++ {
		rec := randomRecord(rng)
		got, err := enc.Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeEditRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d (%+v): warm frame %x, fresh frame %x", i, rec, got, want)
		}
	}
	if _, err := enc.Encode(EditRecord{Epoch: 1}); err == nil {
		t.Fatal("empty batch encoded")
	}
}

// unrelated is a gob type no other code encodes.
type unrelated struct {
	A []string
	B map[int]float64
}

// TestRecordEncoderAfterOtherGobTypes checks a log whose first record
// comes after other gob types were first encoded: gob numbers types per
// process in order of first use, and the warm encoder must use the same
// numbers as a fresh one. In this package's run other tests have encoded
// records already, so the test also runs itself alone in a fresh process,
// where an unrelated type is the first gob type of all.
func TestRecordEncoderAfterOtherGobTypes(t *testing.T) {
	if err := gob.NewEncoder(new(bytes.Buffer)).Encode(unrelated{A: []string{"x"}, B: map[int]float64{1: 2}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var enc RecordEncoder
	for i := 0; i < 50; i++ {
		rec := randomRecord(rng)
		got, err := enc.Encode(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeEditRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: warm frame %x, fresh frame %x", i, got, want)
		}
	}
	if testing.Short() {
		return // the fresh process below runs with -test.short
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestRecordEncoderAfterOtherGobTypes$", "-test.short", "-test.count=1").CombinedOutput()
	if err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
}
