package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func sampleWorkloadRecords() []WorkloadRecord {
	return []WorkloadRecord{
		{Fingerprint: 0xdead, Dataset: "orders", Pattern: "order[date]/item", Mode: "full", Epoch: 3, LatencyUs: 1200, Digest: 0xbeef},
		{Fingerprint: 0xfeed, Dataset: "orders", Pattern: "order/item", Mode: "topk", K: 5, Epoch: 3, LatencyUs: 800, Digest: 0xcafe},
		{Fingerprint: 0xf00d, Dataset: "small", Pattern: "a/b", Mode: "compact", Epoch: 1, LatencyUs: 50, Digest: 0x1234},
	}
}

func TestWorkloadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := CreateWorkload(&buf, 4); err != nil {
		t.Fatal(err)
	}
	recs := sampleWorkloadRecords()
	for _, rec := range recs {
		if _, err := AppendWorkloadRecord(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	wl, err := LoadWorkload(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if wl.Torn {
		t.Fatal("clean capture reported torn")
	}
	if wl.SampleN != 4 {
		t.Fatalf("SampleN = %d, want 4", wl.SampleN)
	}
	if len(wl.Records) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(wl.Records), len(recs))
	}
	for i, rec := range recs {
		if wl.Records[i] != rec {
			t.Fatalf("record %d = %+v, want %+v", i, wl.Records[i], rec)
		}
	}
	if wl.ValidSize != int64(buf.Len()) {
		t.Fatalf("ValidSize = %d, want %d", wl.ValidSize, buf.Len())
	}
}

func TestWorkloadTornTail(t *testing.T) {
	var buf bytes.Buffer
	if err := CreateWorkload(&buf, 1); err != nil {
		t.Fatal(err)
	}
	recs := sampleWorkloadRecords()
	if _, err := AppendWorkloadRecord(&buf, recs[0]); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	if _, err := AppendWorkloadRecord(&buf, recs[1]); err != nil {
		t.Fatal(err)
	}
	// Tear the final record at every byte offset: the loader must keep
	// the first record, report Torn, and point ValidSize at the boundary.
	full := buf.Bytes()
	for cut := whole + 1; cut < len(full); cut++ {
		wl, err := LoadWorkload(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !wl.Torn {
			t.Fatalf("cut %d: not reported torn", cut)
		}
		if len(wl.Records) != 1 || wl.Records[0] != recs[0] {
			t.Fatalf("cut %d: records = %+v", cut, wl.Records)
		}
		if wl.ValidSize != int64(whole) {
			t.Fatalf("cut %d: ValidSize = %d, want %d", cut, wl.ValidSize, whole)
		}
	}
}

func TestWorkloadRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := CreateEditLogAt(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, err := LoadWorkload(bytes.NewReader(buf.Bytes())); !errors.As(err, &fe) {
		t.Fatalf("LoadWorkload(editlog) err = %v, want FormatError", err)
	}
	if err := EncodeWorkloadRecordMustFail(); err == nil {
		t.Fatal("empty pattern must not encode")
	}
}

// EncodeWorkloadRecordMustFail exercises the empty-pattern guard.
func EncodeWorkloadRecordMustFail() error {
	_, err := EncodeWorkloadRecord(WorkloadRecord{})
	return err
}

// FuzzLoadWorkload: whatever the bytes, loading a capture yields a
// *FormatError or a capture whose records re-encode and reload to the
// same records; it never panics.
func FuzzLoadWorkload(f *testing.F) {
	var today bytes.Buffer
	if err := CreateWorkload(&today, 4); err != nil {
		f.Fatal(err)
	}
	for _, rec := range sampleWorkloadRecords() {
		if _, err := AppendWorkloadRecord(&today, rec); err != nil {
			f.Fatal(err)
		}
	}
	blob := today.Bytes()
	f.Add(blob)
	for _, n := range []int{0, len(magic), len(magic) + 5, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:n])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		wl, err := LoadWorkload(bytes.NewReader(blob))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("error %v (%T) is not a *FormatError", err, err)
			}
			return
		}
		var again bytes.Buffer
		if err := CreateWorkload(&again, wl.SampleN); err != nil {
			t.Fatal(err)
		}
		for _, rec := range wl.Records {
			if _, err := AppendWorkloadRecord(&again, rec); err != nil {
				t.Fatalf("re-encoding loaded record %+v: %v", rec, err)
			}
		}
		reloaded, err := LoadWorkload(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("reloading a re-encoded capture: %v", err)
		}
		if reloaded.Torn || reloaded.SampleN != wl.SampleN || !reflect.DeepEqual(reloaded.Records, wl.Records) {
			t.Fatalf("re-encoded capture reloads differently:\ngot  %d %+v\nwant %d %+v",
				reloaded.SampleN, reloaded.Records, wl.SampleN, wl.Records)
		}
	})
}
