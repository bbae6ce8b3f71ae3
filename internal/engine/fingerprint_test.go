package engine

import (
	"hash/fnv"
	"io"
	"strconv"
	"testing"

	"xmatch/internal/dataset"
)

// fingerprintReference is FingerprintPattern as first written, over
// hash/fnv: the 64 bits capture files on disk and replay tools carry.
func fingerprintReference(dataset, canonicalPattern, mode string, k int) uint64 {
	if mode != "topk" {
		k = 0
	}
	h := fnv.New64a()
	_, _ = io.WriteString(h, dataset)
	_, _ = h.Write([]byte{0})
	_, _ = io.WriteString(h, canonicalPattern)
	_, _ = h.Write([]byte{0})
	_, _ = io.WriteString(h, mode)
	_, _ = h.Write([]byte{0})
	_, _ = io.WriteString(h, strconv.Itoa(k))
	return h.Sum64()
}

// TestFingerprintMatchesReference: the in-place hash produces the bits the
// hash/fnv form did — empty fields, every mode, k on both sides of its
// topk-only rule, negative and many-digit k — and allocates nothing.
func TestFingerprintMatchesReference(t *testing.T) {
	patterns := []string{"", "a", "Order//EMail", "a[.=\"v w\"]/b"}
	for _, q := range dataset.Queries() {
		patterns = append(patterns, q.Text)
	}
	for _, ds := range []string{"", "D7", "orders\xff"} {
		for _, p := range patterns {
			for _, mode := range []string{"", "basic", "compact", "topk", "other"} {
				for _, k := range []int{0, 1, 5, 10, 123456789, -3, 1 << 62} {
					if got, want := FingerprintPattern(ds, p, mode, k), fingerprintReference(ds, p, mode, k); got != want {
						t.Fatalf("FingerprintPattern(%q, %q, %q, %d) = %016x, reference %016x", ds, p, mode, k, got, want)
					}
				}
			}
		}
	}
	if FingerprintPattern("D7", "a/b", "compact", 7) != FingerprintPattern("D7", "a/b", "compact", 0) {
		t.Fatal("k split a compact fingerprint")
	}
	if FingerprintPattern("D7", "a/b", "topk", 7) == FingerprintPattern("D7", "a/b", "topk", 5) {
		t.Fatal("k did not split a topk fingerprint")
	}
	if avg := testing.AllocsPerRun(100, func() { _ = FingerprintPattern("D7", "Order/DeliverTo/Contact/EMail", "topk", 5) }); avg != 0 {
		t.Fatalf("FingerprintPattern allocates %.1f times", avg)
	}
}
