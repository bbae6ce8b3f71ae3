package engine

import (
	"strconv"

	"xmatch/internal/core"
)

// Query fingerprinting. The PTQ model makes (pattern, mode, k) over a
// dataset the unit of work — two requests with the same fingerprint do
// the same evaluation — so the fingerprint is the key the serving
// layer's workload accounting, capture log, and (eventually) the cost
// planner all agree on. It is computed at prepare time from the parsed
// pattern's canonical rendering, so textual variations that parse to the
// same pattern (whitespace, say) collapse to one fingerprint.

// Fingerprint returns the canonical workload fingerprint of a prepared
// query evaluated in the given mode over the named dataset.
func Fingerprint(dataset string, q *core.Query, mode string, k int) uint64 {
	return FingerprintPattern(dataset, q.Canonical, mode, k)
}

// FingerprintK is the k a fingerprint — and every accounting row and
// capture record filed under it — carries for a request's k: k itself in
// topk mode, 0 in the modes whose evaluators ignore it.
func FingerprintK(mode string, k int) int {
	if mode != "topk" {
		return 0
	}
	return k
}

// FingerprintPattern is Fingerprint over an already-canonical pattern
// rendering — the form workload-capture records carry, so a replay can
// recompute the fingerprint it is about to re-run. K participates only
// in topk mode (the other evaluators ignore it, so it must not split
// their fingerprints). The hash is FNV-64a over the NUL-separated
// fields, k in decimal; dotted paths and pattern text never contain NUL.
// It is computed in place — every /v1/query pays it, so it allocates
// nothing.
func FingerprintPattern(dataset, canonicalPattern, mode string, k int) uint64 {
	h := uint64(fnvOffset64)
	for _, field := range [...]string{dataset, canonicalPattern, mode} {
		h = fnv64a(h, field)
		h *= fnvPrime64 // the NUL separator: h ^ 0 == h
	}
	var kbuf [20]byte
	return fnv64a(h, strconv.AppendInt(kbuf[:0], int64(FingerprintK(mode, k)), 10))
}

// FNV-64a, as hash/fnv computes it.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}
