package core

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"xmatch/internal/mapping"
	"xmatch/internal/twig"
)

// This file renders PTQ answers straight to their JSON wire bytes, with no
// intermediate Wire* structs and no reflection. The output is byte-for-byte
// what encoding/json produces for the ToWire / AnswersToWire forms (those
// stay as the client decode forms and as the oracle the differential and
// fuzz tests compare this renderer against).
//
// The evaluators hand one []twig.Match slice to every mapping that rewrites
// the query identically (matcher memo, join sharing, ResultMerger), and
// result slices are never written after Finish. So two results whose
// Matches share an identity (first element address, length) carry the same
// matches, and the "matches" array is rendered once per distinct slice: a
// later mapping with the same slice gets a copy of the bytes already in the
// buffer.

// ResultHeads holds, for every mapping of a set, the bytes a result object
// for that mapping opens with — {"mapping":i,"prob":p,"matches": — which
// are constants of the mapping set, not of a request. The nil table is
// valid and holds no heads.
type ResultHeads []resultHead

type resultHead struct {
	prob  float64
	bytes []byte
}

// NewResultHeads renders the head of every mapping of the set.
func NewResultHeads(set *mapping.Set) ResultHeads {
	heads := make(ResultHeads, set.Len())
	// One array for all heads; should it move while it grows, the heads
	// already cut keep the array they were cut from.
	buf := make([]byte, 0, 64*len(heads))
	for mi, m := range set.Mappings {
		lo := len(buf)
		buf = appendResultHead(buf, mi, m.Prob)
		heads[mi] = resultHead{prob: m.Prob, bytes: buf[lo:len(buf):len(buf)]}
	}
	return heads
}

// head returns the rendered head of r, or nil when the table does not hold
// r's mapping at exactly r's probability. A head is a function of the
// mapping index and the probability's bits, so a hit is what
// appendResultHead would write.
func (h ResultHeads) head(r Result) []byte {
	if uint(r.MappingIndex) < uint(len(h)) {
		if e := &h[r.MappingIndex]; math.Float64bits(e.prob) == math.Float64bits(r.Prob) {
			return e.bytes
		}
	}
	return nil
}

func appendResultHead(dst []byte, mi int, prob float64) []byte {
	dst = append(dst, `{"mapping":`...)
	dst = strconv.AppendInt(dst, int64(mi), 10)
	dst = append(dst, `,"prob":`...)
	dst = appendJSONFloat(dst, prob)
	return append(dst, `,"matches":`...)
}

// AppendResultsJSON appends the JSON array of results, exactly as
// encoding/json renders ToWire(results). Probabilities must be finite
// (mapping probabilities and their sums are). A result found in heads opens
// with a copy of its head; any other — every one under a nil table — is
// formatted here, to the same bytes.
//
// The buffer grows once per distinct match slice, not once per doubling:
// the results carrying each slice are counted first, and when a slice's
// fragment has been rendered and its length is known, room for its repeats
// is reserved in one step, on top of what is already known to follow.
func AppendResultsJSON(dst []byte, results []Result, heads ResultHeads) []byte {
	// frag is one distinct match slice: how many results carry it and,
	// once the first of them has rendered it (hi > 0), where its bytes lie
	// — offsets, not a sub-slice: dst may move when it grows.
	type frag struct{ n, lo, hi int }
	var frags smallTable[ident, frag]
	// ahead counts the bytes known to follow len(dst): the brackets, every
	// result's head, comma and brace, and the repeats of rendered fragments.
	ahead := 2
	for _, r := range results {
		id := sliceIdent(r.Matches)
		f, _ := frags.get(id)
		f.n++
		frags.set(id, f)
		ahead += len(heads.head(r)) + 2
	}
	dst = slices.Grow(dst, ahead)
	dst = append(dst, '[')
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		h := heads.head(r)
		if h != nil {
			dst = append(dst, h...)
		} else {
			dst = appendResultHead(dst, r.MappingIndex, r.Prob)
		}
		ahead -= len(h) + 2
		id := sliceIdent(r.Matches)
		f, _ := frags.get(id)
		if f.hi > 0 {
			// The source range lies below len(dst), so the copy is sound
			// whether or not append reallocates.
			dst = append(dst, dst[f.lo:f.hi]...)
			ahead -= f.hi - f.lo
		} else {
			f.lo = len(dst)
			dst = appendMatchesJSON(dst, r.Matches)
			f.hi = len(dst)
			frags.set(id, f)
			ahead += (f.n - 1) * (f.hi - f.lo)
			dst = slices.Grow(dst, ahead)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

func appendMatchesJSON(dst []byte, matches []twig.Match) []byte {
	// paths[n] is where pattern node n's path was last rendered in this
	// fragment (hi > 0 once it was): a match binding n to an equal path
	// copies those bytes. Node indexes outside the array render each time.
	type rendered struct {
		path   string
		lo, hi int
	}
	var paths [8]rendered
	dst = append(dst, '[')
	for i, m := range matches {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"bindings":[`...)
		for j, b := range m {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"node":`...)
			dst = strconv.AppendInt(dst, int64(b.Q.Index), 10)
			dst = append(dst, `,"path":`...)
			if n := b.Q.Index; uint(n) < uint(len(paths)) {
				if p := &paths[n]; p.hi > 0 && p.path == b.D.Path {
					dst = append(dst, dst[p.lo:p.hi]...)
				} else {
					lo := len(dst)
					dst = AppendJSONString(dst, b.D.Path)
					*p = rendered{b.D.Path, lo, len(dst)}
				}
			} else {
				dst = AppendJSONString(dst, b.D.Path)
			}
			dst = append(dst, `,"start":`...)
			dst = strconv.AppendInt(dst, int64(b.D.Start), 10)
			if b.D.Text != "" {
				dst = append(dst, `,"text":`...)
				dst = AppendJSONString(dst, b.D.Text)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, `]}`...)
	}
	return append(dst, ']')
}

// AppendAnswersJSON appends the JSON array of aggregated answers, exactly
// as encoding/json renders AnswersToWire(answers).
func AppendAnswersJSON(dst []byte, answers []Answer) []byte {
	dst = append(dst, '[')
	for i, a := range answers {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"values":`...)
		if a.Values == nil {
			dst = append(dst, `null`...)
		} else {
			dst = append(dst, '[')
			for j, v := range a.Values {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = AppendJSONString(dst, v)
			}
			dst = append(dst, ']')
		}
		dst = append(dst, `,"prob":`...)
		dst = appendJSONFloat(dst, a.Prob)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// jsonPlain marks the ASCII bytes encoding/json copies into a string
// unescaped under its default HTML-safe escaping: everything from space up
// except the quote, the backslash, and <, >, &.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// skipJSONPlain returns the end of the run of whole eight-byte words at
// s[i:] whose bytes jsonPlain all marks. A word w fails if a byte has its
// high bit set (w & highs) or lies below space or is one of " \ < > & —
// the standard has-less-than and has-zero-byte tests, (x - ones*n) &^ x &
// highs with x = w or w xor ones*c. Each x has w's high bits (c is
// ASCII), so OR-ed with w & highs the &^ x factors drop out.
func skipJSONPlain(s string, i int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(s); i += 8 {
		t := s[i : i+8]
		w := uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
			uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
		if (w|(w-ones*' ')|(w^ones*'"'-ones)|(w^ones*'\\'-ones)|
			(w^ones*'<'-ones)|(w^ones*'>'-ones)|(w^ones*'&'-ones))&highs != 0 {
			break
		}
	}
	return i
}

// AppendJSONString appends s as a JSON string exactly as encoding/json
// renders it: \" \\ \b \f \n \r \t by name, other control bytes and <, >, &
// as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := skipJSONPlain(s, 0); i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonPlain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			i = skipJSONPlain(s, i)
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i = skipJSONPlain(s, i+size)
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends a finite f in encoding/json's number form: the
// ES6 number-to-string conversion (shortest round-trip digits, exponent
// form below 1e-6 and from 1e21, exponent not zero-padded).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
