package core

import (
	"math"
	"strconv"
	"unicode/utf8"

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

// AppendResultsJSON appends the JSON array of results, exactly as
// encoding/json renders ToWire(results). Probabilities must be finite
// (mapping probabilities and their sums are).
func AppendResultsJSON(dst []byte, results []Result) []byte {
	type span struct{ lo, hi int }
	// Offsets, not sub-slices: dst may move when it grows.
	var rendered smallTable[ident, span]
	dst = append(dst, '[')
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"mapping":`...)
		dst = strconv.AppendInt(dst, int64(r.MappingIndex), 10)
		dst = append(dst, `,"prob":`...)
		dst = appendJSONFloat(dst, r.Prob)
		dst = append(dst, `,"matches":`...)
		id := sliceIdent(r.Matches)
		if sp, ok := rendered.get(id); ok {
			// The source range lies below len(dst), so the copy is sound
			// whether or not append reallocates.
			dst = append(dst, dst[sp.lo:sp.hi]...)
		} else {
			lo := len(dst)
			dst = appendMatchesJSON(dst, r.Matches)
			rendered.put(id, span{lo, len(dst)})
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

func appendMatchesJSON(dst []byte, matches []twig.Match) []byte {
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
			dst = AppendJSONString(dst, b.D.Path)
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

// AppendJSONString appends s as a JSON string exactly as encoding/json
// renders it: \" \\ \b \f \n \r \t by name, other control bytes and <, >, &
// as \u00XX, U+2028 and U+2029 as \u2028 and \u2029, and each byte of
// invalid UTF-8 as \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
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
		i += size
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
