package server

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sync"
)

// Request decoding. encoding/json defines the request language and words
// every error: decodeBody is the one place a body is judged. /v1/query —
// the endpoint whose fixed cost matters — first tries parseQueryRequest on
// the bytes, a hand parser for the plain subset of JSON every real client
// sends. The contract between the two is accept-or-decline: the parser
// either fills the request exactly as encoding/json would, or declines and
// the untouched bytes go through decodeBody, so no status, no error text
// and no decoded field depends on which of them ran (FuzzDecodeQueryRequest
// holds them to it). /v1/batch and /v1/admin/mutate stay on encoding/json
// alone: their bodies are arrays of objects (edits carry XML fragments,
// where escapes are the rule), so a plain subset would be a second, larger
// parser under a second fuzz equivalence. A mutate body is still read
// ahead, for json.Unmarshal (decodeMutate, FuzzDecodeMutateRequest).

// decodeBody decodes a JSON request body with a size cap, rejecting
// trailing garbage.
func (s *Server) decodeBody(w http.ResponseWriter, body io.ReadCloser, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, s.opts.MaxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// fastBodyMax is the longest body the fast path reads ahead: well above any
// query request that can succeed (a pattern is at most twig.MaxPatternLen
// bytes). A longer body is decoded by encoding/json as it streams in.
const fastBodyMax = 8 << 10

// bodyHead is a pooled read-ahead buffer.
type bodyHead struct{ b [fastBodyMax]byte }

var bodyHeadPool = sync.Pool{New: func() any { return new(bodyHead) }}

// decodeQuery is decodeBody for a QueryRequest: the fast path when the
// whole body arrived within both the read-ahead buffer and MaxBodyBytes
// and is written in parseQueryRequest's subset, decodeBody over the same
// byte stream otherwise.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (QueryRequest, error) {
	head := bodyHeadPool.Get().(*bodyHead)
	defer bodyHeadPool.Put(head) // every decoded string is a copy
	n, err := readAhead(r.Body, head.b[:])
	if err == io.EOF && int64(n) <= s.opts.MaxBodyBytes {
		var req QueryRequest // not the one below: that one escapes into an interface
		if parseQueryRequest(head.b[:n], &req) {
			return req, nil
		}
	}
	var req QueryRequest
	err = s.decodeBody(w, &replayBody{head: head.b[:n], err: err, rest: r.Body}, &req)
	return req, err
}

// decodeMutate is decodeQuery for a MutateRequest: what json.Unmarshal
// accepts, decodeBody accepts with the same fields.
func (s *Server) decodeMutate(w http.ResponseWriter, r *http.Request) (req MutateRequest, err error) {
	head := bodyHeadPool.Get().(*bodyHead)
	defer bodyHeadPool.Put(head) // every decoded string is a copy
	n, err := readAhead(r.Body, head.b[:])
	if err == io.EOF && int64(n) <= s.opts.MaxBodyBytes && json.Unmarshal(head.b[:n], &req) == nil {
		return req, nil
	}
	req = MutateRequest{}
	err = s.decodeBody(w, &replayBody{head: head.b[:n], err: err, rest: r.Body}, &req)
	return req, err
}

// readAhead reads r into buf until buf is full or r ends, and returns the
// byte count and the error that ended r (nil when buf filled first).
func readAhead(r io.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// replayBody is a body whose head was read ahead, as a reader of the
// original stream: the head, then what ended the read-ahead — its error,
// or the rest of the body.
type replayBody struct {
	head []byte
	err  error
	rest io.ReadCloser
}

func (b *replayBody) Read(p []byte) (int, error) {
	if len(b.head) > 0 {
		n := copy(p, b.head)
		b.head = b.head[n:]
		return n, nil
	}
	if b.err != nil {
		return 0, b.err
	}
	return b.rest.Read(p)
}

func (b *replayBody) Close() error { return b.rest.Close() }

// parseQueryRequest decodes b into *req when b is one JSON object written
// the plain way: members named exactly as QueryRequest's tags spell them
// (in any order, repeated ones overwriting like encoding/json's), strings
// of printable ASCII without escapes, numbers as non-negative decimal
// integers of at most 18 digits without sign, fraction, exponent or
// leading zero, true or false, JSON whitespace anywhere between tokens,
// and nothing after the closing brace. It reports false for every other
// input — valid JSON or not — without judging it; *req is then partly
// written and of no use.
func parseQueryRequest(b []byte, req *QueryRequest) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		i++
	} else {
		for {
			key, next, ok := plainString(b, i)
			if !ok {
				return false
			}
			if i = skipSpace(b, next); i == len(b) || b[i] != ':' {
				return false
			}
			i = skipSpace(b, i+1)
			var s []byte
			var u uint64
			switch string(key) {
			case "dataset":
				s, i, ok = plainString(b, i)
				req.Dataset = string(s)
			case "pattern":
				s, i, ok = plainString(b, i)
				req.Pattern = string(s)
			case "mode":
				s, i, ok = plainString(b, i)
				req.Mode = modeString(s)
			case "k":
				u, i, ok = plainUint(b, i)
				req.K, ok = int(u), ok && u <= math.MaxInt
			case "min_epoch":
				req.MinEpoch, i, ok = plainUint(b, i)
			case "timeout_ms":
				u, i, ok = plainUint(b, i)
				req.TimeoutMs = int64(u)
			case "explain":
				req.Explain, i, ok = plainBool(b, i)
			default:
				return false
			}
			if !ok {
				return false
			}
			if i = skipSpace(b, i); i == len(b) {
				return false
			}
			if b[i] == '}' {
				i++
				break
			}
			if b[i] != ',' {
				return false
			}
			i = skipSpace(b, i+1)
		}
	}
	return skipSpace(b, i) == len(b)
}

// skipSpace returns the index of the first byte of b at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// plainString reads a string literal of printable ASCII without escapes at
// b[i:] and returns its content (aliasing b) and the index after it.
func plainString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < ' ' || c > '~' || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// plainUint reads a decimal integer of 1 to 18 digits (so it fits every
// integer field) with no leading zero at b[i:]. What may follow it is the
// caller's check: a '.', 'e' or further digit is not a member separator.
func plainUint(b []byte, i int) (v uint64, next int, ok bool) {
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		v = v*10 + uint64(b[j]-'0')
		j++
	}
	if n := j - i; n == 0 || n > 18 || (n > 1 && b[i] == '0') {
		return 0, i, false
	}
	return v, j, true
}

// plainBool reads true or false at b[i:].
func plainBool(b []byte, i int) (v bool, next int, ok bool) {
	switch {
	case len(b)-i >= 4 && string(b[i:i+4]) == "true":
		return true, i + 4, true
	case len(b)-i >= 5 && string(b[i:i+5]) == "false":
		return false, i + 5, true
	}
	return false, i, false
}

// modeString is string(b) without the allocation for the modes there are.
func modeString(b []byte) string {
	switch string(b) {
	case "topk":
		return "topk"
	case "compact":
		return "compact"
	case "basic":
		return "basic"
	}
	return string(b)
}
