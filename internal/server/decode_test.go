package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"xmatch/internal/dataset"
)

// decoded is everything a client or a handler can see of a body's decode:
// the request on success, the status and response bytes failBody answers
// with otherwise.
type decoded[R any] struct {
	Req    R
	Status int
	Body   string
}

func decodeOutcome[R any](s *Server, rec *httptest.ResponseRecorder, req R, err error) decoded[R] {
	if err == nil {
		return decoded[R]{Req: req}
	}
	s.failBody(rec, err)
	return decoded[R]{Req: req, Status: rec.Code, Body: rec.Body.String()}
}

// chunked delivers a body a few bytes per Read, like a slow connection.
type chunked struct {
	r io.Reader
	n int
}

func (c chunked) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// checkDecode holds decodeQuery to decodeBody — json.Decoder and More(),
// the definition of the request language — on one body: same success or
// failure, same decoded fields, same status and response bytes. chunk > 0
// feeds decodeQuery the body that many bytes at a time.
func checkDecode(t *testing.T, limit int64, chunk int, body []byte) {
	t.Helper()
	checkDecodeAs(t, limit, chunk, body, (*Server).decodeQuery)
}

// checkDecodeAs is checkDecode for any read-ahead decoder of a request R.
func checkDecodeAs[R any](t *testing.T, limit int64, chunk int, body []byte, decode func(*Server, http.ResponseWriter, *http.Request) (R, error)) {
	t.Helper()
	s := &Server{opts: Options{MaxBodyBytes: limit}}

	rec := httptest.NewRecorder()
	var want R
	err := s.decodeBody(rec, io.NopCloser(bytes.NewReader(body)), &want)
	wantOut := decodeOutcome(s, rec, want, err)

	var src io.Reader = bytes.NewReader(body)
	if chunk > 0 {
		src = chunked{src, chunk}
	}
	rec = httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", nil)
	r.Body = io.NopCloser(src)
	got, err := decode(s, rec, r)
	gotOut := decodeOutcome(s, rec, got, err)

	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("limit %d chunk %d body %q:\nread ahead %+v\ndecodeBody %+v", limit, chunk, body, gotOut, wantOut)
	}
}

// tableIIIBodies are the bodies clients send for the Table III workload in
// all three modes, as json.Marshal writes them.
func tableIIIBodies(t testing.TB) [][]byte {
	t.Helper()
	var bodies [][]byte
	for _, q := range dataset.Queries() {
		for _, req := range []QueryRequest{
			{Dataset: "D7", Pattern: q.Text, Mode: "basic"},
			{Dataset: "D7", Pattern: q.Text, Mode: "compact"},
			{Dataset: "D7", Pattern: q.Text},
			{Dataset: "D7", Pattern: q.Text, Mode: "topk", K: 5},
			{Dataset: "D7", Pattern: q.Text, Mode: "topk", K: 1, MinEpoch: 3, Explain: true, TimeoutMs: 250},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// decodeEdgeCases are bodies at the border of parseQueryRequest's subset
// and beyond it: what it must decline, what it must not mis-accept, and
// what encoding/json rejects.
var decodeEdgeCases = []string{
	``, ` `, `{}`, ` { } `, "\t{\r\n}\n", `null`, `[]`, `"x"`, `7`, `{`, `}`, `{}{}`, `{} {}`, `{} }`, `{} ]`, `{} x`, `{},`,
	`{"dataset":"D7","pattern":"Order//EMail"}`,
	`{ "dataset" : "D7" , "pattern" : "Order//EMail" , "mode" : "topk" , "k" : 5 }`,
	"{\n\t\"dataset\": \"D7\",\n\t\"pattern\": \"Order/DeliverTo/Contact/EMail\",\n\t\"k\": 3\n}\n",
	`{"dataset":"D7","pattern":"a[.=\"v\"]"}`,        // escaped quote
	`{"dataset":"D7","pattern":"a\\b"}`,              // escaped backslash
	`{"dataset":"D7","pattern":"\u0041"}`,            // \u escape
	`{"dataset":"D7","pattern":"a\/b"}`,              // escaped solidus
	`{"dataset":"D7","pattern":"a\qb"}`,              // invalid escape
	`{"dataset":"D7","pattern":"Bestellung/Straße"}`, // non-ASCII
	"{\"dataset\":\"D7\",\"pattern\":\"a\xffb\"}",    // invalid UTF-8
	"{\"dataset\":\"D7\",\"pattern\":\"a\x7fb\"}",    // DEL: valid JSON, not printable
	"{\"dataset\":\"D7\",\"pattern\":\"a\x01b\"}",    // control byte: invalid JSON
	"{\"dataset\":\"D7\",\"pattern\":\"a\nb\"}",      // raw newline in a string
	`{"dataset":"D7","pattern":"unterminated`,
	`{"dataset":"D7","dataset":"D8","pattern":"a","pattern":"b","k":1,"k":2}`, // duplicates: last wins
	`{"dataset":"D7","k":2,"k":"x"}`,
	`{"Dataset":"D7","PATTERN":"a","Mode":"basic","K":4}`, // case-folded keys
	`{"dataset":"D7","pattern":"a","limit":3}`,            // unknown field
	`{"dataset":"D7","pattern":"a","":1}`,
	`{"dataset":null,"pattern":null,"mode":null,"k":null,"min_epoch":null,"explain":null,"timeout_ms":null}`,
	`{"k":5.0}`, `{"k":1e1}`, `{"k":1E1}`, `{"k":-1}`, `{"k":-0}`, `{"k":007}`, `{"k":0}`, `{"k":00}`, `{"k":+1}`, `{"k":.5}`, `{"k":5.}`, `{"k":0x10}`,
	`{"k":999999999999999999}`, `{"k":1000000000000000000}`, `{"k":9223372036854775807}`, `{"k":9223372036854775808}`, `{"k":99999999999999999999999}`,
	`{"min_epoch":18446744073709551615}`, `{"min_epoch":18446744073709551616}`, `{"min_epoch":-1}`, `{"min_epoch":1.5}`,
	`{"timeout_ms":250}`, `{"timeout_ms":-250}`, `{"timeout_ms":9223372036854775808}`,
	`{"explain":true}`, `{"explain":false}`, `{"explain":True}`, `{"explain":truex}`, `{"explain":tru}`, `{"explain":1}`, `{"explain":"true"}`,
	`{"k":"5"}`, `{"k":[5]}`, `{"k":{}}`, `{"dataset":7}`, `{"dataset":["D7"]}`, `{"mode":true}`,
	`{"k":5,}`, `{,"k":5}`, `{"k":5 "mode":"topk"}`, `{"k" 5}`, `{"k":}`, `{"k"}`, `{k:5}`, `{'k':5}`, `{"k":5}}`, `{"k":5}]`, `{"k":5}garbage`, `{"k":5} 7`,
	`{"k":5 5}`, `{"k":5x}`, `{"mode":"topk"x}`,
	"\xef\xbb\xbf{}", // byte-order mark
	`{"dataset":"D7","pattern":"Order//EMail","mode":"other"}`,
	`{"dataset":"","pattern":"","mode":""}`,
}

// TestDecodeQueryMatchesDecodeBody runs the Table III bodies and the edge
// cases under a roomy and a tight MaxBodyBytes, whole and in small chunks.
func TestDecodeQueryMatchesDecodeBody(t *testing.T) {
	bodies := tableIIIBodies(t)
	for _, c := range decodeEdgeCases {
		bodies = append(bodies, []byte(c))
	}
	for _, body := range bodies {
		for _, limit := range []int64{1 << 20, 48, int64(len(body)), int64(len(body)) - 1} {
			for _, chunk := range []int{0, 1, 7} {
				checkDecode(t, limit, chunk, body)
			}
		}
	}
}

// TestDecodeQueryBodySizes walks a body's length across the read-ahead
// window and MaxBodyBytes: one byte under, at, and over each, padded inside
// the pattern (a longer value), after the object (trailing whitespace) and
// with trailing garbage. One byte over MaxBodyBytes is a 413 with today's
// text; a body that merely outgrows the window is still decoded.
func TestDecodeQueryBodySizes(t *testing.T) {
	const prefix, suffix = `{"dataset":"D7","mode":"topk","k":5,"pattern":"`, `"}`
	for _, size := range []int{fastBodyMax - 1, fastBodyMax, fastBodyMax + 1, 2*fastBodyMax + 3} {
		inPattern := prefix + strings.Repeat("a", size-len(prefix)-len(suffix)) + suffix
		short := prefix + "Order//EMail" + suffix
		trailingSpace := short + strings.Repeat(" ", size-len(short))
		trailingGarbage := trailingSpace[:size-1] + "x"
		for _, body := range []string{inPattern, trailingSpace, trailingGarbage} {
			if len(body) != size {
				t.Fatalf("fixture: body is %d bytes, want %d", len(body), size)
			}
			for _, limit := range []int64{1 << 20, int64(size) + 1, int64(size), int64(size) - 1, fastBodyMax} {
				for _, chunk := range []int{0, 1000} {
					checkDecode(t, limit, chunk, []byte(body))
				}
			}
		}
	}
	// The documented 413: a well-formed body one byte over the limit.
	s := &Server{opts: Options{MaxBodyBytes: 64}}
	body := `{"dataset":"D7","pattern":"` + strings.Repeat("a", 65-29) + `"}`
	if len(body) != 65 {
		t.Fatalf("fixture: body is %d bytes, want 65", len(body))
	}
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	_, err := s.decodeQuery(rec, r)
	if err == nil {
		t.Fatal("a body one byte over MaxBodyBytes decoded")
	}
	s.failBody(rec, err)
	if want := "{\"error\":\"request body exceeds 64 bytes\"}\n"; rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
		t.Fatalf("status %d body %q, want 413 %q", rec.Code, rec.Body.String(), want)
	}
}

// TestDecodeQueryReadError: a body that fails mid-stream reaches
// encoding/json exactly as it would have without the read-ahead — the
// bytes that arrived, then the error.
func TestDecodeQueryReadError(t *testing.T) {
	for _, head := range []string{``, `{"dataset":"D7"`, `{"dataset":"D7","pattern":"a"}`, `{"dataset":"D7","pattern":"a"} `} {
		for _, readErr := range []error{io.ErrUnexpectedEOF, io.ErrClosedPipe} {
			s := &Server{opts: Options{MaxBodyBytes: 1 << 20}}
			mk := func() io.ReadCloser {
				return io.NopCloser(io.MultiReader(strings.NewReader(head), iotest.ErrReader(readErr)))
			}
			rec := httptest.NewRecorder()
			var want QueryRequest
			err := s.decodeBody(rec, mk(), &want)
			wantOut := decodeOutcome(s, rec, want, err)

			rec = httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/query", nil)
			r.Body = mk()
			got, err := s.decodeQuery(rec, r)
			if gotOut := decodeOutcome(s, rec, got, err); !reflect.DeepEqual(gotOut, wantOut) {
				t.Fatalf("head %q then %v:\ndecodeQuery %+v\ndecodeBody  %+v", head, readErr, gotOut, wantOut)
			}
		}
	}
}

// TestTableIIIBodiesTakeFastPath: the equivalence above would hold for a
// parser that declined everything. The bodies the workload is made of —
// compact and indented — must be accepted, with encoding/json's fields.
func TestTableIIIBodiesTakeFastPath(t *testing.T) {
	for _, body := range tableIIIBodies(t) {
		var want QueryRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, "", "  "); err != nil {
			t.Fatal(err)
		}
		for _, b := range [][]byte{body, indented.Bytes(), append(indented.Bytes(), '\n')} {
			var got QueryRequest
			if !parseQueryRequest(b, &got) {
				t.Fatalf("fast path declined %q", b)
			}
			if got != want {
				t.Fatalf("body %q:\nfast path     %+v\nencoding/json %+v", b, got, want)
			}
		}
	}
}

// FuzzDecodeQueryRequest: for any bytes, under a roomy and a tight
// MaxBodyBytes and any read chunking, decodeQuery is decodeBody.
func FuzzDecodeQueryRequest(f *testing.F) {
	for _, body := range tableIIIBodies(f) {
		f.Add(body, uint8(0))
	}
	for i, c := range decodeEdgeCases {
		f.Add([]byte(c), uint8(i%5))
	}
	f.Fuzz(func(t *testing.T, body []byte, chunk uint8) {
		for _, limit := range []int64{1 << 20, 48} {
			checkDecode(t, limit, int(chunk), body)
		}
	})
}

// decodeMutateCases are mutate bodies: the shape bench/ and the CLI send,
// escapes inside XML payloads, what json.Unmarshal refuses and
// json.Decoder accepts (a trailing '}' or ']', which More() does not call
// data), type errors, and trailing garbage.
var decodeMutateCases = []string{
	`{"dataset":"D7","shard":2,"edits":[{"op":"settext","path":"Order.OrderHeader.OrderNumber","ordinal":3,"text":"s17"}]}`,
	`{"dataset":"D7","edits":[{"op":"insert","path":"Order","pos":0,"xml":"<Audit><Who>ops</Who></Audit>"},{"op":"delete","start":12}]}`,
	`{"dataset":"D7","edits":[{"op":"insert","start":1,"xml":"<a b=\"c\">x\u0026amp;y</a>"}]}`,
	`{"dataset":"D7","edits":[{"op":"rename","path":"Order.X","label":"Y"}]}` + "\n",
	`{"dataset":"D7","edits":[]}}`, `{"dataset":"D7","edits":[]}]`, `{"dataset":"D7","edits":[]} }`, `{"dataset":"D7","edits":[]}]]`,
	`{"dataset":"D7","edits":[]}{}`, `{"dataset":"D7","edits":[]} x`, `{"dataset":"D7","edits":[]},`,
	`{"dataset":"D7","edits":{}}`, `{"dataset":"D7","edits":[1]}`, `{"dataset":"D7","shard":"1"}`, `{"dataset":"D7","shard":1.5}`,
	`{"dataset":"D7","shard":-1,"edits":[{"op":7}]}`, `{"dataset":"D7","edits":[{"op":"settext","ordinal":99999999999999999999}]}`,
	`{"Dataset":"D7","EDITS":[{"OP":"delete","Start":3}]}`, `{"dataset":"D7","edits":[{"op":"delete","start":3,"extra":[1,{"a":null}]}]}`,
	`{"dataset":"D7","edits":[{"op":"settext","text":"a` + "\xff" + `b"}]}`, `{"dataset":"D7","edits":null}`, `{"dataset":"D7","edits":[null]}`,
}

// TestDecodeMutateMatchesDecodeBody runs the mutate bodies, and the query
// edge cases read as mutate bodies, under a roomy and tight MaxBodyBytes,
// whole and in small chunks.
func TestDecodeMutateMatchesDecodeBody(t *testing.T) {
	bodies := append(append([]string(nil), decodeMutateCases...), decodeEdgeCases...)
	for _, body := range bodies {
		for _, limit := range []int64{1 << 20, 48, int64(len(body)), int64(len(body)) - 1} {
			for _, chunk := range []int{0, 1, 7} {
				checkDecodeAs(t, limit, chunk, []byte(body), (*Server).decodeMutate)
			}
		}
	}
	// A body that outgrows the read-ahead window streams through decodeBody.
	long := `{"dataset":"D7","edits":[{"op":"insert","path":"Order","xml":"<a>` + strings.Repeat("x", fastBodyMax) + `</a>"}]}`
	for _, limit := range []int64{1 << 20, int64(len(long)), fastBodyMax} {
		checkDecodeAs(t, limit, 1000, []byte(long), (*Server).decodeMutate)
	}
}

// FuzzDecodeMutateRequest: for any bytes, under a roomy and a tight
// MaxBodyBytes and any read chunking, decodeMutate is decodeBody.
func FuzzDecodeMutateRequest(f *testing.F) {
	for i, c := range decodeMutateCases {
		f.Add([]byte(c), uint8(i%5))
	}
	for i, c := range decodeEdgeCases {
		f.Add([]byte(c), uint8(i%5))
	}
	f.Fuzz(func(t *testing.T, body []byte, chunk uint8) {
		for _, limit := range []int64{1 << 20, 48} {
			checkDecodeAs(t, limit, int(chunk), body, (*Server).decodeMutate)
		}
	})
}
