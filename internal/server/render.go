package server

import (
	"encoding/json"
	"hash/fnv"
	"net/http"
	"strconv"

	"xmatch/internal/core"
	"xmatch/internal/engine"
)

// The response path of /v1/query and /v1/batch: bodies are rendered whole
// into the pooled request's buffer by append-style code (core.AppendResultsJSON /
// AppendAnswersJSON — no Wire* structs, no reflection, each distinct match
// set rendered once, each result's head copied from the collection's
// table), then accounted, then written with a Content-Length.
// The bytes are exactly what encoding/json writes for QueryResponse /
// BatchResponse, which remain the client decode forms and the oracle the
// tests compare against.

// maxPooledBody is the largest response buffer (by capacity, which the
// renderer's one reservation per distinct match set leaves at about the
// body) a pooled request keeps: a rare giant body must not stay warm for
// requests that will never need it. It sits well above a full Table III
// compact batch (~4 MB). A request whose buffer the pool has dropped — past
// this size always, below it after two collections without use — allocates
// about one body anew. Nothing holds a buffer more strongly than the pool
// does: one kept in a server-owned slot stayed warm and read as +26% on
// t3_compact's live heap (2.72 -> 3.42 MB) — scratch that stays reachable
// is live data.
const maxPooledBody = 16 << 20

// payloadSpans locates a rendered payload's results and answers arrays
// inside the response buffer — the bytes the capture digest covers.
type payloadSpans struct{ resLo, resHi, ansLo, ansHi int }

// appendPayload appends the two payload members every answered query
// carries, `"results":[…],"answers":[…]`, and reports where the arrays lie.
func appendPayload(dst []byte, heads core.ResultHeads, results []core.Result, answers []core.Answer) ([]byte, payloadSpans) {
	var sp payloadSpans
	dst = append(dst, `"results":`...)
	sp.resLo = len(dst)
	dst = core.AppendResultsJSON(dst, results, heads)
	sp.resHi = len(dst)
	dst = append(dst, `,"answers":`...)
	sp.ansLo = len(dst)
	dst = core.AppendAnswersJSON(dst, answers)
	sp.ansHi = len(dst)
	return dst, sp
}

// digestPayload is DigestResults computed from the rendered bytes: FNV-64a
// over the results array, a newline, the answers array, a newline — what
// json.Encoder feeds the hash for the decoded forms.
func digestPayload(body []byte, sp payloadSpans) uint64 {
	h := fnv.New64a()
	h.Write(body[sp.resLo:sp.resHi])
	h.Write([]byte{'\n'})
	h.Write(body[sp.ansLo:sp.ansHi])
	h.Write([]byte{'\n'})
	return h.Sum64()
}

// appendQueryBody appends a /v1/query body (the QueryResponse form) up to
// and including its answers; the caller adds the optional explain member
// and closes the object.
func appendQueryBody(dst []byte, dataset, pattern, mode string, k int, epoch uint64,
	heads core.ResultHeads, results []core.Result, answers []core.Answer) ([]byte, payloadSpans) {

	dst = append(dst, `{"dataset":`...)
	dst = core.AppendJSONString(dst, dataset)
	dst = append(dst, `,"pattern":`...)
	dst = core.AppendJSONString(dst, pattern)
	dst = append(dst, `,"mode":`...)
	dst = core.AppendJSONString(dst, mode)
	dst = appendK(dst, k)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, ',')
	return appendPayload(dst, heads, results, answers)
}

// appendBatchBody appends a whole /v1/batch body (the BatchResponse form);
// answers[i] aggregates evaluated[i].Results and is unused for a member
// that failed.
func appendBatchBody(dst []byte, dataset string, epoch uint64, heads core.ResultHeads, evaluated []engine.Response, answers [][]core.Answer) []byte {
	dst = append(dst, `{"dataset":`...)
	dst = core.AppendJSONString(dst, dataset)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, epoch, 10)
	dst = append(dst, `,"responses":[`...)
	for i, er := range evaluated {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"pattern":`...)
		dst = core.AppendJSONString(dst, er.Pattern)
		dst = appendK(dst, er.K)
		dst = append(dst, ',')
		if er.Err != nil {
			dst = append(dst, `"results":null,"answers":null`...)
			if msg := er.Err.Error(); msg != "" {
				dst = append(dst, `,"error":`...)
				dst = core.AppendJSONString(dst, msg)
			}
		} else {
			dst, _ = appendPayload(dst, heads, er.Results, answers[i])
		}
		dst = append(dst, '}')
	}
	return append(dst, ']', '}', '\n')
}

// appendK appends the `,"k":N` member, omitted when zero like the structs'
// omitempty.
func appendK(dst []byte, k int) []byte {
	if k == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, `,"k":`...), int64(k), 10)
}

// appendJSON appends v as encoding/json marshals it — for the small
// sub-objects (EXPLAIN) that ride along a rendered body.
func appendJSON(dst []byte, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		return append(dst, `null`...)
	}
	return append(dst, b...)
}

// writeBody sends a fully rendered JSON body.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a client that went away is not the server's error
}
