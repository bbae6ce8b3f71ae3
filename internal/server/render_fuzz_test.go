package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"xmatch/internal/core"
	"xmatch/internal/engine"
	"xmatch/internal/mapping"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// FuzzRenderJSON holds the append-style response renderer to encoding/json
// byte for byte: any strings (control bytes, HTML-sensitive characters,
// U+2028/U+2029, invalid UTF-8, each before, on and after an eight-byte
// word boundary), any finite floats (exponent forms, -0,
// subnormals), k and text on both sides of omitempty, shared and unshared
// match slices, null and empty value lists, failed batch members with and
// without a message, and a head table whose entries some results meet
// exactly, one misses in the last bit, and two may miss by index (k and
// start are any integers) — a /v1/query and a /v1/batch body must equal what the
// Encoder writes for QueryResponse / BatchResponse over the ToWire forms,
// and the digest taken from the rendered bytes must equal DigestResults.
func FuzzRenderJSON(f *testing.F) {
	f.Add("D7", "Order//EMail", "compact", 0, uint64(3), "Order.Contact.EMail", "a@b.example", 0.25, 17)
	f.Add("d<&>", "a[.=\"v\"]\\", "topk", 5, uint64(0), "p\x00\x01\x1f\x7f\b\f\n\r\t", "\u2028 and \u2029", 1e-7, -1)
	f.Add("\xff\xfe", "\xc3", "basic", -2, ^uint64(0), "é日本", "", 1e21, 0)
	f.Add("", "", "", 1, uint64(1), "", "x", math.Copysign(0, -1), 1<<31)
	f.Add("q", "\"", "\\", 0, uint64(9), "a.b", "\xe2\x80", 5e-324, 3)
	f.Add("q", "/", "m", 7, uint64(2), "a", "b", 123456789.125e-15, 4)
	f.Add("q", "/", "m", 7, uint64(2), "a", "b", -9.999999999999999e20, 4)
	f.Add("q", "/", "m", 1, uint64(2), "a", "b", 0.0, 3)
	f.Add("q", "/", "m", 3, uint64(2), "a", "b", 2.2250738585072009e-308, -4)
	// Strings of two words and more, escapable bytes at word offsets 0, 7,
	// 8 and 15 (the renderer skips plain bytes eight at a time), and runes
	// straddling the first word boundary.
	f.Add("<rder.C\"\\ontact&Mail", "\x01rder/C>\x1fontact\nMail/X", "topk", 5, uint64(4), "&rder.C\u2028ntact<EMail", "Order.Contact.EMail_0123", 0.5, 8)
	f.Add("\xffrder.Cé.ntac.\xffMail", "Order//EMail", "compact", 0, uint64(5), "Order.C\xe2\x80\xa9tact.\xffMail", "Order.Con\ttact.EMail_0123", 0.125, 15)
	f.Fuzz(func(t *testing.T, dataset, pattern, mode string, k int, epoch uint64, path, text string, prob float64, start int) {
		if math.IsNaN(prob) || math.IsInf(prob, 0) {
			t.Skip("encoding/json refuses non-finite numbers")
		}
		q0, q1 := &twig.Node{Index: 0}, &twig.Node{Index: k}
		match := func(p string, s int, tx string) twig.Match {
			return twig.Match{{Q: q0, D: &xmltree.Node{Path: p, Start: s, Text: tx}}, {Q: q1, D: &xmltree.Node{Path: tx, Start: -s, Text: p}}}
		}
		shared := []twig.Match{match(path, start, text), match(text, start+1, ""), {}}
		results := []core.Result{
			{MappingIndex: 0, Prob: prob, Matches: shared},
			{MappingIndex: k, Prob: prob / 3, Matches: nil},
			{MappingIndex: 2, Prob: -prob, Matches: shared},
			{MappingIndex: start, Prob: math.Sqrt(math.Abs(prob)), Matches: []twig.Match{match(pattern, k, dataset)}},
			{MappingIndex: 4, Prob: prob * 1e-300, Matches: shared},
		}
		// Heads for mappings 0-4: results 0, 2 and 4 carry their entry's
		// probability, the fourth the next float up, and the second only
		// what its index k happens to select.
		set := &mapping.Set{}
		for _, p := range []float64{prob, prob / 3, -prob, math.Nextafter(results[3].Prob, 2), prob * 1e-300} {
			set.Mappings = append(set.Mappings, &mapping.Mapping{Prob: p})
		}
		heads := core.NewResultHeads(set)
		answers := []core.Answer{
			{Values: []string{text, path, mode}, Prob: prob},
			{Values: nil, Prob: prob / 7},
			{Values: []string{}, Prob: 0},
		}
		encode := func(v any) []byte {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(v); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		wireResults, wireAnswers := core.ToWire(results), core.AnswersToWire(answers)

		got, spans := appendQueryBody([]byte("stale"), dataset, pattern, mode, k, epoch, heads, results, answers)
		got = append(got, '}', '\n')
		want := encode(QueryResponse{Dataset: dataset, Pattern: pattern, Mode: mode, K: k, Epoch: epoch, Results: wireResults, Answers: wireAnswers})
		if !bytes.Equal(got[len("stale"):], want) {
			t.Fatalf("query body:\ngot  %q\nwant %q", got[len("stale"):], want)
		}
		if d, w := digestPayload(got, spans), DigestResults(wireResults, wireAnswers); d != w {
			t.Fatalf("digest of the rendered bytes %016x, DigestResults %016x", d, w)
		}

		evaluated := []engine.Response{
			{Request: engine.Request{Pattern: pattern, K: k}, Results: results},
			{Request: engine.Request{Pattern: text}, Err: errors.New(path)},
			{Request: engine.Request{Pattern: path, K: start}},
		}
		gotBatch := appendBatchBody(nil, dataset, epoch, heads, evaluated, [][]core.Answer{answers, nil, nil})
		wantBatch := encode(BatchResponse{Dataset: dataset, Epoch: epoch, Responses: []BatchAnswer{
			{Pattern: pattern, K: k, Results: wireResults, Answers: wireAnswers},
			{Pattern: text, Error: path},
			{Pattern: path, K: start, Results: []core.WireResult{}, Answers: []core.WireAnswer{}},
		}})
		if !bytes.Equal(gotBatch, wantBatch) {
			t.Fatalf("batch body:\ngot  %q\nwant %q", gotBatch, wantBatch)
		}
	})
}
